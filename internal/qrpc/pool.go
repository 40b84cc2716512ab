package qrpc

import (
	"sync"

	"rover/internal/wire"
)

// workerPool executes request handlers on a bounded set of workers while
// preserving QRPC's ordering contract: requests from one session execute
// serially in arrival order (per-key FIFO), and sessions execute in
// parallel with each other. A worker that drains a run of tasks for one
// session coalesces their replies into a single FrameBatch toward the
// transport, so server-side batching falls out of the same mechanism.
//
// The design is a classic per-key serial executor: each session owns a FIFO
// task queue (session.queue, which lives and dies with the session); a queue
// with work is on the ready list exactly once ("active"), claimed by exactly
// one worker at a time. Workers claim a bounded chunk per visit so one chatty
// session cannot starve the rest.

// maxPoolChunk bounds how many tasks a worker takes from one key per visit
// (fairness across sessions; also the reply-batch size cap).
const maxPoolChunk = 64

// poolTask is one dispatched request. The dup-drop guard (sess.executing)
// was set under the server lock at dispatch time, so a redelivered copy of
// the same request cannot be submitted while this task is anywhere in the
// pool. Server.executeRun fills in the results: the reply's encoding and the
// id of its journal record.
type poolTask struct {
	from     Sender
	clientID string
	sess     *session
	handler  Handler
	req      Request

	rec []byte // the reply's exec record on a journaled server
	enc []byte // the reply, a view of rec
	jid uint64
}

// keyQueue is one session's FIFO, guarded by the pool's mutex. An emptied
// queue keeps its array (up to one chunk's worth) for the session's next
// request, so a closed-loop client costs the pool no allocation per request.
type keyQueue struct {
	tasks  []poolTask
	active bool // on the ready list or claimed by a worker
}

type workerPool struct {
	srv  *Server
	size int

	mu      sync.Mutex
	cond    *sync.Cond  // workers: ready-list non-empty or closed
	quiet   *sync.Cond  // quiesce: pending == 0
	ready   []*keyQueue // ready[head:] await a worker, oldest first
	head    int
	claimed []*keyQueue // by worker: the queue whose chunk it is running
	pending int         // submitted tasks not yet finished (executed or discarded)
	started bool
	closed  bool
	wg      sync.WaitGroup
}

func newWorkerPool(s *Server, size int) *workerPool {
	p := &workerPool{srv: s, size: size, claimed: make([]*keyQueue, size)}
	p.cond = sync.NewCond(&p.mu)
	p.quiet = sync.NewCond(&p.mu)
	return p
}

// submit enqueues a task on its session's FIFO queue, starting the workers
// on first use. Tasks submitted after close are discarded (the server is
// shutting down; clients redeliver).
func (p *workerPool) submit(t poolTask) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.discard(t)
		return
	}
	if !p.started {
		p.started = true
		p.wg.Add(p.size)
		for i := 0; i < p.size; i++ {
			go p.worker(i)
		}
	}
	kq := &t.sess.queue
	kq.tasks = append(kq.tasks, t)
	p.pending++
	if !kq.active {
		kq.active = true
		p.pushReadyLocked(kq)
	}
	p.mu.Unlock()
}

// pushReadyLocked puts kq at the back of the ready list. The list is
// consumed by advancing head, so its array is reused once it drains
// (every time, for closed-loop clients) and compacted when it fills.
func (p *workerPool) pushReadyLocked(kq *keyQueue) {
	if p.head > 0 && len(p.ready) == cap(p.ready) {
		n := copy(p.ready, p.ready[p.head:])
		clear(p.ready[n:])
		p.ready, p.head = p.ready[:n], 0
	}
	p.ready = append(p.ready, kq)
	p.cond.Signal()
}

func (p *workerPool) worker(i int) {
	defer p.wg.Done()
	var out []wire.Frame // this worker's reply frames, reused chunk after chunk
	p.mu.Lock()
	for {
		for p.head == len(p.ready) && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		kq := p.ready[p.head]
		p.ready[p.head] = nil
		if p.head++; p.head == len(p.ready) {
			p.ready, p.head = p.ready[:0], 0
		}
		n := min(len(kq.tasks), maxPoolChunk)
		chunk := kq.tasks[:n]
		kq.tasks = kq.tasks[n:]
		// kq stays active while this worker owns the chunk: concurrent
		// submits append to kq.tasks but must not put the key back on the
		// ready list, or a second worker would break per-session ordering.
		p.claimed[i] = kq
		p.mu.Unlock()

		out = p.runChunk(chunk, out)

		p.mu.Lock()
		p.claimed[i] = nil
		p.pending -= n
		clear(chunk) // the array outlives the requests it carried
		if len(kq.tasks) > 0 && !p.closed {
			p.pushReadyLocked(kq)
		} else {
			kq.active = false
			if len(kq.tasks) == 0 {
				// Nothing was appended behind the chunk, so its array is the
				// queue's: keep it for the session's next request, unless a
				// burst grew it past a chunk.
				kq.tasks = nil
				if cap(chunk) <= maxPoolChunk {
					kq.tasks = chunk[:0]
				}
			}
		}
		if p.pending <= 0 {
			p.quiet.Broadcast()
		}
	}
}

// runChunk executes one session's tasks as one Server.executeRun and
// releases their replies, coalescing consecutive replies toward the same
// transport into one batch frame. out is the worker's reply-frame scratch,
// returned emptied for its next chunk: a Sender keeps frames by value and a
// batch copies its sub-frames, so nothing holds it.
func (p *workerPool) runChunk(tasks []poolTask, out []wire.Frame) []wire.Frame {
	if p.isClosed() {
		// A chunk runs or is discarded whole. Clearing the dispatch marks
		// keeps a future incarnation sharing this session state from
		// treating redeliveries as in-flight forever.
		for _, t := range tasks {
			p.discard(t)
		}
		return out
	}
	if !p.srv.executeRun(tasks) {
		return out // the journal refused the run: nothing to release
	}
	var to Sender
	flush := func() {
		if to != nil {
			p.srv.sendCoalesced(to, out)
		}
		clear(out)
		out = out[:0]
	}
	for i := range tasks {
		t := &tasks[i]
		if t.from != to {
			flush()
			to = t.from
		}
		out = append(out, wire.Frame{Type: wire.FrameReply, Payload: t.enc})
	}
	flush()
	return out
}

// discard un-dispatches a task that will never execute.
func (p *workerPool) discard(t poolTask) {
	p.srv.mu.Lock()
	delete(t.sess.executing, t.req.Seq)
	p.srv.mu.Unlock()
}

func (p *workerPool) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// quiesce blocks until no submitted task remains unfinished.
func (p *workerPool) quiesce() {
	p.mu.Lock()
	for p.pending > 0 {
		p.quiet.Wait()
	}
	p.mu.Unlock()
}

// close stops the workers. Queued tasks that no worker has claimed are
// discarded; tasks already claimed finish or are discarded by their worker.
func (p *workerPool) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	var dropped []poolTask
	for _, queues := range [][]*keyQueue{p.ready[p.head:], p.claimed} {
		for _, kq := range queues {
			if kq == nil {
				continue // an idle worker's slot
			}
			dropped = append(dropped, kq.tasks...)
			p.pending -= len(kq.tasks)
			kq.tasks = nil
		}
	}
	p.ready, p.head = nil, 0
	p.cond.Broadcast()
	if p.pending <= 0 {
		p.quiet.Broadcast()
	}
	started := p.started
	p.mu.Unlock()

	for _, t := range dropped {
		p.discard(t)
	}
	if started {
		p.wg.Wait()
	}
}
