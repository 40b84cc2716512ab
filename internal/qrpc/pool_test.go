package qrpc

import (
	"runtime"
	"testing"
)

// pooledEcho is a pooled server with one authenticated session and an echo
// handler that records the order requests ran in.
func pooledEcho(t *testing.T, workers int, order *[]uint64, gate chan struct{}) (*Server, *harnessSender) {
	t.Helper()
	srv := NewServer(ServerConfig{ServerID: "srv", Workers: workers})
	srv.Register("echo", func(clientID string, req Request) ([]byte, error) {
		if gate != nil {
			<-gate
		}
		*order = append(*order, req.Seq) // one session: the pool serializes
		return req.Args, nil
	})
	up := true
	snd := &harnessSender{up: &up}
	srv.OnConnect(snd, 0)
	srv.OnFrame(snd, helloFrame("c", 1), 0)
	return srv, snd
}

// A closed-loop session must cost the pool no queue, no task array and no
// ready-list array per request: all three are kept once the first request
// has made them.
func TestWorkerPoolKeepsQueueArrays(t *testing.T) {
	var order []uint64
	srv, snd := pooledEcho(t, 2, &order, nil)
	defer srv.Close()
	p := srv.pool
	var tasks *poolTask
	var ready **keyQueue
	for seq := uint64(1); seq <= 100; seq++ {
		srv.OnFrame(snd, requestFrame(seq, "echo", nil), 0)
		srv.Quiesce()
		p.mu.Lock()
		kq := srv.sessions["c"].queue
		head, nready := p.head, len(p.ready)
		t0, r0 := &kq.tasks[:1][0], &p.ready[:1][0]
		stale := t0.sess != nil || t0.from != nil || t0.req.Args != nil || *r0 != nil
		p.mu.Unlock()
		if kq.active || len(kq.tasks) != 0 || head != 0 || nready != 0 {
			t.Fatalf("seq %d: idle queue active=%v len=%d, ready head=%d len=%d", seq, kq.active, len(kq.tasks), head, nready)
		}
		if stale {
			t.Fatalf("seq %d: a finished request is still referenced from the kept arrays", seq)
		}
		if seq > 1 && (t0 != tasks || r0 != ready) {
			t.Fatalf("seq %d: arrays were reallocated", seq)
		}
		tasks, ready = t0, r0
	}
	if len(order) != 100 {
		t.Fatalf("executed %d of 100", len(order))
	}
}

// A burst longer than a chunk runs in arrival order across chunk
// boundaries and queue reuse, and the array it grew is not kept.
func TestWorkerPoolBurstOrderAndBound(t *testing.T) {
	var order []uint64
	gate := make(chan struct{})
	srv, snd := pooledEcho(t, 3, &order, gate)
	defer srv.Close()
	const burst = 3*maxPoolChunk + 7
	for round := 0; round < 2; round++ {
		base := uint64(round * burst)
		for i := uint64(1); i <= burst; i++ {
			srv.OnFrame(snd, requestFrame(base+i, "echo", nil), 0)
		}
		for i := 0; i < burst; i++ {
			gate <- struct{}{}
		}
		srv.Quiesce()
	}
	for i, seq := range order {
		if seq != uint64(i+1) {
			t.Fatalf("request %d ran at position %d", seq, i+1)
		}
	}
	if len(order) != 2*burst {
		t.Fatalf("executed %d of %d", len(order), 2*burst)
	}
	srv.pool.mu.Lock()
	defer srv.pool.mu.Unlock()
	if c := cap(srv.sessions["c"].queue.tasks); c > maxPoolChunk {
		t.Fatalf("idle session keeps a %d-task array", c)
	}
}

// Close discards what no worker has started — queued behind a running chunk
// or waiting on the ready list — and clears the dispatch marks, so a later
// incarnation would not drop the redeliveries as in-flight.
func TestWorkerPoolCloseDiscardsQueued(t *testing.T) {
	var order []uint64
	gate := make(chan struct{})
	srv, snd := pooledEcho(t, 1, &order, gate)
	up := true
	snd2 := &harnessSender{up: &up}
	srv.OnConnect(snd2, 0)
	srv.OnFrame(snd2, helloFrame("d", 1), 0)

	srv.OnFrame(snd, requestFrame(1, "echo", nil), 0)
	for srv.pool.claimedBy(0) == nil { // until the lone worker has taken it
		runtime.Gosched()
	}
	srv.OnFrame(snd, requestFrame(2, "echo", nil), 0)  // behind the running chunk
	srv.OnFrame(snd2, requestFrame(1, "echo", nil), 0) // on the ready list

	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	for !srv.pool.isClosed() {
		runtime.Gosched()
	}
	gate <- struct{}{}
	<-closed
	srv.Quiesce() // pending reached zero

	if len(order) != 1 || order[0] != 1 {
		t.Fatalf("executed %v, want only the request already running", order)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for id, sess := range srv.sessions {
		if len(sess.executing) != 0 {
			t.Errorf("session %s still marks %v as executing", id, sess.executing)
		}
	}
}

// claimedBy reports the queue worker i is running a chunk of, if any.
func (p *workerPool) claimedBy(i int) *keyQueue {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.claimed[i]
}
