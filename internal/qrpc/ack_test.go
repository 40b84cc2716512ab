package qrpc

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rover/internal/stable"
	"rover/internal/vtime"
	"rover/internal/wire"
)

// flushAtDeadline advances the harness clock to the time the client asks to
// be pumped at (the deadline of an ack nothing has carried) and pumps.
func (h *harness) flushAtDeadline() {
	h.t.Helper()
	at, ok := h.client.NextReadyAt(h.now)
	if !ok {
		h.t.Fatal("client has nothing scheduled: no ack is waiting")
	}
	h.now = at
	h.flush()
}

func cachedReplies(s *Server) int {
	n := 0
	for _, sess := range s.Sessions() {
		n += sess.CachedReplies
	}
	return n
}

// TestAckRidesNextRequest is the tentpole's frame budget: a reply puts
// nothing on the wire, and its ack leaves inside the next request's frame.
func TestAckRidesNextRequest(t *testing.T) {
	h := newHarness(t, ClientConfig{}, ServerConfig{ServerID: "srv"})
	h.server.Register("echo", echoHandler)
	h.connect()
	const n = 50
	for i := 0; i < n; i++ {
		before := h.cs.sent
		p, err := h.client.Enqueue("echo", []byte{byte(i)}, PriorityNormal, h.now)
		if err != nil {
			t.Fatal(err)
		}
		h.settle()
		if !p.Ready() {
			t.Fatalf("request %d did not complete", i)
		}
		if got := h.cs.sent - before; got != 1 {
			t.Fatalf("request %d cost %d client frames, want 1 (its reply must not send an ack of its own)", i, got)
		}
		if i > 0 && cachedReplies(h.server) != 1 {
			t.Fatalf("after request %d the server holds %d replies, want 1: the previous ack rode this request", i, cachedReplies(h.server))
		}
	}
	h.flushAtDeadline()
	st := h.client.Stats()
	if st.AcksSent != n || st.AckFlushes != 1 || st.BatchesSent != n-1 {
		t.Fatalf("AcksSent=%d AckFlushes=%d BatchesSent=%d, want %d, 1 (the last reply's), %d", st.AcksSent, st.AckFlushes, st.BatchesSent, n, n-1)
	}
	if cachedReplies(h.server) != 0 {
		t.Fatalf("server still caches %d replies after the flush", cachedReplies(h.server))
	}
}

// TestAckFlushedAloneAtDeadline: one request followed by silence. The ack is
// not sent with the reply, NextReadyAt names the deadline, and the pump
// there sends it alone — AckFlushes / AcksSent is 1.
func TestAckFlushedAloneAtDeadline(t *testing.T) {
	h := newHarness(t, ClientConfig{}, ServerConfig{ServerID: "srv"})
	h.server.Register("echo", echoHandler)
	h.connect()
	if _, err := h.client.Enqueue("echo", nil, PriorityNormal, h.now); err != nil {
		t.Fatal(err)
	}
	h.settle()
	if got := h.client.Stats().AcksSent; got != 0 || cachedReplies(h.server) != 1 {
		t.Fatalf("AcksSent=%d cached=%d right after the reply, want 0 and 1", got, cachedReplies(h.server))
	}
	at, ok := h.client.NextReadyAt(h.now)
	if !ok || at != h.now.Add(ackDelay) {
		t.Fatalf("NextReadyAt = %v, %v, want the reply time + ackDelay", at, ok)
	}
	h.flushAtDeadline()
	if st := h.client.Stats(); st.AcksSent != 1 || st.AckFlushes != 1 {
		t.Fatalf("AcksSent=%d AckFlushes=%d, want 1 and 1", st.AcksSent, st.AckFlushes)
	}
	if _, ok := h.client.NextReadyAt(h.now); ok {
		t.Fatal("NextReadyAt still names a time after the flush")
	}
	if cachedReplies(h.server) != 0 {
		t.Fatal("flushed ack did not reach the server")
	}
}

// TestLoneAckKeepsItsBytes: a piggy-backed ack is encoded in scratch the
// batch copies, but an ack frame sent alone may sit in its Sender's queue —
// the next ack's encoding must not reach it there.
func TestLoneAckKeepsItsBytes(t *testing.T) {
	h := newHarness(t, ClientConfig{}, ServerConfig{ServerID: "srv"})
	h.server.Register("echo", echoHandler)
	h.connect()
	var held []wire.Frame
	var seqs []uint64
	for range 2 {
		p, err := h.client.Enqueue("echo", nil, PriorityNormal, h.now)
		if err != nil {
			t.Fatal(err)
		}
		h.settle()
		at, ok := h.client.NextReadyAt(h.now)
		if !ok {
			t.Fatal("no ack waiting")
		}
		h.now = at
		h.client.Pump(h.now) // the ack leaves alone; keep it from the server
		held = append(held, h.cs.queue...)
		h.cs.queue = nil
		seqs = append(seqs, p.Seq())
	}
	if len(held) != 2 {
		t.Fatalf("%d lone frames, want two acks", len(held))
	}
	for i, f := range held {
		var ack Ack
		if err := wire.Unmarshal(f.Payload, &ack); f.Type != wire.FrameAck || err != nil || len(ack.Seqs) != 1 || ack.Seqs[0] != seqs[i] {
			t.Fatalf("queued ack %d: type %v, seqs %v (%v), want [%d]", i, f.Type, ack.Seqs, err, seqs[i])
		}
	}
}

// TestAckFlushRetriesAfterRefusal: a flush the link refuses leaves the ack
// pending with a new deadline in the future — a transport that pumps
// whenever NextReadyAt says "now" must not spin.
func TestAckFlushRetriesAfterRefusal(t *testing.T) {
	h := newHarness(t, ClientConfig{}, ServerConfig{ServerID: "srv"})
	h.server.Register("echo", echoHandler)
	h.connect()
	if _, err := h.client.Enqueue("echo", nil, PriorityNormal, h.now); err != nil {
		t.Fatal(err)
	}
	h.settle()
	h.cs.refuse = true
	h.flushAtDeadline()
	if at, ok := h.client.NextReadyAt(h.now); !ok || at != h.now.Add(ackDelay) {
		t.Fatalf("after a refused flush NextReadyAt = %v, %v, want one ackDelay from now", at, ok)
	}
	h.cs.refuse = false
	h.flushAtDeadline()
	if st := h.client.Stats(); st.AcksSent != 1 || cachedReplies(h.server) != 0 {
		t.Fatalf("AcksSent=%d cached=%d after the retry, want 1 and 0", st.AcksSent, cachedReplies(h.server))
	}
}

// TestAckNeverDelaysRequest: under a modeled flush cost an ack promoted by
// an Enqueue is not ready before that request is, a deadline pump in between
// sends nothing, and both leave in one frame when the flush completes.
func TestAckNeverDelaysRequest(t *testing.T) {
	const cost = 15 * time.Millisecond
	h := newHarness(t, ClientConfig{Log: stable.NewMemLog(stable.Options{FlushCost: cost})}, ServerConfig{ServerID: "srv"})
	h.server.Register("echo", echoHandler)
	h.connect()
	if _, err := h.client.Enqueue("echo", nil, PriorityNormal, h.now); err != nil {
		t.Fatal(err)
	}
	h.now = h.now.Add(cost)
	h.flush() // request 1 leaves, is answered; its ack waits
	t0 := h.now
	if _, err := h.client.Enqueue("echo", nil, PriorityNormal, h.now); err != nil {
		t.Fatal(err)
	}
	sent := h.cs.sent
	h.now = t0.Add(ackDelay)
	h.flush()
	if h.cs.sent != sent {
		t.Fatal("the ack left before the flush that makes its remove durable completed")
	}
	if at, ok := h.client.NextReadyAt(h.now); !ok || at != t0.Add(cost) {
		t.Fatalf("NextReadyAt = %v, %v, want the request's ready time %v", at, ok, t0.Add(cost))
	}
	h.now = t0.Add(cost)
	h.flush()
	if got := h.cs.sent - sent; got != 1 {
		t.Fatalf("ack and request took %d frames, want 1", got)
	}
	if st := h.client.Stats(); st.AcksSent != 1 || st.AckFlushes != 0 {
		t.Fatalf("AcksSent=%d AckFlushes=%d, want 1 and 0", st.AcksSent, st.AckFlushes)
	}
}

// TestAckDuplicateReplyGated: a duplicate of a reply whose remove is still
// only staged must not be re-acked ahead of it.
func TestAckDuplicateReplyGated(t *testing.T) {
	h := newHarness(t, ClientConfig{}, ServerConfig{ServerID: "srv"})
	h.server.Register("echo", echoHandler)
	h.connect()
	if _, err := h.client.Enqueue("echo", nil, PriorityNormal, h.now); err != nil {
		t.Fatal(err)
	}
	h.settle()
	dup := wire.Frame{Type: wire.FrameReply, Payload: wire.Marshal(&Reply{Seq: 1, Status: StatusOK})}
	h.client.OnFrame(dup, h.now)
	if _, err := h.client.Enqueue("echo", nil, PriorityNormal, h.now); err != nil {
		t.Fatal(err)
	}
	h.settle()
	if st := h.client.Stats(); st.Duplicates != 1 || st.AcksSent != 1 {
		t.Fatalf("Duplicates=%d AcksSent=%d, want 1 and 1 (seq 1 acked once)", st.Duplicates, st.AcksSent)
	}
}

// blockLog is a log whose durable waits (Commit, Remove) park until gate is
// closed, announcing each on entered.
type blockLog struct {
	*stable.MemLog
	entered chan string
	gate    chan struct{}
}

func (l *blockLog) Commit() error {
	l.entered <- "commit"
	<-l.gate
	return l.MemLog.Commit()
}

func (l *blockLog) Remove(id uint64) error {
	l.entered <- "remove"
	<-l.gate
	return l.MemLog.Remove(id)
}

// TestAckFlushReleasesLock: neither the ack flush's Commit nor Cancel's
// durable Remove holds the engine lock — an Enqueue and a Status issued while
// the log is parked inside one must return.
func TestAckFlushReleasesLock(t *testing.T) {
	for _, op := range []string{"commit", "remove"} {
		t.Run(op, func(t *testing.T) {
			log := &blockLog{MemLog: stable.NewMemLog(stable.Options{}), entered: make(chan string), gate: make(chan struct{})}
			h := newHarness(t, ClientConfig{Log: log}, ServerConfig{ServerID: "srv"})
			h.server.Register("echo", echoHandler)
			blocked := make(chan struct{})
			if op == "commit" {
				h.connect()
				if _, err := h.client.Enqueue("echo", nil, PriorityNormal, h.now); err != nil {
					t.Fatal(err)
				}
				h.settle() // the reply's remove is staged
				go func() { defer close(blocked); h.client.Pump(h.now) }()
			} else {
				p, err := h.client.Enqueue("echo", nil, PriorityNormal, h.now)
				if err != nil {
					t.Fatal(err)
				}
				go func() {
					defer close(blocked)
					if !h.client.Cancel(p.Seq()) {
						t.Error("Cancel of an unsent request failed")
					}
				}()
			}
			select {
			case got := <-log.entered:
				if got != op {
					t.Fatalf("log parked in %q, want %q", got, op)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("the log was never asked to %s", op)
			}
			free := make(chan error, 1)
			go func() {
				_ = h.client.Status()
				_, err := h.client.Enqueue("echo", nil, PriorityNormal, h.now)
				free <- err
			}()
			select {
			case err := <-free:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("Enqueue stalled behind the log's %s: the engine lock is held across a flush", op)
			}
			close(log.gate)
			<-blocked
		})
	}
}

// errCrashed is what a cutLog returns once its crash point has passed.
var errCrashed = errors.New("cutlog: crashed")

// cutLog wraps a FileLog and notes, after every write and every commit, how
// long the file is and how much of it a crash could no longer take away, so
// a test can replay a run up to any boundary and reopen a copy cut anywhere
// between "everything since the last flush lost" and "all of it kept". It
// also follows each request record to its remove record, which is what the
// wire gate is stated in terms of.
type cutLog struct {
	*stable.FileLog
	path string

	mu      sync.Mutex
	sizes   []int64 // sizes[i]: file length after op i (op 0 is the open)
	durable []int   // durable[i]: the last op a crash right after op i surely keeps
	crashAt int     // the world stops after this op (0: never)
	crashed bool

	seqOf     map[uint64]uint64 // log id -> request seq
	removedAt map[uint64]int    // request seq -> op that wrote its remove record
}

func openCutLog(t *testing.T, path string, crashAt int) *cutLog {
	t.Helper()
	// NoSync: durability here is a matter of which call returned, not of
	// what the page cache did.
	fl, err := stable.OpenFileLog(path, stable.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	l := &cutLog{FileLog: fl, path: path, crashAt: crashAt, seqOf: map[uint64]uint64{}, removedAt: map[uint64]int{}}
	l.sizes, l.durable = []int64{l.size()}, []int{0}
	_ = fl.Replay(func(id uint64, rec []byte) error { l.note(id, rec); return nil })
	t.Cleanup(func() { fl.Close() })
	return l
}

func (l *cutLog) size() int64 {
	fi, err := os.Stat(l.path)
	if err != nil {
		panic(err)
	}
	return fi.Size()
}

func (l *cutLog) note(id uint64, rec []byte) {
	if req, _, isMeta, err := decodeRecord(rec); err == nil && !isMeta {
		l.seqOf[id] = req.Seq
	}
}

// op runs one log call and records the boundary behind it; waited says the
// call returns only once everything written so far is durable.
func (l *cutLog) op(waited bool, fn func() error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed {
		return errCrashed
	}
	if err := fn(); err != nil {
		return err
	}
	l.sizes = append(l.sizes, l.size())
	d := l.durable[len(l.durable)-1]
	if waited {
		d = len(l.sizes) - 1
	}
	l.durable = append(l.durable, d)
	l.crashed = len(l.sizes)-1 == l.crashAt
	return nil
}

func (l *cutLog) appendRec(waited bool, rec []byte, fn func([]byte) (uint64, error)) (id uint64, err error) {
	err = l.op(waited, func() error {
		if id, err = fn(rec); err == nil {
			l.note(id, rec)
		}
		return err
	})
	return id, err
}

func (l *cutLog) removeRec(waited bool, id uint64, fn func(uint64) error) error {
	return l.op(waited, func() error {
		err := fn(id)
		if seq, ok := l.seqOf[id]; ok && err == nil {
			l.removedAt[seq] = len(l.sizes)
		}
		return err
	})
}

func (l *cutLog) Append(rec []byte) (uint64, error) { return l.appendRec(true, rec, l.FileLog.Append) }
func (l *cutLog) AppendNoSync(rec []byte) (uint64, error) {
	return l.appendRec(false, rec, l.FileLog.AppendNoSync)
}
func (l *cutLog) Remove(id uint64) error       { return l.removeRec(true, id, l.FileLog.Remove) }
func (l *cutLog) RemoveNoSync(id uint64) error { return l.removeRec(false, id, l.FileLog.RemoveNoSync) }
func (l *cutLog) RemoveBatch(ids []uint64) error {
	return l.op(true, func() error { return l.FileLog.RemoveBatch(ids) })
}
func (l *cutLog) Commit() error { return l.op(true, l.FileLog.Commit) }

func (l *cutLog) hasCrashed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.crashed
}

// ops is how many calls have been recorded.
func (l *cutLog) ops() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sizes) - 1
}

// cut copies the first sizes[j] bytes of the file to a new path: what the
// disk holds if the crash kept exactly the ops up to j.
func (l *cutLog) cut(t *testing.T, j int, to string) {
	t.Helper()
	src, err := os.Open(l.path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := os.Create(to)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.CopyN(dst, src, l.sizes[j]); err != nil {
		t.Fatal(err)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
}

// gate is the tentpole's invariant as a wire tap: no Ack seq and no
// Hello.LowSeq may tell the server a request is complete while a crash could
// still bring that request's log record back.
func (l *cutLog) gate(t *testing.T) func(wire.Frame) {
	gone := func(seq uint64) bool {
		at, removed := l.removedAt[seq]
		return removed && at <= l.durable[len(l.durable)-1]
	}
	var check func(f wire.Frame)
	check = func(f wire.Frame) {
		l.mu.Lock()
		defer l.mu.Unlock()
		switch f.Type {
		case wire.FrameAck:
			var a Ack
			if err := wire.Unmarshal(f.Payload, &a); err != nil {
				t.Errorf("ack on the wire does not decode: %v", err)
			}
			for _, seq := range a.Seqs {
				if !gone(seq) {
					t.Errorf("op %d: Ack for seq %d is on the wire before its remove record is durable", len(l.sizes)-1, seq)
				}
			}
		case wire.FrameHello:
			var h Hello
			if err := wire.Unmarshal(f.Payload, &h); err != nil {
				t.Errorf("hello on the wire does not decode: %v", err)
			}
			for _, seq := range l.seqOf {
				if seq < h.LowSeq && !gone(seq) {
					t.Errorf("op %d: Hello.LowSeq %d is past seq %d, whose remove record is not durable", len(l.sizes)-1, h.LowSeq, seq)
				}
			}
		}
	}
	return func(f wire.Frame) {
		if f.Type != wire.FrameBatch {
			check(f)
			return
		}
		subs, err := wire.UnbatchFrames(f.Payload)
		if err != nil {
			t.Errorf("batch on the wire does not decode: %v", err)
		}
		for _, sf := range subs {
			check(sf)
		}
	}
}

// crashRun is one client lifetime of the crash-point scenario against a
// server that outlives it.
type crashRun struct {
	t    *testing.T
	h    *harness
	log  *cutLog
	done map[string]int // completions by payload, counted while the client is alive
	seqs map[string]uint64
	held []*Promise
}

func newCrashRun(t *testing.T, srv *Server, log *cutLog, now vtime.Time, done map[string]int) *crashRun {
	r := &crashRun{t: t, log: log, done: done, seqs: map[string]uint64{}}
	c, err := NewClient(ClientConfig{ClientID: "laptop", Log: log, OnRecovered: func(req Request, p *Promise) {
		r.track(string(req.Args), p)
	}})
	if err != nil {
		t.Fatal(err)
	}
	r.h = &harness{t: t, client: c, server: srv, now: now}
	r.h.cs = &harnessSender{up: &r.h.up, tap: log.gate(t)}
	r.h.sc = &harnessSender{up: &r.h.up}
	return r
}

func (r *crashRun) track(payload string, p *Promise) {
	r.held = append(r.held, p)
	r.seqs[payload] = p.Seq()
	p.OnComplete(func(*Promise) {
		if !r.log.hasCrashed() {
			r.done[payload]++
		}
	})
}

// enqueue queues one request; after the crash point nothing reaches the log
// and the error is the expected outcome.
func (r *crashRun) enqueue(payload string) *Promise {
	p, err := r.h.client.Enqueue("echo", []byte(payload), PriorityNormal, r.h.now)
	if err != nil {
		if !errors.Is(err, errCrashed) {
			r.t.Fatalf("Enqueue(%s): %v", payload, err)
		}
		return nil
	}
	r.track(payload, p)
	return p
}

// settle delivers frames; once the client has crashed nothing more leaves it.
func (r *crashRun) settle() {
	r.h.cs.refuse = r.log.hasCrashed()
	r.h.settle()
	r.h.cs.refuse = r.log.hasCrashed()
}

func (r *crashRun) call(payload string) {
	r.enqueue(payload)
	r.settle()
}

const crashPointRequests = 8

// scenario is the closed loop whose every log boundary is a crash point:
// lone replies whose acks ride the next request, a disconnected burst with a
// Cancel in it, a reconnect (Hello.LowSeq, then a batch of replies flushed
// at its end), more lone replies, and a deadline flush. It reports whether
// the Cancel completed.
func (r *crashRun) scenario() (cancelled bool) {
	h := r.h
	h.connect()
	r.call("req-0")
	r.call("req-1")
	r.call("req-2")
	h.disconnect()
	r.enqueue("req-3")
	r.enqueue("req-4")
	if p := r.enqueue("cancel-me"); p != nil {
		cancelled = h.client.Cancel(p.Seq()) && !r.log.hasCrashed()
	}
	r.enqueue("req-5")
	r.h.cs.refuse = r.log.hasCrashed()
	h.connect()
	r.settle()
	r.call("req-6")
	r.call("req-7")
	if at, ok := h.client.NextReadyAt(h.now); ok {
		h.now = at
	}
	h.client.Pump(h.now)
	r.settle()
	return cancelled
}

// TestCrashPointsEnumerated replays the scenario once per log boundary,
// stopping the client there, and once more per way the crash can cut the
// unflushed tail; a second client then recovers from the cut log against the
// same server. Whatever the cut: every request executes exactly once and
// completes for some holder of its promise — except when the crash struck
// while the reply was being consumed (the remove record written, the promise
// not yet completed), the one window where the reply dies with the process;
// every promise that survives completes, a Cancel that returned stays
// cancelled, the gate held on every frame of both lifetimes, and the server
// ends up with nothing cached.
func TestCrashPointsEnumerated(t *testing.T) {
	dir := t.TempDir()
	run := func(name string, crashAt, keep int) (ops int) {
		execs := map[string]int{}
		srv := NewServer(ServerConfig{ServerID: "srv"})
		srv.Register("echo", func(_ string, req Request) ([]byte, error) {
			execs[string(req.Args)]++
			return req.Args, nil
		})
		done := map[string]int{}
		log := openCutLog(t, filepath.Join(dir, name+".log"), crashAt)
		first := newCrashRun(t, srv, log, 0, done)
		cancelled := first.scenario()
		if crashAt == 0 {
			if log.hasCrashed() || cachedReplies(srv) != 0 {
				t.Fatalf("uncrashed run: crashed=%v cached=%d", log.hasCrashed(), cachedReplies(srv))
			}
		} else {
			if !log.hasCrashed() {
				t.Fatalf("%s: the run never reached op %d", name, crashAt)
			}
			if keep < log.durable[crashAt] || keep > crashAt {
				t.Fatalf("%s: cut %d outside [%d, %d]", name, keep, log.durable[crashAt], crashAt)
			}
			srv.OnDisconnect(first.h.sc, first.h.now)
			cutPath := filepath.Join(dir, name+".cut")
			log.cut(t, keep, cutPath)
			second := newCrashRun(t, srv, openCutLog(t, cutPath, 0), first.h.now, done)
			second.h.connect()
			second.settle()
			for i := 0; i < crashPointRequests; i++ {
				if p := fmt.Sprintf("req-%d", i); done[p] == 0 && execs[p] == 0 {
					second.call(p)
				}
			}
			if at, ok := second.h.client.NextReadyAt(second.h.now); ok {
				second.h.now = at
			}
			second.h.flush()
			for _, p := range second.held {
				if !p.Ready() {
					t.Errorf("%s: recovered seq %d never completed", name, p.Seq())
				}
			}
			if n := second.h.client.Pending(); n != 0 {
				t.Errorf("%s: %d requests still pending after recovery", name, n)
			}
		}
		for i := 0; i < crashPointRequests; i++ {
			p := fmt.Sprintf("req-%d", i)
			diedConsuming := crashAt != 0 && log.removedAt[first.seqs[p]] == crashAt
			if execs[p] != 1 || (done[p] < 1 && !diedConsuming) {
				t.Errorf("%s: %s executed %d times, completed %d times, want 1 and at least 1", name, p, execs[p], done[p])
			}
		}
		if n := execs["cancel-me"]; n > 1 || (cancelled && n != 0) {
			t.Errorf("%s: cancelled=%v but the request executed %d times", name, cancelled, n)
		}
		if n := cachedReplies(srv); n != 0 {
			t.Errorf("%s: server still caches %d replies: some reply was never acknowledged", name, n)
		}
		return log.ops()
	}

	total := run("whole", 0, 0)
	if total < 2*crashPointRequests {
		t.Fatalf("the scenario made only %d log calls", total)
	}
	probe := openCutLog(t, filepath.Join(dir, "probe.log"), 0)
	pr := newCrashRun(t, NewServer(ServerConfig{}), probe, 0, map[string]int{})
	pr.h.server.Register("echo", echoHandler)
	pr.scenario()
	cuts := 0
	for k := 1; k <= total; k++ {
		for j := probe.durable[k]; j <= k; j++ {
			run(fmt.Sprintf("crash%d-keep%d", k, j), k, j)
			cuts++
		}
	}
	if cuts <= total {
		t.Fatalf("%d cuts over %d crash points: no crash point had an unflushed tail to lose", cuts, total)
	}
}

// TestAckJournalRecordsAreStaged: the server's half. N closed-loop requests
// on one journaled session cost about N journal flushes, not 2N — ack and
// prune records ride the next exec record's flush — and a crash that loses
// the staged ack records recovers a fatter reply cache that gives the same
// answers: no handler runs again.
func TestAckJournalRecordsAreStaged(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal")
	journal, err := stable.OpenFileLog(jpath, stable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	execs := 0
	echo := func(_ string, req Request) ([]byte, error) { execs++; return req.Args, nil }
	h := newHarness(t, ClientConfig{}, ServerConfig{ServerID: "srv", Journals: []stable.Log{journal}})
	h.server.Register("echo", echo)
	h.connect()
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := h.client.Enqueue("echo", []byte{byte(i)}, PriorityNormal, h.now); err != nil {
			t.Fatal(err)
		}
		h.settle()
	}
	h.flushAtDeadline()
	st := journal.Stats()
	if st.Syncs > n+2 {
		t.Fatalf("%d closed-loop requests cost %d journal flushes, want at most %d", n, st.Syncs, n+2)
	}
	if got := h.server.Stats().JournalRecords; got < 2*n {
		t.Fatalf("journal holds %d records, want an exec and an ack per request (%d)", got, 2*n)
	}

	// The journal as a crash leaves it when every staged record is lost:
	// cut behind the last exec record. (Records are self-delimiting, so walk
	// a copy back one record at a time until the ack tail is gone.)
	whole, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	recover := func(name string, image []byte) *Server {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, image, 0o600); err != nil {
			t.Fatal(err)
		}
		fl, err := stable.OpenFileLog(p, stable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fl.Close() })
		srv := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{fl}})
		if err := srv.JournalError(); err != nil {
			t.Fatal(err)
		}
		srv.Register("echo", echo)
		return srv
	}
	full := recover("full", whole)
	var lost *Server
	for cut := len(whole) - 1; cut > 0; cut-- {
		p := filepath.Join(dir, "probe")
		if err := os.WriteFile(p, whole[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		fl, err := stable.OpenFileLog(p, stable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		torn := fl.TornTail() != nil
		fl.Close()
		if !torn { // a record boundary: the final ack record is gone
			lost = recover("lost", whole[:cut])
			break
		}
	}
	if lost == nil {
		t.Fatal("found no record boundary to cut the journal at")
	}
	if a, b := cachedReplies(full), cachedReplies(lost); b <= a {
		t.Fatalf("recovered caches hold %d (whole journal) and %d (ack tail lost) replies; losing acks must leave more", a, b)
	}
	// Redeliver everything to both: cached replies replay, the rest is
	// dropped as complete, and nothing executes.
	for _, srv := range []*Server{full, lost} {
		up := true
		snd := &harnessSender{up: &up}
		srv.OnConnect(snd, 0)
		srv.OnFrame(snd, helloFrame("client-1", 1), 0)
		for seq := uint64(1); seq <= n; seq++ {
			srv.OnFrame(snd, requestFrame(seq, "echo", []byte{byte(seq - 1)}), 0)
		}
		for _, rep := range drainReplies(t, snd) {
			if rep.Status != StatusOK || len(rep.Result) != 1 || rep.Result[0] != byte(rep.Seq-1) {
				t.Errorf("replayed reply for seq %d = %+v, not the original", rep.Seq, rep)
			}
		}
	}
	if execs != n {
		t.Fatalf("handler ran %d times for %d requests: a recovered server re-executed", execs, n)
	}
}

// TestLowSeqWaitsForStagedRemove: a Hello built while a remove is only
// staged must not advertise past it; OnConnect commits first, so the Hello
// it sends may.
func TestLowSeqWaitsForStagedRemove(t *testing.T) {
	log := openCutLog(t, filepath.Join(t.TempDir(), "client.log"), 0)
	h := newHarness(t, ClientConfig{Log: log}, ServerConfig{ServerID: "srv"})
	h.cs.tap = log.gate(t)
	h.server.Register("echo", echoHandler)
	h.connect()
	if _, err := h.client.Enqueue("echo", nil, PriorityNormal, h.now); err != nil {
		t.Fatal(err)
	}
	h.settle()
	lowSeq := func(f wire.Frame) uint64 {
		var hello Hello
		if err := wire.Unmarshal(f.Payload, &hello); err != nil {
			t.Fatal(err)
		}
		return hello.LowSeq
	}
	if got := lowSeq(h.client.Hello()); got != 1 {
		t.Fatalf("Hello.LowSeq = %d with seq 1's remove only staged, want 1", got)
	}
	h.disconnect()
	var onWire uint64
	gate := h.cs.tap
	h.cs.tap = func(f wire.Frame) {
		gate(f)
		if f.Type == wire.FrameHello {
			onWire = lowSeq(f)
		}
	}
	h.connect()
	if onWire != 2 {
		t.Fatalf("reconnect Hello.LowSeq = %d, want 2: OnConnect commits the staged remove first", onWire)
	}
	if st := h.client.Stats(); st.AcksSent != 1 {
		t.Fatalf("AcksSent = %d after the reconnect flush, want 1", st.AcksSent)
	}
}

// TestStagedRemoveFailureIsNeverAcked: when the staged remove itself fails
// the record is still in the log, so the seq is neither acknowledged nor
// stepped over by LowSeq; the next incarnation replays it and tries again.
func TestStagedRemoveFailureIsNeverAcked(t *testing.T) {
	log := &failRemoveLog{MemLog: stable.NewMemLog(stable.Options{})}
	h := newHarness(t, ClientConfig{Log: log}, ServerConfig{ServerID: "srv"})
	h.server.Register("echo", echoHandler)
	h.connect()
	log.fail = true
	p, err := h.client.Enqueue("echo", nil, PriorityNormal, h.now)
	if err != nil {
		t.Fatal(err)
	}
	h.settle()
	if !p.Ready() {
		t.Fatal("the promise must complete even though the remove failed")
	}
	log.fail = false
	if _, err := h.client.Enqueue("echo", nil, PriorityNormal, h.now); err != nil {
		t.Fatal(err)
	}
	h.settle()
	h.flushAtDeadline()
	var hello Hello
	if err := wire.Unmarshal(h.client.Hello().Payload, &hello); err != nil {
		t.Fatal(err)
	}
	if st := h.client.Stats(); st.AcksSent != 1 || hello.LowSeq != 1 {
		t.Fatalf("AcksSent=%d LowSeq=%d, want 1 (seq 2 only) and 1", st.AcksSent, hello.LowSeq)
	}
	if log.Len() != 2 { // the meta record and seq 1's request
		t.Fatalf("log holds %d records, want seq 1's request still there", log.Len())
	}
}

// TestAckCommitFailureIsNeverAcked: when the flush behind a flush point
// fails, whether the staged removes took is unknown; their seqs are dropped
// from the ack path for good (no retry loop), and LowSeq stays below them.
func TestAckCommitFailureIsNeverAcked(t *testing.T) {
	log := &failRemoveLog{MemLog: stable.NewMemLog(stable.Options{})}
	h := newHarness(t, ClientConfig{Log: log}, ServerConfig{ServerID: "srv"})
	h.server.Register("echo", echoHandler)
	h.connect()
	if _, err := h.client.Enqueue("echo", nil, PriorityNormal, h.now); err != nil {
		t.Fatal(err)
	}
	h.settle()
	log.failCommit = true
	h.flushAtDeadline()
	var hello Hello
	if err := wire.Unmarshal(h.client.Hello().Payload, &hello); err != nil {
		t.Fatal(err)
	}
	if st := h.client.Stats(); st.AcksSent != 0 || hello.LowSeq != 1 {
		t.Fatalf("AcksSent=%d LowSeq=%d after a failed flush, want 0 and 1", st.AcksSent, hello.LowSeq)
	}
	if at, ok := h.client.NextReadyAt(h.now); ok {
		t.Fatalf("NextReadyAt = %v after a failed flush: nothing is left to retry", at)
	}
}

type failRemoveLog struct {
	*stable.MemLog
	fail, failCommit bool
}

func (l *failRemoveLog) Commit() error {
	if l.failCommit {
		return &stable.PoisonedError{Cause: errors.New("disk gone")}
	}
	return l.MemLog.Commit()
}

func (l *failRemoveLog) RemoveNoSync(id uint64) error {
	if l.fail {
		return errors.New("disk says no")
	}
	return l.MemLog.RemoveNoSync(id)
}
