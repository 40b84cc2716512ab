package qrpc

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rover/internal/stable"
	"rover/internal/wire"
)

// syncSender is a harness sender for tests that deliver from several
// goroutines: it keeps every frame it is handed, under a lock.
type syncSender struct {
	mu     sync.Mutex
	frames []wire.Frame
}

func (s *syncSender) SendFrame(f wire.Frame) bool {
	s.mu.Lock()
	s.frames = append(s.frames, f)
	s.mu.Unlock()
	return true
}

// connect registers a sender with srv and says Hello as clientID.
func connect(srv *Server, clientID string) *syncSender {
	snd := &syncSender{}
	srv.OnConnect(snd, 0)
	srv.OnFrame(snd, helloFrame(clientID, 1), 0)
	return snd
}

// A connection's requests run in the order they arrive, across frames of
// one request and batch frames alike, and the replies to one frame's run
// go back as one frame: a batch for several.
func TestFrameRunsKeepConnectionFIFO(t *testing.T) {
	srv := NewServer(ServerConfig{ServerID: "srv"})
	defer srv.Close()
	var order []uint64
	srv.Register("echo", func(_ string, req Request) ([]byte, error) {
		order = append(order, req.Seq)
		return req.Args, nil
	})
	up := true
	snd := &harnessSender{up: &up}
	srv.OnConnect(snd, 0)
	srv.OnFrame(snd, helloFrame("c", 1), 0)
	snd.queue = nil

	const last = 200
	for seq := uint64(1); seq <= last; {
		if seq%3 == 0 {
			srv.OnFrame(snd, requestFrame(seq, "echo", nil), 0)
			seq++
			continue
		}
		end := min(seq+20, last)
		srv.OnFrame(snd, requestBatch(seq, end, "echo"), 0)
		if n := len(snd.queue); n != 1 || snd.queue[0].Type != wire.FrameBatch {
			t.Fatalf("a run of %d answered with %d frames, want one batch", end-seq+1, n)
		}
		if reps := drainReplies(t, snd); len(reps) != int(end-seq+1) {
			t.Fatalf("a run of %d answered %d", end-seq+1, len(reps))
		}
		seq = end + 1
	}
	for i, seq := range order {
		if seq != uint64(i+1) {
			t.Fatalf("request %d ran at position %d", seq, i+1)
		}
	}
	if len(order) != last {
		t.Fatalf("executed %d of %d", len(order), last)
	}
}

// Two transports of one session — a reconnecting client's old and new
// connection — that deliver at the same time never run the session's
// handlers at the same time, and every request runs once.
func TestSessionRunsNeverOverlap(t *testing.T) {
	srv := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{stable.NewMemLog(stable.Options{})}})
	defer srv.Close()
	var running, overlaps atomic.Int32
	var mu sync.Mutex
	execs := map[uint64]int{}
	srv.Register("echo", func(_ string, req Request) ([]byte, error) {
		if running.Add(1) > 1 {
			overlaps.Add(1)
		}
		time.Sleep(10 * time.Microsecond)
		mu.Lock()
		execs[req.Seq]++
		mu.Unlock()
		running.Add(-1)
		return req.Args, nil
	})
	const perConn, batch = 400, 8
	var wg sync.WaitGroup
	for c := uint64(0); c < 2; c++ {
		snd := connect(srv, "c")
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Connection c delivers the seqs that are c mod 2, batch by batch.
			for i := uint64(0); i < perConn; i += batch {
				var subs []wire.Frame
				for j := i; j < i+batch; j++ {
					subs = append(subs, requestFrame(2*j+c+1, "echo", nil))
				}
				srv.OnFrame(snd, wire.BatchFrames(subs), 0)
			}
		}()
	}
	wg.Wait()
	if n := overlaps.Load(); n != 0 {
		t.Fatalf("the session's handlers overlapped %d times", n)
	}
	if len(execs) != 2*perConn {
		t.Fatalf("executed %d distinct requests, want %d", len(execs), 2*perConn)
	}
	for seq, n := range execs {
		if n != 1 {
			t.Fatalf("seq %d ran %d times", seq, n)
		}
	}
}

// Close waits for a run in flight — its reply is released before Close
// returns — and a frame that arrives after Close runs no handler.
func TestCloseWaitsForRunInFlight(t *testing.T) {
	srv := NewServer(ServerConfig{ServerID: "srv"})
	entered, release := make(chan struct{}), make(chan struct{})
	var execs atomic.Int32
	srv.Register("echo", func(_ string, req Request) ([]byte, error) {
		if execs.Add(1) == 1 {
			close(entered)
			<-release
		}
		return req.Args, nil
	})
	snd := connect(srv, "c")
	go srv.OnFrame(snd, requestFrame(1, "echo", []byte("a")), 0)
	<-entered
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a run was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-closed
	snd.mu.Lock()
	n := len(snd.frames)
	snd.mu.Unlock()
	if n != 2 { // the Welcome, then the reply
		t.Fatalf("%d frames sent by the time Close returned, want the Welcome and the reply", n)
	}

	srv.OnFrame(snd, requestFrame(2, "echo", nil), 0)
	if got := execs.Load(); got != 1 {
		t.Fatalf("a request that arrived after Close ran: %d executions", got)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if marks := srv.sessions["c"].executing; len(marks) != 0 {
		t.Fatalf("dispatch marks left behind: %v", marks)
	}
}

// A reply whose seq was acknowledged while its request ran — the client got
// it over another connection, or the ack rode the same frame — is not
// cached: nothing would ever release it, and it would ride every journal
// snapshot from then on.
func TestReplyAckedWhileRunningIsNotCached(t *testing.T) {
	journal := stable.NewMemLog(stable.Options{})
	srv := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{journal}})
	defer srv.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	srv.Register("echo", func(_ string, req Request) ([]byte, error) {
		if req.Seq == 1 {
			close(entered)
			<-release
		}
		return req.Args, nil
	})
	a, b := connect(srv, "c"), connect(srv, "c")
	done := make(chan struct{})
	go func() {
		srv.OnFrame(a, requestFrame(1, "echo", nil), 0)
		close(done)
	}()
	<-entered
	srv.OnFrame(b, ackFrame(1), 0)
	close(release)
	<-done
	if n := cachedReplies(srv); n != 0 {
		t.Fatalf("%d replies cached after their ack", n)
	}

	// The same window inside one frame: a run executes after the frame's
	// acks are taken in.
	srv.OnFrame(a, wire.BatchFrames([]wire.Frame{requestFrame(2, "echo", nil), ackFrame(2)}), 0)
	if n := cachedReplies(srv); n != 0 {
		t.Fatalf("%d replies cached after their ack", n)
	}
	if info := srv.Sessions()[0]; info.MaxExecuted != 2 || info.LowSeq != 3 {
		t.Fatalf("session high-water %d, floor %d; want 2 and 3", info.MaxExecuted, info.LowSeq)
	}
	srv2 := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{journal}})
	defer srv2.Close()
	if st := srv2.Stats(); st.RecoveredReplies != 0 {
		t.Fatalf("recovered %d replies, want none", st.RecoveredReplies)
	}
}

// The session budget is checked as each request is dispatched, before its
// frame's run executes, so one frame's run may take a session past its
// budget; the next frame's new requests are refused.
func TestSessionBudgetOvershootsByOneFrame(t *testing.T) {
	srv := NewServer(ServerConfig{ServerID: "srv", SessionBudgetBytes: 1})
	defer srv.Close()
	srv.Register("echo", func(_ string, req Request) ([]byte, error) { return req.Args, nil })
	up := true
	snd := &harnessSender{up: &up}
	srv.OnConnect(snd, 0)
	srv.OnFrame(snd, helloFrame("c", 1), 0)
	srv.OnFrame(snd, requestBatch(1, 3, "echo"), 0)
	if reps := drainReplies(t, snd); len(reps) != 3 {
		t.Fatalf("a frame of 3 under budget got %d replies", len(reps))
	}
	srv.OnFrame(snd, requestFrame(4, "echo", nil), 0)
	if reps := drainReplies(t, snd); len(reps) != 0 {
		t.Fatal("a request past the budget ran")
	}
	if st := srv.Stats(); st.BudgetRefused != 1 || st.Executed != 3 {
		t.Fatalf("refused %d, executed %d; want 1 and 3", st.BudgetRefused, st.Executed)
	}
}
