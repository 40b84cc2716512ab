package transport

import (
	"testing"
	"time"

	"rover/internal/netsim"
	"rover/internal/qrpc"
	"rover/internal/stable"
	"rover/internal/vtime"
)

func cachedReplies(s *qrpc.Server) int {
	n := 0
	for _, sess := range s.Sessions() {
		n += sess.CachedReplies
	}
	return n
}

// loneThenLoop is the shape every connected transport must give the lazy
// ack: one request followed by silence has its ack flushed alone at the
// deadline (nobody kicks), and in a closed loop after that every ack rides
// the next request.
func loneThenLoop(t *testing.T, c *qrpc.Client, s *qrpc.Server, kick func()) {
	t.Helper()
	pr, err := c.Enqueue("echo", []byte("lone"), qrpc.PriorityNormal, 0)
	if err != nil {
		t.Fatal(err)
	}
	kick()
	waitResult(t, pr)
	waitUntil(t, 5*time.Second, "the lone ack to be flushed at its deadline", func() bool {
		return c.Stats().AcksSent == 1 && cachedReplies(s) == 0
	})
	if st := c.Stats(); st.AckFlushes != 1 {
		t.Fatalf("AckFlushes = %d for one request followed by silence, want 1", st.AckFlushes)
	}
	const n = 20
	for i := 0; i < n; i++ {
		pr, err := c.Enqueue("echo", []byte{byte(i)}, qrpc.PriorityNormal, 0)
		if err != nil {
			t.Fatal(err)
		}
		kick()
		waitResult(t, pr)
	}
	waitUntil(t, 5*time.Second, "every reply to be acknowledged", func() bool {
		return c.Stats().AcksSent == n+1 && cachedReplies(s) == 0
	})
}

func TestTCPAckFlushedAtDeadline(t *testing.T) {
	c, s := newEngines(t, stable.Options{})
	srv, err := ListenTCP("127.0.0.1:0", s, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := DialTCP(srv.Addr(), c, nil, TCPClientOptions{})
	defer cli.Close()
	loneThenLoop(t, c, s, cli.Kick)
}

func TestPipeAckFlushedAtDeadline(t *testing.T) {
	c, s := newEngines(t, stable.Options{})
	p := NewPipe(c, s, nil)
	defer p.Close()
	p.SetConnected(true)
	loneThenLoop(t, c, s, p.Kick)
}

// TestTCPCloseFlushesAcks: a deliberate Close must not strand the acks that
// were still waiting for a request to ride.
func TestTCPCloseFlushesAcks(t *testing.T) {
	c, s := newEngines(t, stable.Options{})
	srv, err := ListenTCP("127.0.0.1:0", s, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := DialTCP(srv.Addr(), c, nil, TCPClientOptions{})
	pr, err := c.Enqueue("echo", nil, qrpc.PriorityNormal, 0)
	if err != nil {
		t.Fatal(err)
	}
	cli.Kick()
	waitResult(t, pr)
	cli.Close()
	waitUntil(t, 5*time.Second, "the ack sent by Close to arrive", func() bool { return cachedReplies(s) == 0 })
}

// TestSimAckDeadlineInVirtualTime: the simulator needs no scheduling of its
// own for lazy acks — NextReadyAt names the deadline, in virtual time. A
// closed loop of requests issued on completion piggybacks every ack but the
// last, which leaves alone exactly one deadline after its reply.
func TestSimAckDeadlineInVirtualTime(t *testing.T) {
	sched := vtime.NewScheduler()
	c, s := newEngines(t, stable.Options{})
	link := NewSim(sched, netsim.Ethernet10, 1, c, s)
	const n = 5
	var lastReply vtime.Time
	var issue func(i int)
	issue = func(i int) {
		pr, err := c.Enqueue("echo", []byte{byte(i)}, qrpc.PriorityNormal, sched.Now())
		if err != nil {
			t.Errorf("enqueue: %v", err)
			return
		}
		link.Kick()
		pr.OnComplete(func(*qrpc.Promise) {
			lastReply = sched.Now()
			if i+1 < n {
				issue(i + 1)
			}
		})
	}
	sched.At(0, func() { issue(0) })
	if _, drained := sched.Run(100000); !drained {
		t.Fatal("scheduler did not drain: the ack deadline keeps rescheduling")
	}
	st := c.Stats()
	if st.AcksSent != n || st.AckFlushes != 1 || cachedReplies(s) != 0 {
		t.Fatalf("AcksSent=%d AckFlushes=%d cached=%d, want %d, 1, 0", st.AcksSent, st.AckFlushes, cachedReplies(s), n)
	}
	// The run ends with the lone ack's delivery: one deadline after the
	// last reply, plus the frame's flight.
	if tail := sched.Now().Sub(lastReply); tail < time.Millisecond || tail > 5*time.Millisecond {
		t.Fatalf("the last ack landed %v after its reply, want about one 1ms deadline", tail)
	}
}

// TestMailFlushCarriesAcks: mail is never connected, so nothing fires at a
// deadline; the next Flush is the flush point.
func TestMailFlushCarriesAcks(t *testing.T) {
	c, s := newEngines(t, stable.Options{})
	spool := NewSpool(0)
	mc := NewMailClient(spool, "c1@mobile", "rover@srv", c, nil)
	ms := NewMailServer(spool, "rover@srv", s)
	pr, err := c.Enqueue("echo", nil, qrpc.PriorityNormal, 0)
	if err != nil {
		t.Fatal(err)
	}
	mc.Flush(0)
	ms.Poll(0)
	mc.Poll(0)
	if !pr.Ready() {
		t.Fatal("mail round trip did not complete")
	}
	if _, ok := c.NextReadyAt(0); ok {
		t.Fatal("a disconnected client asked for a deadline pump")
	}
	if cachedReplies(s) != 1 || c.Stats().AcksSent != 0 {
		t.Fatalf("cached=%d AcksSent=%d before the next flush, want 1 and 0", cachedReplies(s), c.Stats().AcksSent)
	}
	if n := mc.Flush(0); n != 1 {
		t.Fatalf("Flush with only an ack to say sent %d envelopes, want 1", n)
	}
	ms.Poll(0)
	if cachedReplies(s) != 0 || c.Stats().AcksSent != 1 {
		t.Fatalf("cached=%d AcksSent=%d after the flush, want 0 and 1", cachedReplies(s), c.Stats().AcksSent)
	}
}
