package transport

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"rover/internal/faults"
	"rover/internal/netsim"
	"rover/internal/qrpc"
	"rover/internal/stable"
	"rover/internal/vtime"
	"rover/internal/wire"
)

func newEngines(t *testing.T, logOpts stable.Options) (*qrpc.Client, *qrpc.Server) {
	t.Helper()
	c, err := qrpc.NewClient(qrpc.ClientConfig{
		ClientID: "c1",
		Log:      stable.NewMemLog(logOpts),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := qrpc.NewServer(qrpc.ServerConfig{ServerID: "srv"})
	s.Register("echo", func(_ string, req qrpc.Request) ([]byte, error) {
		return append([]byte("e:"), req.Args...), nil
	})
	return c, s
}

// waitUntil polls cond to true within timeout — deadline-bounded waiting
// instead of fixed sleeps, which flake under load.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitResult(t *testing.T, p *qrpc.Promise) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := p.Wait(ctx)
	if err != nil {
		t.Fatalf("promise: %v", err)
	}
	return res
}

func TestPipeRoundTrip(t *testing.T) {
	c, s := newEngines(t, stable.Options{})
	p := NewPipe(c, s, nil)
	defer p.Close()
	p.SetConnected(true)
	if !p.Connected() {
		t.Fatal("not connected")
	}
	pr, err := c.Enqueue("echo", []byte("hi"), qrpc.PriorityNormal, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Kick()
	if got := waitResult(t, pr); string(got) != "e:hi" {
		t.Errorf("result %q", got)
	}
}

func TestPipeDisconnectedQueueing(t *testing.T) {
	c, s := newEngines(t, stable.Options{})
	p := NewPipe(c, s, nil)
	defer p.Close()
	// Enqueue while down.
	var prs []*qrpc.Promise
	for i := 0; i < 20; i++ {
		pr, err := c.Enqueue("echo", []byte{byte(i)}, qrpc.PriorityNormal, 0)
		if err != nil {
			t.Fatal(err)
		}
		prs = append(prs, pr)
	}
	time.Sleep(10 * time.Millisecond)
	for _, pr := range prs {
		if pr.Ready() {
			t.Fatal("completed while disconnected")
		}
	}
	p.SetConnected(true)
	for i, pr := range prs {
		got := waitResult(t, pr)
		if len(got) != 3 || got[2] != byte(i) {
			t.Errorf("result %d: %q", i, got)
		}
	}
	// Drop and raise the link repeatedly; a new request still completes.
	p.SetConnected(false)
	pr, _ := c.Enqueue("echo", []byte("again"), qrpc.PriorityNormal, 0)
	p.SetConnected(true)
	if got := waitResult(t, pr); string(got) != "e:again" {
		t.Errorf("after flap: %q", got)
	}
}

func TestSimRoundTripTiming(t *testing.T) {
	sched := vtime.NewScheduler()
	c, s := newEngines(t, stable.Options{})
	link := NewSim(sched, netsim.CSLIP14k4, 1, c, s)
	var pr *qrpc.Promise
	var done vtime.Time
	sched.At(0, func() {
		var err error
		pr, err = c.Enqueue("echo", []byte("x"), qrpc.PriorityNormal, sched.Now())
		if err != nil {
			t.Errorf("enqueue: %v", err)
		}
		link.Kick()
		pr.OnComplete(func(*qrpc.Promise) { done = sched.Now() })
	})
	sched.Run(10000)
	if pr == nil || !pr.Ready() {
		t.Fatal("promise not completed in simulation")
	}
	// Round trip over CSLIP14.4 with ~200ms total latency plus hello +
	// request + reply serialization: between 200ms and 1s.
	if d := done.Duration(); d < 200*time.Millisecond || d > time.Second {
		t.Errorf("round trip %v outside expected window", d)
	}
}

func TestSimOutageRedelivery(t *testing.T) {
	sched := vtime.NewScheduler()
	c, s := newEngines(t, stable.Options{})
	link := NewSim(sched, netsim.CSLIP2k4, 1, c, s)
	// Outage covers the whole first transmission attempt.
	link.Duplex().ScheduleOutage(vtime.Time(50*time.Millisecond), 30*time.Second)
	var pr *qrpc.Promise
	sched.At(vtime.Time(10*time.Millisecond), func() {
		pr, _ = c.Enqueue("echo", []byte("z"), qrpc.PriorityNormal, sched.Now())
		link.Kick()
	})
	sched.Run(100000)
	if pr == nil || !pr.Ready() {
		t.Fatal("request did not survive the outage")
	}
	res, err, _ := pr.Result()
	if err != nil || string(res) != "e:z" {
		t.Errorf("result %q, %v", res, err)
	}
	if c.Stats().Resent == 0 {
		t.Error("no retransmission recorded")
	}
}

func TestSimLossyLinkRetransmission(t *testing.T) {
	// 30% frame loss on WaveLAN: without retransmission requests strand;
	// with the retransmission clock every request completes exactly once.
	sched := vtime.NewScheduler()
	c, s := newEngines(t, stable.Options{})
	execs := 0
	s.Register("count", func(_ string, req qrpc.Request) ([]byte, error) {
		execs++
		return req.Args, nil
	})
	spec := netsim.WaveLAN2
	spec.LossRate = 0.3
	link := NewSim(sched, spec, 7, c, s)
	link.EnableRetransmit(faults.RetryPolicy{Initial: 500 * time.Millisecond, Max: 500 * time.Millisecond, Multiplier: 1}, time.Second)
	var promises []*qrpc.Promise
	sched.At(0, func() {
		for i := 0; i < 20; i++ {
			p, err := c.Enqueue("count", []byte{byte(i)}, qrpc.PriorityNormal, sched.Now())
			if err != nil {
				t.Errorf("enqueue: %v", err)
			}
			promises = append(promises, p)
		}
		link.Kick()
	})
	if _, drained := sched.Run(10_000_000); !drained {
		t.Fatal("simulation did not drain")
	}
	for i, p := range promises {
		res, err, ok := p.Result()
		if !ok || err != nil || len(res) != 1 || res[0] != byte(i) {
			t.Fatalf("promise %d: %q %v %v", i, res, err, ok)
		}
	}
	// At-most-once held despite duplicates from retransmission.
	if execs != 20 {
		t.Errorf("execs = %d, want 20", execs)
	}
	if c.Stats().Resent == 0 {
		t.Error("lossy run recorded no retransmissions")
	}
}

func TestRetryStaleRequeuesOnlyOldRequests(t *testing.T) {
	c, _ := newEngines(t, stable.Options{})
	// A black-hole sender: accepts frames, delivers nothing.
	c.OnConnect(blackhole{}, 0)
	p, _ := c.Enqueue("echo", nil, qrpc.PriorityNormal, 0)
	c.Pump(0)
	if p.Ready() {
		t.Fatal("completed via black hole")
	}
	if n := c.RetryStale(vtime.Time(time.Second), 2*time.Second); n != 0 {
		t.Errorf("young request requeued: %d", n)
	}
	if n := c.RetryStale(vtime.Time(3*time.Second), 2*time.Second); n != 1 {
		t.Errorf("stale request not requeued: %d", n)
	}
	if c.Stats().Resent == 0 {
		t.Error("retry did not resend")
	}
}

type blackhole struct{}

func (blackhole) SendFrame(wire.Frame) bool { return true }

func TestSimFlushCostCharged(t *testing.T) {
	sched := vtime.NewScheduler()
	c, err := qrpc.NewClient(qrpc.ClientConfig{
		ClientID: "c1",
		Log:      stable.NewMemLog(stable.Options{FlushCost: 40 * time.Millisecond}),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := qrpc.NewServer(qrpc.ServerConfig{ServerID: "srv"})
	s.Register("echo", func(_ string, req qrpc.Request) ([]byte, error) { return req.Args, nil })
	link := NewSim(sched, netsim.Ethernet10, 1, c, s)
	var done vtime.Time
	sched.At(0, func() {
		pr, _ := c.Enqueue("echo", []byte("x"), qrpc.PriorityNormal, sched.Now())
		link.Kick()
		pr.OnComplete(func(*qrpc.Promise) { done = sched.Now() })
	})
	sched.Run(10000)
	// Ethernet RTT is ~1ms; the 40ms modeled flush must dominate.
	if done.Duration() < 40*time.Millisecond {
		t.Errorf("completed at %v, before flush window", done)
	}
	if done.Duration() > 60*time.Millisecond {
		t.Errorf("completed at %v, flush should dominate", done)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	c, s := newEngines(t, stable.Options{})
	srv, err := ListenTCP("127.0.0.1:0", s, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := DialTCP(srv.Addr(), c, nil, TCPClientOptions{})
	defer cli.Close()
	pr, err := c.Enqueue("echo", []byte("tcp"), qrpc.PriorityNormal, 0)
	if err != nil {
		t.Fatal(err)
	}
	cli.Kick()
	if got := waitResult(t, pr); string(got) != "e:tcp" {
		t.Errorf("result %q", got)
	}
}

func TestTCPEnqueueBeforeServerUp(t *testing.T) {
	// The QRPC promise: enqueue first, connect whenever the network shows
	// up. Start the client against a dead address, enqueue, then start the
	// server on that address.
	c, s := newEngines(t, stable.Options{})
	// Reserve an address, then close it so the first dials fail.
	tmp, err := ListenTCP("127.0.0.1:0", qrpc.NewServer(qrpc.ServerConfig{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := tmp.Addr()
	tmp.Close()

	cli := DialTCP(addr, c, nil, TCPClientOptions{InitialBackoff: 5 * time.Millisecond, MaxBackoff: 20 * time.Millisecond})
	defer cli.Close()
	pr, err := c.Enqueue("echo", []byte("later"), qrpc.PriorityNormal, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Let at least two dial attempts fail before checking the promise is
	// still pending (polling beats a fixed sleep under CI load).
	waitUntil(t, 5*time.Second, "two failed dial attempts", func() bool { return cli.DialAttempts() >= 2 })
	if pr.Ready() {
		t.Fatal("completed with no server")
	}
	srv, err := ListenTCP(addr, s, nil)
	if err != nil {
		t.Fatalf("server on reserved addr: %v", err)
	}
	defer srv.Close()
	if got := waitResult(t, pr); string(got) != "e:later" {
		t.Errorf("result %q", got)
	}
}

func TestTCPServerRestart(t *testing.T) {
	c, s := newEngines(t, stable.Options{})
	srv, err := ListenTCP("127.0.0.1:0", s, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cli := DialTCP(addr, c, nil, TCPClientOptions{InitialBackoff: 5 * time.Millisecond})
	defer cli.Close()

	pr, _ := c.Enqueue("echo", []byte("1"), qrpc.PriorityNormal, 0)
	cli.Kick()
	waitResult(t, pr)

	// Kill the server; enqueue; restart on the same engine (sessions and
	// reply cache survive in the engine, as in a server process that kept
	// its state).
	srv.Close()
	waitUntil(t, 5*time.Second, "client to notice the dead server", func() bool { return !cli.Connected() })
	pr2, _ := c.Enqueue("echo", []byte("2"), qrpc.PriorityNormal, 0)
	cli.Kick()
	srv2, err := ListenTCP(addr, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if got := waitResult(t, pr2); string(got) != "e:2" {
		t.Errorf("after restart: %q", got)
	}
}

func TestMailRoundTrip(t *testing.T) {
	c, s := newEngines(t, stable.Options{})
	spool := NewSpool(100 * time.Millisecond) // slow relay
	mc := NewMailClient(spool, "c1@mobile", "rover@srv", c, nil)
	ms := NewMailServer(spool, "rover@srv", s)

	now := vtime.Time(0)
	pr, err := c.Enqueue("echo", []byte("mail"), qrpc.PriorityNormal, now)
	if err != nil {
		t.Fatal(err)
	}
	if n := mc.Flush(now); n != 1 {
		t.Fatalf("Flush sent %d envelopes", n)
	}
	// Not deliverable before the relay delay.
	if ms.Poll(now.Add(50*time.Millisecond)) != 0 {
		t.Fatal("mail arrived before relay delay")
	}
	now = now.Add(150 * time.Millisecond)
	if ms.Poll(now) != 1 {
		t.Fatal("server did not receive the envelope")
	}
	// Reply is in transit back.
	now = now.Add(150 * time.Millisecond)
	if mc.Poll(now) != 1 {
		t.Fatal("client did not receive the reply envelope")
	}
	res, err2, ok := pr.Result()
	if !ok || err2 != nil || string(res) != "e:mail" {
		t.Fatalf("result %q %v %v", res, err2, ok)
	}
	if s.Stats().Executed != 1 {
		t.Errorf("Executed = %d", s.Stats().Executed)
	}
}

func TestMailBatchingVsPerRequest(t *testing.T) {
	run := func(maxPer int) transportResult {
		c, s := newEngines(t, stable.Options{})
		spool := NewSpool(0)
		mc := NewMailClient(spool, "c", "s", c, nil)
		mc.MaxFramesPerEnvelope = maxPer
		ms := NewMailServer(spool, "s", s)
		for i := 0; i < 50; i++ {
			c.Enqueue("echo", []byte{byte(i)}, qrpc.PriorityNormal, 0)
		}
		mc.Flush(0)
		ms.Poll(0)
		mc.Poll(0)
		st := spool.Stats()
		return transportResult{envelopes: st.Envelopes, bytes: st.Bytes}
	}
	batched := run(0)
	single := run(1)
	if batched.envelopes >= single.envelopes {
		t.Errorf("batching did not reduce envelopes: %d vs %d", batched.envelopes, single.envelopes)
	}
	if batched.bytes >= single.bytes {
		t.Errorf("batching did not reduce bytes: %d vs %d", batched.bytes, single.bytes)
	}
}

type transportResult struct {
	envelopes int64
	bytes     int64
}

func TestMailRedundantFlushIsIdempotent(t *testing.T) {
	// Flushing twice before the reply arrives mails duplicates; the server
	// must still execute once.
	c, s := newEngines(t, stable.Options{})
	spool := NewSpool(0)
	mc := NewMailClient(spool, "c", "s", c, nil)
	ms := NewMailServer(spool, "s", s)
	pr, _ := c.Enqueue("echo", []byte("once"), qrpc.PriorityNormal, 0)
	mc.Flush(0)
	mc.Flush(0) // duplicate mail
	ms.Poll(0)
	mc.Poll(0)
	if s.Stats().Executed != 1 {
		t.Errorf("Executed = %d", s.Stats().Executed)
	}
	if res, err, ok := pr.Result(); !ok || err != nil || string(res) != "e:once" {
		t.Errorf("result %q %v %v", res, err, ok)
	}
	// Ack travels on the next flush; after it, server reply cache drains.
	mc.Flush(0)
	ms.Poll(0)
	for _, sess := range s.Sessions() {
		if sess.CachedReplies != 0 {
			t.Errorf("reply cache not drained: %+v", sess)
		}
	}
}

func TestMailEmptyFlush(t *testing.T) {
	c, _ := newEngines(t, stable.Options{})
	spool := NewSpool(0)
	mc := NewMailClient(spool, "c", "s", c, nil)
	if n := mc.Flush(0); n != 0 {
		t.Errorf("empty flush mailed %d envelopes", n)
	}
	if spool.Stats().Envelopes != 0 {
		t.Error("spool not empty")
	}
}

func TestTCPBusyRefusalBacksOff(t *testing.T) {
	// A server past its admission high-water mark answers a stranger's
	// Hello with a busy frame; the engine's OnBusy hook rotates the
	// transport, which severs the connection and unwinds the read loop
	// into a fresh dial. That dial SUCCEEDS (the server is up), so
	// without a backoff on the refusal path the client would tight-loop
	// dial/Hello/Busy against an already-overloaded server.
	s := qrpc.NewServer(qrpc.ServerConfig{ServerID: "srv", MaxSessions: 1})
	srv, err := ListenTCP("127.0.0.1:0", s, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	occ, err := qrpc.NewClient(qrpc.ClientConfig{ClientID: "occupant", Log: stable.NewMemLog(stable.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	occCli := DialTCP(srv.Addr(), occ, nil, TCPClientOptions{})
	defer occCli.Close()
	waitUntil(t, 5*time.Second, "occupant admitted", func() bool { return s.SessionCount() == 1 })

	var rotate atomic.Pointer[TCPClient]
	stranger, err := qrpc.NewClient(qrpc.ClientConfig{
		ClientID: "stranger",
		Log:      stable.NewMemLog(stable.Options{}),
		OnBusy: func() {
			if c := rotate.Load(); c != nil {
				c.Rotate()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cli := DialTCP(srv.Addr(), stranger, nil, TCPClientOptions{
		InitialBackoff: 10 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
	})
	defer cli.Close()
	rotate.Store(cli)

	waitUntil(t, 5*time.Second, "first busy refusal", func() bool {
		return stranger.Stats().BusyReceived >= 1
	})
	before := cli.DialAttempts()
	time.Sleep(500 * time.Millisecond)
	delta := cli.DialAttempts() - before
	// 500ms of 10ms→50ms growing backoff allows at most a few dozen
	// redials; the pre-backoff tight loop managed thousands per second.
	if delta > 50 {
		t.Fatalf("%d redials in 500ms after busy refusal; refusals must back off", delta)
	}
	if s.SessionCount() != 1 {
		t.Fatalf("stranger was admitted; sessions = %d", s.SessionCount())
	}
}
