package qrpc

import (
	"context"
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"rover/internal/auth"
	"rover/internal/stable"
	"rover/internal/vtime"
	"rover/internal/wire"
)

// harness wires a client engine to a server engine through queued frame
// delivery (mirroring how the transport adapters behave: frames are never
// delivered on the sender's stack, so engine locks cannot reenter).
type harness struct {
	t      *testing.T
	client *Client
	server *Server
	cs     *harnessSender // client -> server
	sc     *harnessSender // server -> client
	now    vtime.Time
	up     bool
}

type harnessSender struct {
	up     *bool
	queue  []wire.Frame
	sent   int
	refuse bool
	tap    func(wire.Frame) // sees every frame accepted onto the wire
}

func (h *harnessSender) SendFrame(f wire.Frame) bool {
	if !*h.up || h.refuse {
		return false
	}
	if h.tap != nil {
		h.tap(f)
	}
	h.queue = append(h.queue, f)
	h.sent++
	return true
}

func newHarness(t *testing.T, ccfg ClientConfig, scfg ServerConfig) *harness {
	t.Helper()
	if ccfg.ClientID == "" {
		ccfg.ClientID = "client-1"
	}
	if ccfg.Log == nil {
		ccfg.Log = stable.NewMemLog(stable.Options{})
	}
	c, err := NewClient(ccfg)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	h := &harness{t: t, client: c, server: NewServer(scfg)}
	h.cs = &harnessSender{up: &h.up}
	h.sc = &harnessSender{up: &h.up}
	return h
}

// connect brings the link up and performs the handshake + drain.
func (h *harness) connect() {
	h.up = true
	h.server.OnConnect(h.sc, h.now)
	h.client.OnConnect(h.cs, h.now)
	h.settle()
}

func (h *harness) disconnect() {
	h.up = false
	h.cs.queue = nil
	h.sc.queue = nil
	h.client.OnDisconnect(h.now)
	h.server.OnDisconnect(h.sc, h.now)
}

// settle delivers queued frames in both directions until quiescent.
func (h *harness) settle() {
	for i := 0; i < 10000; i++ {
		if len(h.cs.queue) == 0 && len(h.sc.queue) == 0 {
			return
		}
		if len(h.cs.queue) > 0 {
			f := h.cs.queue[0]
			h.cs.queue = h.cs.queue[1:]
			h.server.OnFrame(h.sc, f, h.now)
			continue
		}
		f := h.sc.queue[0]
		h.sc.queue = h.sc.queue[1:]
		h.client.OnFrame(f, h.now)
	}
	h.t.Fatal("harness did not settle")
}

// flush is the ack flush point a transport reaches at the client's
// NextReadyAt deadline (or on a Kick): staged removes commit, pending acks
// go out, and the server processes them.
func (h *harness) flush() {
	h.client.Pump(h.now)
	h.settle()
}

func echoHandler(clientID string, req Request) ([]byte, error) {
	return append([]byte("echo:"), req.Args...), nil
}

func TestRoundTrip(t *testing.T) {
	h := newHarness(t, ClientConfig{}, ServerConfig{ServerID: "srv"})
	h.server.Register("echo", echoHandler)
	h.connect()
	p, err := h.client.Enqueue("echo", []byte("hi"), PriorityNormal, h.now)
	if err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	h.settle()
	res, err, ok := p.Result()
	if !ok || err != nil || string(res) != "echo:hi" {
		t.Fatalf("Result = %q, %v, %v", res, err, ok)
	}
	if h.client.Pending() != 0 {
		t.Errorf("Pending = %d", h.client.Pending())
	}
	if got := h.server.Stats().Executed; got != 1 {
		t.Errorf("Executed = %d", got)
	}
	// Reply acked at the flush point: server cache empty.
	h.flush()
	for _, s := range h.server.Sessions() {
		if s.CachedReplies != 0 {
			t.Errorf("reply cache not pruned: %+v", s)
		}
	}
}

func TestNonBlockingWhileDisconnected(t *testing.T) {
	h := newHarness(t, ClientConfig{}, ServerConfig{})
	h.server.Register("echo", echoHandler)
	// Never connected: enqueues must succeed instantly.
	var promises []*Promise
	for i := 0; i < 100; i++ {
		p, err := h.client.Enqueue("echo", []byte{byte(i)}, PriorityNormal, h.now)
		if err != nil {
			t.Fatalf("Enqueue %d: %v", i, err)
		}
		promises = append(promises, p)
	}
	if h.client.Pending() != 100 {
		t.Fatalf("Pending = %d", h.client.Pending())
	}
	st := h.client.Status()
	if st.Connected || st.Queued != 100 || st.AwaitingReply != 0 {
		t.Errorf("Status = %+v", st)
	}
	// Reconnection drains everything.
	h.connect()
	for i, p := range promises {
		res, err, ok := p.Result()
		if !ok || err != nil || len(res) != 6 || res[5] != byte(i) {
			t.Fatalf("promise %d: %q, %v, %v", i, res, err, ok)
		}
	}
	if got := h.server.Stats().Executed; got != 100 {
		t.Errorf("Executed = %d", got)
	}
}

func TestPriorityDrainOrder(t *testing.T) {
	h := newHarness(t, ClientConfig{}, ServerConfig{})
	var order []byte
	h.server.Register("rec", func(_ string, req Request) ([]byte, error) {
		order = append(order, req.Args[0])
		return nil, nil
	})
	// Queue while disconnected: lows first, then a high, then normals.
	h.client.Enqueue("rec", []byte{'l'}, PriorityLow, h.now)
	h.client.Enqueue("rec", []byte{'m'}, PriorityNormal, h.now)
	h.client.Enqueue("rec", []byte{'h'}, PriorityHigh, h.now)
	h.client.Enqueue("rec", []byte{'n'}, PriorityNormal, h.now)
	h.client.Enqueue("rec", []byte{'f'}, PriorityForeground, h.now)
	h.connect()
	if string(order) != "fhmnl" {
		t.Errorf("drain order %q, want fhmnl (priority desc, FIFO within level)", order)
	}
}

func TestRedeliveryAfterDisconnect(t *testing.T) {
	h := newHarness(t, ClientConfig{}, ServerConfig{})
	h.server.Register("echo", echoHandler)
	h.connect()
	// Link refuses frames: the request stays pending.
	h.cs.refuse = true
	p, _ := h.client.Enqueue("echo", []byte("x"), PriorityNormal, h.now)
	h.settle()
	if p.Ready() {
		t.Fatal("promise completed with dead link")
	}
	h.disconnect()
	h.cs.refuse = false
	h.connect()
	if res, err, ok := p.Result(); !ok || err != nil || string(res) != "echo:x" {
		t.Fatalf("after reconnect: %q, %v, %v", res, err, ok)
	}
}

func TestAtMostOnceExecution(t *testing.T) {
	h := newHarness(t, ClientConfig{}, ServerConfig{})
	execs := 0
	h.server.Register("count", func(_ string, req Request) ([]byte, error) {
		execs++
		return []byte("done"), nil
	})
	h.connect()
	p, _ := h.client.Enqueue("count", nil, PriorityNormal, h.now)
	// Deliver request to server, then LOSE the reply (simulates reply lost
	// in a link outage).
	h.server.OnFrame(h.sc, h.cs.queue[0], h.now)
	h.cs.queue = nil
	h.sc.queue = nil
	if execs != 1 {
		t.Fatalf("execs = %d", execs)
	}
	// Client reconnects and redelivers; server must replay, not re-execute.
	h.disconnect()
	h.connect()
	if execs != 1 {
		t.Fatalf("re-executed: execs = %d", execs)
	}
	if res, err, ok := p.Result(); !ok || err != nil || string(res) != "done" {
		t.Fatalf("promise: %q %v %v", res, err, ok)
	}
	if h.server.Stats().ReplaysServed == 0 {
		t.Error("no replay served")
	}
}

func TestCrashRecoveryRedelivers(t *testing.T) {
	log := stable.NewMemLog(stable.Options{})
	h := newHarness(t, ClientConfig{ClientID: "c", Log: log}, ServerConfig{})
	execs := 0
	h.server.Register("work", func(_ string, req Request) ([]byte, error) {
		execs++
		return []byte("r"), nil
	})
	// Queue 3 requests while disconnected, then "crash" (drop the engine).
	h.client.Enqueue("work", []byte("1"), PriorityNormal, h.now)
	h.client.Enqueue("work", []byte("2"), PriorityNormal, h.now)
	h.client.Enqueue("work", []byte("3"), PriorityNormal, h.now)
	h.client.Close()

	// New incarnation over the same log.
	var recoveredSeqs []uint64
	var recoveredPromises []*Promise
	c2, err := NewClient(ClientConfig{
		ClientID: "c",
		Log:      log,
		OnRecovered: func(req Request, p *Promise) {
			recoveredSeqs = append(recoveredSeqs, req.Seq)
			recoveredPromises = append(recoveredPromises, p)
		},
	})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if len(recoveredSeqs) != 3 {
		t.Fatalf("recovered %v", recoveredSeqs)
	}
	h.client = c2
	h.connect()
	if execs != 3 {
		t.Errorf("execs = %d", execs)
	}
	for i, p := range recoveredPromises {
		if res, err, ok := p.Result(); !ok || err != nil || string(res) != "r" {
			t.Errorf("recovered promise %d: %q %v %v", i, res, err, ok)
		}
	}
	// Only the sequence-reservation meta record may remain.
	if log.Len() > 1 {
		t.Errorf("log still holds %d records", log.Len())
	}
	// New sequence numbers must not collide with recovered ones.
	p4, _ := c2.Enqueue("work", []byte("4"), PriorityNormal, h.now)
	if p4.Seq() <= recoveredSeqs[2] {
		t.Errorf("seq reuse: %d <= %d", p4.Seq(), recoveredSeqs[2])
	}
}

func TestCrashAfterReplyBeforeAckReplays(t *testing.T) {
	// Client receives the reply, removes the log record, crashes before
	// acking. Server must keep the cached reply until an ack arrives, and
	// the new incarnation (with an empty log) must not confuse it.
	log := stable.NewMemLog(stable.Options{})
	h := newHarness(t, ClientConfig{ClientID: "c", Log: log}, ServerConfig{})
	execs := 0
	h.server.Register("w", func(string, Request) ([]byte, error) {
		execs++
		return []byte("ok"), nil
	})
	h.connect()
	p, _ := h.client.Enqueue("w", nil, PriorityNormal, h.now)
	// Deliver request; deliver reply to the client; DROP the ack.
	h.server.OnFrame(h.sc, h.cs.queue[0], h.now)
	h.cs.queue = nil
	h.client.OnFrame(h.sc.queue[0], h.now)
	h.sc.queue = nil
	h.cs.queue = nil // ack dropped
	if !p.Ready() {
		t.Fatal("reply not processed")
	}
	if log.Len() > 1 { // meta record only
		t.Fatal("log record not removed on reply")
	}
	// New incarnation: empty log, LowSeq advertises everything consumed.
	h.client.Close()
	c2, err := NewClient(ClientConfig{ClientID: "c", Log: log})
	if err != nil {
		t.Fatal(err)
	}
	h.client = c2
	h.disconnect()
	h.connect()
	// Hello's LowSeq lets the server prune the orphaned cached reply.
	for _, s := range h.server.Sessions() {
		if s.CachedReplies != 0 {
			t.Errorf("orphaned reply cache survived: %+v", s)
		}
	}
	if execs != 1 {
		t.Errorf("execs = %d", execs)
	}
}

func TestAuthAcceptReject(t *testing.T) {
	key, _ := auth.NewKey()
	reg := auth.NewRegistry()
	reg.Add("good", key)

	// Good client.
	h := newHarness(t, ClientConfig{ClientID: "good", Key: key}, ServerConfig{Auth: reg})
	h.server.Register("echo", echoHandler)
	h.connect()
	p, _ := h.client.Enqueue("echo", []byte("y"), PriorityNormal, h.now)
	h.settle()
	if res, err, ok := p.Result(); !ok || err != nil || string(res) != "echo:y" {
		t.Fatalf("authed request failed: %q %v %v", res, err, ok)
	}

	// Wrong key.
	badKey, _ := auth.NewKey()
	h2 := newHarness(t, ClientConfig{ClientID: "good", Key: badKey}, ServerConfig{Auth: reg})
	h2.server.Register("echo", echoHandler)
	h2.connect()
	p2, _ := h2.client.Enqueue("echo", []byte("z"), PriorityNormal, h2.now)
	h2.settle()
	if p2.Ready() {
		t.Fatal("request executed despite auth failure")
	}
	if !h2.client.Status().AuthRejected {
		t.Error("client did not record auth rejection")
	}
	if h2.server.Stats().AuthFailures != 1 {
		t.Errorf("AuthFailures = %d", h2.server.Stats().AuthFailures)
	}

	// No key at all.
	h3 := newHarness(t, ClientConfig{ClientID: "good"}, ServerConfig{Auth: reg})
	h3.server.Register("echo", echoHandler)
	h3.connect()
	h3.client.Enqueue("echo", []byte("w"), PriorityNormal, h3.now)
	h3.settle()
	if h3.server.Stats().Executed != 0 {
		t.Error("unauthenticated request executed")
	}
}

func TestHandlerErrors(t *testing.T) {
	h := newHarness(t, ClientConfig{}, ServerConfig{})
	h.server.Register("fail", func(string, Request) ([]byte, error) {
		return nil, errors.New("kaboom")
	})
	h.connect()
	p, _ := h.client.Enqueue("fail", nil, PriorityNormal, h.now)
	h.settle()
	_, err, ok := p.Result()
	if !ok || err == nil {
		t.Fatal("expected app error")
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != StatusAppError || re.Message != "kaboom" {
		t.Errorf("error = %v", err)
	}

	p2, _ := h.client.Enqueue("nosuchservice", nil, PriorityNormal, h.now)
	h.settle()
	_, err2, _ := p2.Result()
	if !errors.As(err2, &re) || re.Status != StatusNoService {
		t.Errorf("no-service error = %v", err2)
	}
}

func TestCancel(t *testing.T) {
	h := newHarness(t, ClientConfig{}, ServerConfig{})
	h.server.Register("echo", echoHandler)
	// Disconnected: cancellable.
	p, _ := h.client.Enqueue("echo", nil, PriorityNormal, h.now)
	if !h.client.Cancel(p.Seq()) {
		t.Fatal("Cancel failed on queued request")
	}
	if _, err, ok := p.Result(); !ok || !errors.Is(err, ErrCancelled) {
		t.Errorf("cancelled promise: %v, %v", err, ok)
	}
	if h.client.Pending() != 0 {
		t.Error("cancelled request still pending")
	}
	// Sent: not cancellable.
	h.connect()
	p2, _ := h.client.Enqueue("echo", nil, PriorityNormal, h.now)
	if h.client.Cancel(p2.Seq()) {
		t.Error("Cancel succeeded on sent request")
	}
	h.settle()
}

func TestServerCallbacks(t *testing.T) {
	var topics []string
	h := newHarness(t, ClientConfig{
		OnCallback: func(topic string, payload []byte) {
			topics = append(topics, topic+":"+string(payload))
		},
	}, ServerConfig{})
	h.connect()
	if !h.server.SendCallback("client-1", "invalidate", []byte("urn:rover:x/y")) {
		t.Fatal("SendCallback failed")
	}
	h.settle()
	if len(topics) != 1 || topics[0] != "invalidate:urn:rover:x/y" {
		t.Errorf("callbacks = %v", topics)
	}
	// Unknown client: reports false.
	if h.server.SendCallback("ghost", "t", nil) {
		t.Error("callback to unknown client succeeded")
	}
	// Disconnected: reports false.
	h.disconnect()
	if h.server.SendCallback("client-1", "t", nil) {
		t.Error("callback to disconnected client succeeded")
	}
}

func TestStatusNotifications(t *testing.T) {
	var snaps []StatusInfo
	h := newHarness(t, ClientConfig{
		OnStatus: func(s StatusInfo) { snaps = append(snaps, s) },
	}, ServerConfig{})
	h.server.Register("echo", echoHandler)
	h.client.Enqueue("echo", nil, PriorityNormal, h.now)
	if len(snaps) == 0 || snaps[len(snaps)-1].Queued != 1 {
		t.Fatalf("snaps after enqueue: %+v", snaps)
	}
	h.connect()
	last := snaps[len(snaps)-1]
	if !last.Connected || last.Queued != 0 || last.AwaitingReply != 0 {
		t.Errorf("final status %+v", last)
	}
}

func TestPromiseCallbacksAndWait(t *testing.T) {
	h := newHarness(t, ClientConfig{}, ServerConfig{})
	h.server.Register("echo", echoHandler)
	p, _ := h.client.Enqueue("echo", []byte("cb"), PriorityNormal, h.now)
	fired := 0
	p.OnComplete(func(p *Promise) { fired++ })
	h.connect()
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	// Registering after completion fires immediately.
	p.OnComplete(func(p *Promise) { fired++ })
	if fired != 2 {
		t.Fatalf("late registration: fired = %d", fired)
	}
	// Wait returns instantly on a completed promise.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	res, err := p.Wait(ctx)
	if err != nil || string(res) != "echo:cb" {
		t.Errorf("Wait = %q, %v", res, err)
	}
	// Wait honors context cancellation for incomplete promises.
	p2, _ := h.client.Enqueue("echo", nil, PriorityNormal, h.now)
	h.disconnect()
	p3, _ := h.client.Enqueue("echo", nil, PriorityNormal, h.now)
	_ = p2
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel2()
	if _, err := p3.Wait(ctx2); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Wait on stuck promise: %v", err)
	}
}

func TestClickAheadPattern(t *testing.T) {
	// A promise callback enqueues a follow-up request — the web proxy's
	// click-ahead pattern. This exercises engine re-entrancy.
	h := newHarness(t, ClientConfig{}, ServerConfig{})
	h.server.Register("fetch", func(_ string, req Request) ([]byte, error) {
		return append([]byte("page:"), req.Args...), nil
	})
	h.connect()
	var second *Promise
	p, _ := h.client.Enqueue("fetch", []byte("a"), PriorityNormal, h.now)
	p.OnComplete(func(p *Promise) {
		second, _ = h.client.Enqueue("fetch", []byte("b"), PriorityNormal, h.now)
	})
	h.settle()
	if second == nil {
		t.Fatal("follow-up not enqueued")
	}
	h.settle()
	if res, err, ok := second.Result(); !ok || err != nil || string(res) != "page:b" {
		t.Fatalf("follow-up: %q %v %v", res, err, ok)
	}
}

func TestFlushCostDelaysTransmission(t *testing.T) {
	log := stable.NewMemLog(stable.Options{FlushCost: 10 * time.Millisecond})
	h := newHarness(t, ClientConfig{ClientID: "c", Log: log}, ServerConfig{})
	h.server.Register("echo", echoHandler)
	h.connect()
	p, _ := h.client.Enqueue("echo", nil, PriorityNormal, h.now)
	h.settle()
	if p.Ready() {
		t.Fatal("request transmitted before modeled flush completed")
	}
	ready, ok := h.client.NextReadyAt(h.now)
	if !ok || ready != h.now.Add(10*time.Millisecond) {
		t.Fatalf("NextReadyAt = %v, %v", ready, ok)
	}
	h.now = ready
	h.client.Pump(h.now)
	h.settle()
	if !p.Ready() {
		t.Fatal("request not transmitted after flush window")
	}
}

func TestLogAppendFailureSurfacesError(t *testing.T) {
	log := stable.NewMemLog(stable.Options{})
	h := newHarness(t, ClientConfig{ClientID: "c", Log: log}, ServerConfig{})
	log.FailNext(1)
	if _, err := h.client.Enqueue("x", nil, PriorityNormal, h.now); err == nil {
		t.Fatal("enqueue succeeded despite log failure")
	}
	// Engine remains usable.
	if _, err := h.client.Enqueue("x", nil, PriorityNormal, h.now); err != nil {
		t.Fatalf("enqueue after failure: %v", err)
	}
}

func TestEnqueueAfterClose(t *testing.T) {
	h := newHarness(t, ClientConfig{}, ServerConfig{})
	h.client.Close()
	if _, err := h.client.Enqueue("x", nil, PriorityNormal, h.now); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("error = %v", err)
	}
}

func TestClientStats(t *testing.T) {
	h := newHarness(t, ClientConfig{}, ServerConfig{})
	h.server.Register("echo", echoHandler)
	h.client.Enqueue("echo", nil, PriorityNormal, h.now)
	h.connect()
	h.disconnect()
	h.connect()
	st := h.client.Stats()
	if st.Enqueued != 1 || st.Replies != 1 || st.Connects != 2 || st.Disconnects != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMessageRoundTrips(t *testing.T) {
	msgs := []struct {
		enc func() []byte
		dec func([]byte) error
	}{
		{
			enc: func() []byte {
				return wire.Marshal(&Hello{ClientID: "c", Nonce: []byte{1}, Proof: []byte{2, 3}, LowSeq: 9})
			},
			dec: func(p []byte) error {
				var m Hello
				if err := wire.Unmarshal(p, &m); err != nil {
					return err
				}
				if m.ClientID != "c" || m.LowSeq != 9 || len(m.Proof) != 2 {
					t.Error("Hello fields")
				}
				return nil
			},
		},
		{
			enc: func() []byte {
				return wire.Marshal(&Request{Seq: 7, Priority: PriorityHigh, Service: "s", Args: []byte("a")})
			},
			dec: func(p []byte) error {
				var m Request
				if err := wire.Unmarshal(p, &m); err != nil {
					return err
				}
				if m.Seq != 7 || m.Priority != PriorityHigh || m.Service != "s" {
					t.Error("Request fields")
				}
				return nil
			},
		},
		{
			enc: func() []byte {
				return wire.Marshal(&Reply{Seq: 7, Status: StatusAppError, ErrMsg: "e"})
			},
			dec: func(p []byte) error {
				var m Reply
				if err := wire.Unmarshal(p, &m); err != nil {
					return err
				}
				if m.Seq != 7 || m.Status != StatusAppError || m.ErrMsg != "e" {
					t.Error("Reply fields")
				}
				return nil
			},
		},
		{
			enc: func() []byte { return wire.Marshal(&Ack{Seqs: []uint64{1, 5, 9}}) },
			dec: func(p []byte) error {
				var m Ack
				if err := wire.Unmarshal(p, &m); err != nil {
					return err
				}
				if len(m.Seqs) != 3 || m.Seqs[2] != 9 {
					t.Error("Ack fields")
				}
				return nil
			},
		},
		{
			enc: func() []byte { return wire.Marshal(&Callback{Topic: "t", Payload: []byte("p")}) },
			dec: func(p []byte) error {
				var m Callback
				if err := wire.Unmarshal(p, &m); err != nil {
					return err
				}
				if m.Topic != "t" || string(m.Payload) != "p" {
					t.Error("Callback fields")
				}
				return nil
			},
		},
	}
	for i, m := range msgs {
		if err := m.dec(m.enc()); err != nil {
			t.Errorf("msg %d: %v", i, err)
		}
	}
}

// Property: request log records round-trip for arbitrary content, and meta
// records preserve their floor.
func TestQuickLogRecordRoundTrip(t *testing.T) {
	f := func(seq uint64, pri uint8, svc string, args []byte, floor uint64) bool {
		req := &Request{Seq: seq, Priority: Priority(pri), Service: svc, Args: args}
		back, _, isMeta, err := decodeRecord(encodeRequestRecord(req))
		if err != nil || isMeta || back == nil {
			return false
		}
		if back.Seq != seq || back.Priority != Priority(pri) || back.Service != svc ||
			string(back.Args) != string(args) {
			return false
		}
		_, gotFloor, isMeta, err := decodeRecord(encodeMetaRecord(floor))
		return err == nil && isMeta && gotFloor == floor
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRecordRejectsGarbage(t *testing.T) {
	if _, _, _, err := decodeRecord([]byte{'Z', 1, 2}); err == nil {
		t.Error("unknown record kind accepted")
	}
	if _, _, _, err := decodeRecord(nil); err == nil {
		t.Error("empty record accepted")
	}
	if _, _, _, err := decodeRecord([]byte{'Q', 0xFF}); err == nil {
		t.Error("truncated request record accepted")
	}
}

// Property: any interleaving of connects/disconnects with enqueues still
// completes every request exactly once.
func TestQuickEventualCompletion(t *testing.T) {
	f := func(script []byte) bool {
		h := newHarness(t, ClientConfig{}, ServerConfig{})
		execsPerSeq := map[uint64]int{}
		h.server.Register("w", func(_ string, req Request) ([]byte, error) {
			execsPerSeq[req.Seq]++
			return []byte("ok"), nil
		})
		var promises []*Promise
		for _, b := range script {
			switch b % 4 {
			case 0, 1:
				p, err := h.client.Enqueue("w", []byte{b}, Priority(b%11), h.now)
				if err != nil {
					return false
				}
				promises = append(promises, p)
			case 2:
				h.connect()
			case 3:
				h.disconnect()
			}
		}
		h.connect() // final drain
		for _, p := range promises {
			if res, err, ok := p.Result(); !ok || err != nil || string(res) != "ok" {
				return false
			}
		}
		for _, n := range execsPerSeq {
			if n != 1 {
				return false
			}
		}
		// Invariant: the incremental status counters match a full scan of
		// the pending table (they feed the user-notification UI).
		h.client.mu.Lock()
		scanQueued, scanSent := 0, 0
		for _, pr := range h.client.pend {
			if pr.state == stateQueued {
				scanQueued++
			} else {
				scanSent++
			}
		}
		countersOK := scanQueued == h.client.queuedCount && scanSent == h.client.sentCount
		h.client.mu.Unlock()
		return countersOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBroadcastCallback(t *testing.T) {
	// Two clients on one server; a broadcast reaches all but the origin.
	log1 := stable.NewMemLog(stable.Options{})
	log2 := stable.NewMemLog(stable.Options{})
	var got1, got2 []string
	c1, _ := NewClient(ClientConfig{ClientID: "c1", Log: log1,
		OnCallback: func(topic string, _ []byte) { got1 = append(got1, topic) }})
	c2, _ := NewClient(ClientConfig{ClientID: "c2", Log: log2,
		OnCallback: func(topic string, _ []byte) { got2 = append(got2, topic) }})
	srv := NewServer(ServerConfig{ServerID: "srv"})

	up := true
	s1c := &harnessSender{up: &up}
	s1s := &harnessSender{up: &up}
	s2c := &harnessSender{up: &up}
	s2s := &harnessSender{up: &up}
	srv.OnConnect(s1s, 0)
	srv.OnConnect(s2s, 0)
	c1.OnConnect(s1c, 0)
	c2.OnConnect(s2c, 0)
	// Deliver the hellos.
	for _, f := range s1c.queue {
		srv.OnFrame(s1s, f, 0)
	}
	for _, f := range s2c.queue {
		srv.OnFrame(s2s, f, 0)
	}
	s1c.queue, s2c.queue = nil, nil

	n := srv.BroadcastCallback("c1", "invalidate", []byte("x"))
	if n != 1 {
		t.Fatalf("broadcast reached %d", n)
	}
	for _, f := range s2s.queue {
		c2.OnFrame(f, 0)
	}
	for _, f := range s1s.queue {
		c1.OnFrame(f, 0)
	}
	foundInvalidate := false
	for _, topic := range got2 {
		if topic == "invalidate" {
			foundInvalidate = true
		}
	}
	if !foundInvalidate {
		t.Errorf("c2 callbacks: %v", got2)
	}
	for _, topic := range got1 {
		if topic == "invalidate" {
			t.Error("broadcast echoed to origin")
		}
	}
	if srv.String() != "qrpc.Server(srv)" {
		t.Errorf("String = %q", srv.String())
	}
}

func TestPingPong(t *testing.T) {
	h := newHarness(t, ClientConfig{}, ServerConfig{})
	h.connect()
	// Server answers pings.
	h.server.OnFrame(h.sc, wire.Frame{Type: wire.FramePing}, 0)
	foundPong := false
	for _, f := range h.sc.queue {
		if f.Type == wire.FramePong {
			foundPong = true
		}
	}
	if !foundPong {
		t.Error("server did not pong")
	}
	h.settle()
	// Client answers pings and reports pongs.
	var pongs int
	h2 := newHarness(t, ClientConfig{OnPong: func(vtime.Time) { pongs++ }}, ServerConfig{})
	h2.connect()
	h2.client.OnFrame(wire.Frame{Type: wire.FramePing}, 0)
	found := false
	for _, f := range h2.cs.queue {
		if f.Type == wire.FramePong {
			found = true
		}
	}
	if !found {
		t.Error("client did not pong")
	}
	h2.client.OnFrame(wire.Frame{Type: wire.FramePong}, 0)
	if pongs != 1 {
		t.Errorf("pongs = %d", pongs)
	}
}

func TestMalformedFramesIgnored(t *testing.T) {
	h := newHarness(t, ClientConfig{}, ServerConfig{})
	h.server.Register("echo", echoHandler)
	h.connect()
	// Garbage payloads in every frame type must not panic or corrupt.
	for _, typ := range []byte{wire.FrameHello, wire.FrameRequest, wire.FrameAck, wire.FrameReply, wire.FrameCallback} {
		h.server.OnFrame(h.sc, wire.Frame{Type: typ, Payload: []byte{0xFF, 0x01}}, 0)
		h.client.OnFrame(wire.Frame{Type: typ, Payload: []byte{0xFF, 0x01}}, 0)
	}
	h.settle()
	p, _ := h.client.Enqueue("echo", []byte("still works"), PriorityNormal, 0)
	h.settle()
	if res, err, ok := p.Result(); !ok || err != nil || string(res) != "echo:still works" {
		t.Fatalf("engine wedged after garbage: %q %v %v", res, err, ok)
	}
}

func TestHelloFrameForConnectionless(t *testing.T) {
	h := newHarness(t, ClientConfig{}, ServerConfig{})
	f := h.client.Hello()
	if f.Type != wire.FrameHello {
		t.Fatalf("type %d", f.Type)
	}
	var m Hello
	if err := wire.Unmarshal(f.Payload, &m); err != nil {
		t.Fatal(err)
	}
	if m.ClientID != "client-1" || m.LowSeq == 0 {
		t.Errorf("hello %+v", m)
	}
	if h.client.ClientID() != "client-1" {
		t.Error("ClientID")
	}
}

func TestRemoteErrorStrings(t *testing.T) {
	e1 := &RemoteError{Status: StatusAppError, Message: "boom"}
	if !strings.Contains(e1.Error(), "boom") {
		t.Error(e1.Error())
	}
	e2 := &RemoteError{Status: StatusNoService, Message: "svc"}
	if !strings.Contains(e2.Error(), "no such service") {
		t.Error(e2.Error())
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	var w Welcome
	if err := wire.Unmarshal(wire.Marshal(&Welcome{ServerID: "s", HighSeq: 4}), &w); err != nil {
		t.Fatal(err)
	}
	if w.ServerID != "s" || w.HighSeq != 4 {
		t.Errorf("%+v", w)
	}
}

// TestHelloLowSeqPrunesAckedMap: the client's LowSeq advertisement in Hello
// is the server's license to forget idempotency state. Acked seqs are
// dropped on redelivery both before the Hello (from the acks) and after it
// (from the floor), an ack that arrived ahead of a lower seq is not kept
// once the floor passes it, and the floor is recorded so late duplicates
// are still dropped.
func TestHelloLowSeqPrunesAckedMap(t *testing.T) {
	up := true
	snd := &harnessSender{up: &up}
	srv := NewServer(ServerConfig{ServerID: "srv"})
	srv.Register("echo", func(_ string, req Request) ([]byte, error) { return req.Args, nil })
	srv.OnConnect(snd, 0)
	srv.OnFrame(snd, helloFrame("c1", 1), 0)
	for seq := uint64(1); seq <= 3; seq++ {
		srv.OnFrame(snd, requestFrame(seq, "echo", nil), 0)
	}
	srv.OnFrame(snd, ackFrame(2), 0) // ahead of seq 1's ack
	sess := srv.Sessions()
	if sess[0].AckedPending != 1 || sess[0].CachedReplies != 2 {
		t.Fatalf("after out-of-order ack: %+v", sess[0])
	}
	srv.OnFrame(snd, ackFrame(1), 0)
	snd.queue = nil
	for seq := uint64(1); seq <= 2; seq++ {
		srv.OnFrame(snd, requestFrame(seq, "echo", nil), 0)
	}
	if len(snd.queue) != 0 || srv.Stats().Executed != 3 {
		t.Fatalf("acked seqs redelivered: %d frames out, Executed = %d", len(snd.queue), srv.Stats().Executed)
	}
	sess = srv.Sessions()
	if sess[0].CachedReplies != 1 {
		t.Fatalf("before prune: %+v", sess[0])
	}

	// Client advertises it will never resend below 3.
	srv.OnFrame(snd, helloFrame("c1", 3), 0)
	sess = srv.Sessions()
	if sess[0].AckedPending != 0 {
		t.Fatalf("acked map not pruned by LowSeq: %+v", sess[0])
	}
	if sess[0].LowSeq != 3 || sess[0].CachedReplies != 1 {
		t.Fatalf("after prune: %+v", sess[0])
	}

	// A stale duplicate below the floor is still dropped, not re-executed.
	snd.queue = nil
	srv.OnFrame(snd, requestFrame(1, "echo", nil), 0)
	if len(snd.queue) != 0 {
		t.Fatal("stale duplicate below LowSeq was answered")
	}
	if srv.Stats().Executed != 3 {
		t.Fatalf("Executed = %d, want 3", srv.Stats().Executed)
	}
}
