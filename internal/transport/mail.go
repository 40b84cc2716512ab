package transport

import (
	"math/rand"
	"sync"
	"time"

	"rover/internal/faults"
	"rover/internal/qrpc"
	"rover/internal/vtime"
	"rover/internal/wire"
)

// The mail transport models Rover's SMTP transport: "SMTP allows Rover to
// exploit E-mail for queued communication." Frames are batched into
// envelopes, posted to a spool (the mail system), and fetched by the peer
// whenever it likes — no connection, arbitrary latency, and natural
// batching. The paper's DEC SRC citation (factoring by electronic mail)
// and Active Message Processing both used the same idea.
//
// The spool is in-process; a real deployment would put SMTP servers
// between the two ends, which changes only the delivery delay — exactly
// the parameter Spool models.

// EnvelopeOverheadBytes approximates the SMTP/RFC-822 framing cost per
// envelope (headers, MIME wrapping). The A-BATCH ablation measures its
// amortization.
const EnvelopeOverheadBytes = 350

// Envelope is one piece of queued mail: a batch of frames.
type Envelope struct {
	From    string
	To      string
	Frames  []wire.Frame
	ReadyAt vtime.Time // visible to Fetch from this time on
	Bytes   int        // on-the-wire size including overhead
}

// SpoolStats counts spool traffic.
type SpoolStats struct {
	Envelopes int64
	Frames    int64
	Bytes     int64
	// Fault counters (zero unless SetDown/SetFaults are used).
	DroppedDown int64 // envelopes refused while the relay was down
	DroppedLoss int64 // envelopes lost to the injected loss rate
	Duplicated  int64 // envelopes delivered twice
}

// Spool is the store-and-forward mail system joining mail endpoints.
type Spool struct {
	mu       sync.Mutex
	delay    time.Duration
	boxes    map[string][]*Envelope
	stats    SpoolStats
	down     bool
	rng      *rand.Rand // nil = no injected faults
	dropRate float64
	dupRate  float64
}

// NewSpool builds a spool with the given relay delay (how long mail takes
// end to end).
func NewSpool(delay time.Duration) *Spool {
	return &Spool{delay: delay, boxes: make(map[string][]*Envelope)}
}

// SetDown simulates a relay outage: while down, posted envelopes vanish
// (the mail bounced), as counted by SpoolStats.DroppedDown. Mail already
// spooled stays spooled — the outage is at the relay, not the mailbox.
func (sp *Spool) SetDown(down bool) {
	sp.mu.Lock()
	sp.down = down
	sp.mu.Unlock()
}

// SetFaults arms seeded envelope-level faults: dropRate loses posted
// envelopes, dupRate delivers fetched envelopes twice. Mail systems really
// do both; the client's retry schedule and the server's at-most-once table
// must absorb them.
func (sp *Spool) SetFaults(seed int64, dropRate, dupRate float64) {
	sp.mu.Lock()
	sp.rng = rand.New(rand.NewSource(seed))
	sp.dropRate = dropRate
	sp.dupRate = dupRate
	sp.mu.Unlock()
}

// Post mails an envelope; it becomes fetchable after the relay delay.
func (sp *Spool) Post(env *Envelope, now vtime.Time) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.down {
		sp.stats.DroppedDown++
		return
	}
	if sp.rng != nil && sp.dropRate > 0 && sp.rng.Float64() < sp.dropRate {
		sp.stats.DroppedLoss++
		return
	}
	env.ReadyAt = now.Add(sp.delay)
	env.Bytes = EnvelopeOverheadBytes
	for _, f := range env.Frames {
		env.Bytes += wire.EncodedFrameSize(len(f.Payload))
	}
	sp.boxes[env.To] = append(sp.boxes[env.To], env)
	sp.stats.Envelopes++
	sp.stats.Frames += int64(len(env.Frames))
	sp.stats.Bytes += int64(env.Bytes)
}

// Fetch removes and returns the envelopes deliverable to addr at `now`.
func (sp *Spool) Fetch(addr string, now vtime.Time) []*Envelope {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	box := sp.boxes[addr]
	var ready, rest []*Envelope
	for _, env := range box {
		if env.ReadyAt <= now {
			ready = append(ready, env)
			if sp.rng != nil && sp.dupRate > 0 && sp.rng.Float64() < sp.dupRate {
				ready = append(ready, env)
				sp.stats.Duplicated++
			}
		} else {
			rest = append(rest, env)
		}
	}
	sp.boxes[addr] = rest
	return ready
}

// Pending returns how many envelopes await addr (ready or in transit).
func (sp *Spool) Pending(addr string) int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return len(sp.boxes[addr])
}

// Stats returns a traffic snapshot.
func (sp *Spool) Stats() SpoolStats {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.stats
}

// captureSender collects an engine's output frames into a slice. It is
// mutex-protected because a server engine may hand it a callback from
// another session's handler while its own frames are being processed.
type captureSender struct {
	mu     sync.Mutex
	frames []wire.Frame
}

// SendFrame implements qrpc.Sender.
func (s *captureSender) SendFrame(f wire.Frame) bool {
	s.mu.Lock()
	s.frames = append(s.frames, f)
	s.mu.Unlock()
	return true
}

// take returns the captured frames with any batch frames flattened back
// into their sub-frames, in capture order.
func (s *captureSender) take() []wire.Frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]wire.Frame, 0, len(s.frames))
	for _, f := range s.frames {
		// Compressed batches inflate first (an engine may coalesce replies
		// into one when the envelope's Hello advertised the capability);
		// the spool's envelope batching subsumes wire-level compression.
		if f.Type == wire.FrameBatchZ {
			if zf, err := wire.InflateBatchFrame(f); err == nil {
				f = zf
			}
		}
		if f.Type == wire.FrameBatch {
			if subs, err := wire.UnbatchFrames(f.Payload); err == nil {
				out = append(out, subs...)
				continue
			}
		}
		out = append(out, f)
	}
	return out
}

// MailClient drives a client engine over a spool.
type MailClient struct {
	spool      *Spool
	addr       string
	serverAddr string
	client     *qrpc.Client
	clock      vtime.Clock
	// MaxFramesPerEnvelope below 1 means unlimited (one envelope per
	// flush); the A-BATCH ablation sets it to 1 to model per-request mail.
	MaxFramesPerEnvelope int
}

// NewMailClient binds a client engine to spool mailboxes. A nil clock
// selects real time.
func NewMailClient(spool *Spool, addr, serverAddr string, client *qrpc.Client, clock vtime.Clock) *MailClient {
	return &MailClient{spool: spool, addr: addr, serverAddr: serverAddr, client: client, clock: clockOrDefault(clock)}
}

// Flush mails every outstanding request (and pending acks). Each call is
// one "send mail now" decision — the caller owns the retry schedule, like
// a mail queue runner. Every envelope begins with a Hello so the server
// can process it standalone.
func (m *MailClient) Flush(now vtime.Time) int {
	sink := &captureSender{}
	// A connect/pump/disconnect cycle against a capturing sender drains
	// the engine's queue into the envelope without real connectivity.
	m.client.OnConnect(sink, now)
	m.client.Pump(now)
	m.client.OnDisconnect(now)
	// take() flattens the engine's coalesced FrameBatch output back into
	// individual frames: envelope chunking (the A-BATCH ablation's
	// MaxFramesPerEnvelope) operates on logical frames, and the spool's own
	// envelope batching subsumes wire-level coalescing anyway.
	frames := sink.take()
	if len(frames) <= 1 { // only the Hello: nothing to say
		return 0
	}
	hello := frames[0]
	body := frames[1:]
	chunk := m.MaxFramesPerEnvelope
	if chunk < 1 {
		chunk = len(body)
	}
	sent := 0
	for start := 0; start < len(body); start += chunk {
		end := start + chunk
		if end > len(body) {
			end = len(body)
		}
		frames := append([]wire.Frame{hello}, body[start:end]...)
		m.spool.Post(&Envelope{From: m.addr, To: m.serverAddr, Frames: frames}, now)
		sent++
	}
	return sent
}

// Poll fetches and processes arrived mail (replies, callbacks).
func (m *MailClient) Poll(now vtime.Time) int {
	envs := m.spool.Fetch(m.addr, now)
	for _, env := range envs {
		for _, f := range env.Frames {
			m.client.OnFrame(f, now)
		}
	}
	return len(envs)
}

// Kick implements ClientTransport: for mail, a kick is a flush.
func (m *MailClient) Kick() { m.Flush(m.clock.Now()) }

// Connected implements ClientTransport: mail is never "connected".
func (m *MailClient) Connected() bool { return false }

// Close implements ClientTransport.
func (m *MailClient) Close() error { return nil }

// MailServer drives a server engine over a spool.
type MailServer struct {
	spool *Spool
	addr  string
	srv   *qrpc.Server
}

// NewMailServer binds a server engine to a spool mailbox.
func NewMailServer(spool *Spool, addr string, srv *qrpc.Server) *MailServer {
	return &MailServer{spool: spool, addr: addr, srv: srv}
}

// Poll fetches arrived envelopes, executes their requests, and mails the
// replies back. Each envelope is processed as an independent mini-session.
func (ms *MailServer) Poll(now vtime.Time) int {
	envs := ms.spool.Fetch(ms.addr, now)
	for _, env := range envs {
		sink := &captureSender{}
		ms.srv.OnConnect(sink, now)
		for _, f := range env.Frames {
			ms.srv.OnFrame(sink, f, now)
		}
		ms.srv.OnDisconnect(sink, now)
		// Drop the Welcome (mail clients don't need handshakes); mail back
		// anything substantive.
		var out []wire.Frame
		for _, f := range sink.take() {
			if f.Type != wire.FrameWelcome {
				out = append(out, f)
			}
		}
		if len(out) > 0 {
			ms.spool.Post(&Envelope{From: ms.addr, To: env.From, Frames: out}, now)
		}
	}
	return len(envs)
}

// MailRunner is a mail-queue runner: it owns the retry schedule a bare
// MailClient leaves to its caller. Each Tick polls then flushes; ticks
// that make no progress (no mail arrived and requests are still pending)
// back off per the shared retry policy, so a dead relay is probed gently
// instead of hammered.
type MailRunner struct {
	client  *MailClient
	policy  faults.RetryPolicy
	attempt int
	nextAt  vtime.Time
}

// NewMailRunner builds a runner over the client with the given retry
// policy (zero fields take the policy's defaults). The first tick is due
// immediately.
func NewMailRunner(client *MailClient, policy faults.RetryPolicy) *MailRunner {
	return &MailRunner{client: client, policy: policy}
}

// Due reports whether a tick is owed at `now`.
func (r *MailRunner) Due(now vtime.Time) bool { return now >= r.nextAt }

// Tick polls and flushes once, then schedules the next tick: immediately
// backed-off if the queue still has unanswered requests, reset to the
// policy's initial interval otherwise. It returns how many envelopes were
// polled in.
func (r *MailRunner) Tick(now vtime.Time) int {
	polled := r.client.Poll(now)
	r.client.Flush(now)
	if polled > 0 || r.client.client.Pending() == 0 {
		r.attempt = 0
	} else {
		r.attempt++
	}
	r.nextAt = now.Add(r.policy.Backoff(r.attempt))
	return polled
}

// NextAt returns when the next tick is due.
func (r *MailRunner) NextAt() vtime.Time { return r.nextAt }
