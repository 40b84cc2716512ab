package transport

import (
	"time"

	"rover/internal/faults"
	"rover/internal/netsim"
	"rover/internal/qrpc"
	"rover/internal/vtime"
	"rover/internal/wire"
)

// Sim joins a client engine to a server engine across a simulated duplex
// link under virtual time. The benchmark harness builds one per (client,
// link-spec) pair; outages scheduled on the underlying netsim.Duplex flow
// through to the engines as disconnect/connect events.
type Sim struct {
	sched  *vtime.Scheduler
	duplex *netsim.Duplex
	client *qrpc.Client
	server *qrpc.Server

	cliEnd *simEndpoint
	srvEnd *simEndpoint

	cliSenderV qrpc.Sender
	srvSenderV qrpc.Sender
}

type simEndpoint struct {
	s        *Sim
	isClient bool
}

// DeliverFrame implements netsim.Endpoint.
func (e *simEndpoint) DeliverFrame(f wire.Frame) {
	now := e.s.sched.Now()
	if e.isClient {
		e.s.client.OnFrame(f, now)
		e.s.scheduleReadyPump()
	} else {
		e.s.server.OnFrame(e.s.srvSender(), f, now)
	}
}

// LinkUp implements netsim.Endpoint.
func (e *simEndpoint) LinkUp() {
	now := e.s.sched.Now()
	if e.isClient {
		e.s.client.OnConnect(e.s.cliSender(), now)
		e.s.scheduleReadyPump()
	} else {
		e.s.server.OnConnect(e.s.srvSender(), now)
	}
}

// LinkDown implements netsim.Endpoint.
func (e *simEndpoint) LinkDown() {
	now := e.s.sched.Now()
	if e.isClient {
		e.s.client.OnDisconnect(now)
	} else {
		e.s.server.OnDisconnect(e.s.srvSender(), now)
	}
}

// simSender binds a duplex side to the qrpc.Sender interface.
type simSender struct {
	d    *netsim.Duplex
	side netsim.Side
}

// SendFrame implements qrpc.Sender.
func (s *simSender) SendFrame(f wire.Frame) bool {
	return s.d.Send(s.side, f)
}

// NewSim wires client and server engines across a fresh duplex link with
// the given spec. The link starts up and the connect events fire
// immediately (at the scheduler's current time).
func NewSim(sched *vtime.Scheduler, spec netsim.LinkSpec, seed int64, client *qrpc.Client, server *qrpc.Server) *Sim {
	return NewSimFaulty(sched, spec, seed, client, server, nil, nil)
}

// NewSimFaulty is NewSim with per-direction frame-fault schedules layered
// on top of the link spec's own loss model (nil = clean). Injected delays
// are honored on the virtual-time scheduler, so chaos schedules stay
// deterministic.
func NewSimFaulty(sched *vtime.Scheduler, spec netsim.LinkSpec, seed int64, client *qrpc.Client, server *qrpc.Server, cliFF, srvFF *faults.FrameFaults) *Sim {
	s := &Sim{
		sched:  sched,
		duplex: netsim.NewDuplex(sched, spec, seed),
		client: client,
		server: server,
	}
	s.cliEnd = &simEndpoint{s: s, isClient: true}
	s.srvEnd = &simEndpoint{s: s, isClient: false}
	s.duplex.Attach(s.cliEnd, s.srvEnd)
	delay := func(d time.Duration, deliver func()) { sched.After(d, deliver) }
	s.cliSenderV = faults.WrapSender(&simSender{d: s.duplex, side: netsim.SideA}, cliFF, delay)
	s.srvSenderV = faults.WrapSender(&simSender{d: s.duplex, side: netsim.SideB}, srvFF, delay)
	// Fire initial connect events.
	s.srvEnd.LinkUp()
	s.cliEnd.LinkUp()
	return s
}

// Senders are cached so engine identity (map keys at the server) is stable.
func (s *Sim) cliSender() qrpc.Sender { return s.cliSenderV }
func (s *Sim) srvSender() qrpc.Sender { return s.srvSenderV }

// Duplex exposes the underlying link for outage scheduling and stats.
func (s *Sim) Duplex() *netsim.Duplex { return s.duplex }

// Kick implements ClientTransport: it pumps the client now and schedules a
// future pump for requests still inside their modeled log-flush window.
func (s *Sim) Kick() {
	s.client.Pump(s.sched.Now())
	s.scheduleReadyPump()
}

// scheduleReadyPump arranges a Pump at the next flush-completion time.
func (s *Sim) scheduleReadyPump() {
	now := s.sched.Now()
	at, ok := s.client.NextReadyAt(now)
	if !ok {
		return
	}
	s.sched.At(at, func() {
		s.client.Pump(s.sched.Now())
		s.scheduleReadyPump()
	})
}

// EnableRetransmit arms a retransmission clock: at each tick, requests
// unanswered for at least maxAge are requeued and pumped. Use it when the
// link spec models frame loss; reliable links never need it. Consecutive
// ticks that find stale requests space out per the retry policy (a congested
// or partitioned link is not helped by hammering), and any tick that finds
// none resets the backoff; a policy with Multiplier 1 and no Jitter ticks at
// a fixed period, deterministically. It runs until the scheduler drains.
func (s *Sim) EnableRetransmit(p faults.RetryPolicy, maxAge time.Duration) {
	attempt := 0
	var tick func()
	tick = func() {
		if n := s.client.RetryStale(s.sched.Now(), maxAge); n > 0 {
			if s.duplex.Up() {
				// Requests went stale: the session Hello itself may have been
				// lost, so cycle the client end of the session. OnConnect
				// re-sends the handshake and redelivers everything unreplied;
				// the server's reply cache absorbs the duplicates.
				s.cliEnd.LinkDown()
				s.cliEnd.LinkUp()
			}
			attempt++
		} else {
			attempt = 0
		}
		// Only re-arm while there is something to wait for; otherwise the
		// scheduler would never drain.
		if s.client.Pending() > 0 {
			s.sched.After(p.Backoff(attempt), tick)
		}
	}
	s.sched.After(p.Backoff(0), tick)
}

// Connected implements ClientTransport.
func (s *Sim) Connected() bool { return s.duplex.Up() }

// Close implements ClientTransport (no resources to release; the
// scheduler owns all state).
func (s *Sim) Close() error { return nil }
