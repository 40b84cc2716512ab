package transport

import (
	"sync"

	"rover/internal/faults"
	"rover/internal/qrpc"
	"rover/internal/vtime"
	"rover/internal/wire"
)

// Pipe is an in-process transport joining one client engine to one server
// engine under real time. Frames are delivered asynchronously by a pump
// goroutine per direction — never on the sender's stack — matching the
// reentrancy discipline of the network transports.
//
// SetConnected toggles the (virtual) link, letting tests and examples
// script disconnected operation without a network.
type Pipe struct {
	client   *qrpc.Client
	server   *qrpc.Server
	clock    vtime.Clock
	ackTimer pumpTimer // flushes an ack no request has carried by its deadline

	mu        sync.Mutex
	cond      *sync.Cond
	connected bool
	closed    bool
	toServer  []wire.Frame
	toClient  []wire.Frame
	wg        sync.WaitGroup
	csFaults  *faults.FrameFaults // client -> server injection, nil = clean
	scFaults  *faults.FrameFaults // server -> client injection, nil = clean

	cs *pipeSender // client -> server
	sc *pipeSender // server -> client
}

type pipeSender struct {
	p        *Pipe
	toServer bool
}

// SendFrame implements qrpc.Sender.
func (s *pipeSender) SendFrame(f wire.Frame) bool {
	p := s.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.connected || p.closed {
		return false
	}
	ff := p.scFaults
	if s.toServer {
		ff = p.csFaults
	}
	queued := 1
	if ff != nil {
		// The pipe has no delivery clock, so injected delays degrade to
		// immediate delivery; drop/dup/reorder/corrupt apply as scheduled.
		out, _ := ff.Apply(f)
		queued = len(out)
		if s.toServer {
			p.toServer = append(p.toServer, out...)
		} else {
			p.toClient = append(p.toClient, out...)
		}
	} else if s.toServer {
		p.toServer = append(p.toServer, f)
	} else {
		p.toClient = append(p.toClient, f)
	}
	if queued > 0 {
		p.cond.Broadcast()
	}
	return true
}

// NewPipe builds a pipe between a client and a server engine. The pipe
// starts disconnected; call SetConnected(true) to bring the link up. A nil
// clock selects real time.
func NewPipe(client *qrpc.Client, server *qrpc.Server, clock vtime.Clock) *Pipe {
	p := &Pipe{client: client, server: server, clock: clockOrDefault(clock)}
	p.ackTimer.client, p.ackTimer.clock = client, p.clock
	p.cond = sync.NewCond(&p.mu)
	p.cs = &pipeSender{p: p, toServer: true}
	p.sc = &pipeSender{p: p, toServer: false}
	p.wg.Add(2)
	go p.pump(true)
	go p.pump(false)
	return p
}

// pump delivers frames in one direction until Close.
func (p *Pipe) pump(toServer bool) {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for !p.closed {
			if toServer && len(p.toServer) > 0 || !toServer && len(p.toClient) > 0 {
				break
			}
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		q := &p.toClient
		if toServer {
			q = &p.toServer
		}
		// Shift rather than reslice: the queue keeps its array, so a frame
		// in flight costs no allocation.
		f := (*q)[0]
		n := copy(*q, (*q)[1:])
		(*q)[n] = wire.Frame{}
		*q = (*q)[:n]
		p.mu.Unlock()
		now := p.clock.Now()
		if toServer {
			p.server.OnFrame(p.sc, f, now)
		} else {
			p.client.OnFrame(f, now)
			p.ackTimer.arm()
		}
	}
}

// SetConnected raises or drops the link, firing the engines' connect and
// disconnect events. Frames queued in the pipe when the link drops are
// lost, as on a real link.
func (p *Pipe) SetConnected(up bool) {
	p.mu.Lock()
	if p.closed || p.connected == up {
		p.mu.Unlock()
		return
	}
	p.connected = up
	if !up {
		p.toServer = nil
		p.toClient = nil
	}
	p.mu.Unlock()
	now := p.clock.Now()
	if up {
		p.server.OnConnect(p.sc, now)
		p.client.OnConnect(p.cs, now)
	} else {
		p.client.OnDisconnect(now)
		p.server.OnDisconnect(p.sc, now)
	}
}

// SetFaults installs per-direction frame-fault schedules (nil = clean).
// Chaos harnesses use it to subject the in-process transport to the same
// drop/dup/reorder/corrupt schedule as the simulated links.
func (p *Pipe) SetFaults(clientToServer, serverToClient *faults.FrameFaults) {
	p.mu.Lock()
	p.csFaults = clientToServer
	p.scFaults = serverToClient
	p.mu.Unlock()
}

// Kick implements ClientTransport.
func (p *Pipe) Kick() {
	p.client.Pump(p.clock.Now())
}

// Connected implements ClientTransport.
func (p *Pipe) Connected() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.connected
}

// Drain blocks until both directions are empty. Tests use it to reach
// quiescence without sleeping.
func (p *Pipe) Drain() {
	for {
		p.mu.Lock()
		empty := len(p.toServer) == 0 && len(p.toClient) == 0
		p.mu.Unlock()
		if empty {
			// One more pass: a frame may be in an OnFrame handler that is
			// about to send a response. Checking twice with a handoff in
			// between is not airtight, but combined with promise waits it
			// serves test synchronization well.
			return
		}
	}
}

// Close shuts down the pipe and its pump goroutines.
func (p *Pipe) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.ackTimer.stop()
	p.wg.Wait()
	return nil
}
