// Package transport connects the sans-io QRPC engines to actual
// communication channels.
//
// "The Rover toolkit supports several transport protocols (e.g., HTTP and
// SMTP) over various communication media (e.g., Ethernet, WaveLAN, and
// phone lines)." This package provides four:
//
//   - Pipe: an in-process, real-time channel pair. Unit tests, examples,
//     and single-machine demos.
//   - Sim: a link simulated by internal/netsim under virtual time. All
//     bandwidth/latency experiments run here.
//   - TCP: real sockets with automatic reconnection — the
//     connection-based transport of the paper.
//   - Mail: a store-and-forward batch transport modeled on SMTP — the
//     connectionless transport ("SMTP allows Rover to exploit E-mail for
//     queued communication").
//
// Every adapter drives the same engine entry points (OnConnect, OnFrame,
// OnDisconnect, Pump), so protocol behavior is identical across media.
package transport

import (
	"sync"
	"time"

	"rover/internal/qrpc"
	"rover/internal/vtime"
)

// ClientTransport is the client-side handle shared by all adapters.
type ClientTransport interface {
	// Kick prompts the transport to transmit newly-enqueued requests. Call
	// it after qrpc.Client.Enqueue. (Transports with an event source of
	// their own — TCP write pumps, the simulator — still need this hint
	// for requests enqueued outside their event flow.)
	Kick()
	// Connected reports current link state.
	Connected() bool
	// Close shuts the transport down.
	Close() error
}

// clockOrDefault returns a real clock when c is nil.
func clockOrDefault(c vtime.Clock) vtime.Clock {
	if c == nil {
		return vtime.NewRealClock()
	}
	return c
}

// pumpTimer gives a real-time transport what the simulator gets from its
// event queue: a Pump at the time the engine's NextReadyAt names — the
// deadline of an acknowledgment that no request has carried yet. One timer
// per transport, armed after frames are delivered and left alone while it
// is already running, so a busy link pays for it once per deadline, not
// once per frame.
type pumpTimer struct {
	client *qrpc.Client
	clock  vtime.Clock

	mu      sync.Mutex
	timer   *time.Timer
	armed   bool
	stopped bool
}

// arm schedules the next Pump if the engine has one to ask for and none is
// scheduled; a deadline already passed is pumped here and now (with p.mu
// released: a Pump may wait for a log flush).
func (p *pumpTimer) arm() {
	for {
		p.mu.Lock()
		if p.armed || p.stopped {
			p.mu.Unlock()
			return
		}
		now := p.clock.Now()
		at, ok := p.client.NextReadyAt(now)
		if ok && at > now {
			p.armed = true
			if p.timer == nil {
				p.timer = time.AfterFunc(at.Sub(now), p.fire)
			} else {
				p.timer.Reset(at.Sub(now))
			}
		}
		p.mu.Unlock()
		if !ok || at > now {
			return
		}
		p.client.Pump(now)
	}
}

// fire runs on the timer's goroutine. The deadline it was set for may have
// been met since by a request; arm decides afresh.
func (p *pumpTimer) fire() {
	p.mu.Lock()
	p.armed = false
	p.mu.Unlock()
	p.arm()
}

// stop prevents further pumps. A fire already running may finish its Pump.
func (p *pumpTimer) stop() {
	p.mu.Lock()
	p.stopped = true
	if p.timer != nil {
		p.timer.Stop()
	}
	p.mu.Unlock()
}
