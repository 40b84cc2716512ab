// Package sched implements the interface-selection half of Rover's network
// scheduler.
//
// "The choice is handled by the network scheduler and is based in part
// upon the requested quality of service. The implementation of the network
// scheduler has several queues for different priorities and it chooses a
// network interface based on availability and quality."
//
// The priority queues live inside the QRPC client engine (internal/qrpc);
// this package supplies the other half: a Selector that owns several
// candidate interfaces (Ethernet at the desk, WaveLAN in the building, a
// modem everywhere), tracks their availability, and binds the engine to
// the best available one, failing over and failing back as links come and
// go. The engine itself never knows there is more than one network — it
// sees OnConnect/OnDisconnect transitions exactly as with a single link.
package sched

import (
	"fmt"
	"sort"
	"sync"

	"rover/internal/netsim"
	"rover/internal/qrpc"
	"rover/internal/vtime"
	"rover/internal/wire"
)

// CompressThreshold is the link quality (bits/s) below which the selector
// asks the engine for wire compression. The paper's link roster sorts
// cleanly: CSLIP at 2.4/14.4 Kbit/s and WaveLAN at 2 Mbit/s are starved
// enough that deflate CPU pays for itself — measured, a 2 KB frame costs
// ~30 µs to deflate and inflate (compress keeps its contexts between
// calls; built per frame they cost 0.7 ms and up) against the ~6 ms of
// WaveLAN or ~0.8 s of CSLIP 14.4 transmit time it saves — while a
// session on 10 Mbit/s Ethernet is bound by round trips and log flushes,
// not bytes, so compression there only adds latency.
const CompressThreshold int64 = 5_000_000

// CompressFor reports whether the link policy wants wire compression for
// an interface of the given quality (conventionally bits/s). Unknown
// quality (<= 0) gets no compression — never guess on behalf of a link
// we cannot rank.
func CompressFor(quality int64) bool {
	return quality > 0 && quality < CompressThreshold
}

// Interface is one candidate network attachment.
type Interface struct {
	// Name identifies the interface in status displays ("ethernet",
	// "wavelan", "modem").
	Name string
	// Quality ranks interfaces; the selector always binds the highest
	// Quality among available ones. Conventionally the link bandwidth in
	// bits/s, so faster media win.
	Quality int64
	// Sender transmits frames on this interface.
	Sender qrpc.Sender

	up bool
}

// Selector multiplexes a QRPC client engine across several interfaces.
type Selector struct {
	mu     sync.Mutex
	client *qrpc.Client
	ifaces map[string]*Interface
	active *Interface
	// switches counts rebinds, for tests and status displays.
	switches int
}

// NewSelector builds a selector for the given engine. Interfaces start
// down; Add them and drive their availability with SetUp.
func NewSelector(client *qrpc.Client) *Selector {
	return &Selector{client: client, ifaces: make(map[string]*Interface)}
}

// Add registers an interface (initially down).
func (s *Selector) Add(iface *Interface) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if iface.Name == "" || iface.Sender == nil {
		return fmt.Errorf("sched: interface needs a name and a sender")
	}
	if _, dup := s.ifaces[iface.Name]; dup {
		return fmt.Errorf("sched: duplicate interface %q", iface.Name)
	}
	s.ifaces[iface.Name] = iface
	return nil
}

// SetUp reports an availability change for a named interface. The selector
// rebinds the engine if the best available interface changed.
func (s *Selector) SetUp(name string, up bool, now vtime.Time) {
	s.mu.Lock()
	iface, ok := s.ifaces[name]
	if !ok || iface.up == up {
		s.mu.Unlock()
		return
	}
	iface.up = up
	best := s.bestLocked()
	cur := s.active
	if best == cur {
		s.mu.Unlock()
		return
	}
	s.active = best
	s.switches++
	s.mu.Unlock()

	// Rebind outside the lock: engine callbacks can reenter the selector
	// (via senders that consult it).
	if cur != nil {
		s.client.OnDisconnect(now)
	}
	if best != nil {
		// Set the compression wish BEFORE OnConnect so the Hello the
		// engine sends on the new link advertises the right capability.
		s.client.SetCompression(CompressFor(best.Quality))
		s.client.OnConnect(best.Sender, now)
	}
}

// bestLocked returns the available interface with the highest quality
// (ties broken by name for determinism).
func (s *Selector) bestLocked() *Interface {
	var best *Interface
	names := make([]string, 0, len(s.ifaces))
	for n := range s.ifaces {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		iface := s.ifaces[n]
		if !iface.up {
			continue
		}
		if best == nil || iface.Quality > best.Quality {
			best = iface
		}
	}
	return best
}

// Deliver routes an inbound frame from any interface to the engine.
// Frames from non-active interfaces are still delivered: a reply that was
// in flight when the selector switched links is not discarded.
func (s *Selector) Deliver(f wire.Frame, now vtime.Time) {
	s.client.OnFrame(f, now)
}

// Active returns the name of the bound interface, or "" when none is up.
func (s *Selector) Active() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return ""
	}
	return s.active.Name
}

// Switches reports how many times the binding changed.
func (s *Selector) Switches() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.switches
}

// Interfaces lists registered interfaces and availability, for status
// displays (part of the paper's user-notification surface).
type InterfaceStatus struct {
	Name    string
	Quality int64
	Up      bool
	Active  bool
}

// Status returns per-interface state sorted by descending quality.
func (s *Selector) Status() []InterfaceStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]InterfaceStatus, 0, len(s.ifaces))
	for _, iface := range s.ifaces {
		out = append(out, InterfaceStatus{
			Name:    iface.Name,
			Quality: iface.Quality,
			Up:      iface.up,
			Active:  iface == s.active,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Quality != out[j].Quality {
			return out[i].Quality > out[j].Quality
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// SimInterface glues a simulated duplex link to a Selector: the client
// side of the duplex reports availability changes and delivers frames
// through the selector instead of binding the engine directly. The server
// side is wired as usual.
type SimInterface struct {
	sel   *Selector
	name  string
	sched *vtime.Scheduler
}

// BindSim attaches the client end of a duplex to the selector and returns
// the qrpc.Sender for the interface (pass it in the Interface you Add).
// The caller attaches the server end separately.
func BindSim(sel *Selector, name string, sim *vtime.Scheduler, duplex *netsim.Duplex) (netsim.Endpoint, qrpc.Sender) {
	si := &SimInterface{sel: sel, name: name, sched: sim}
	return si, &simIfaceSender{duplex: duplex}
}

// DeliverFrame implements netsim.Endpoint.
func (si *SimInterface) DeliverFrame(f wire.Frame) {
	si.sel.Deliver(f, si.sched.Now())
}

// LinkUp implements netsim.Endpoint.
func (si *SimInterface) LinkUp() { si.sel.SetUp(si.name, true, si.sched.Now()) }

// LinkDown implements netsim.Endpoint.
func (si *SimInterface) LinkDown() { si.sel.SetUp(si.name, false, si.sched.Now()) }

type simIfaceSender struct {
	duplex *netsim.Duplex
}

// SendFrame implements qrpc.Sender.
func (s *simIfaceSender) SendFrame(f wire.Frame) bool {
	return s.duplex.Send(netsim.SideA, f)
}
