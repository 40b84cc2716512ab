// Package netsim simulates the network media of the paper's evaluation.
//
// The paper measured Rover over four channels: switched 10 Mbit/s Ethernet,
// 2 Mbit/s AT&T WaveLAN, and Serial Line IP with Van Jacobson TCP/IP header
// compression (CSLIP) over 14.4 Kbit/s and 2.4 Kbit/s dial-up links — plus
// full disconnection. We do not have the ThinkPads or the modems, so this
// package provides a discrete-event model of a point-to-point duplex link
// with the parameters that matter to the evaluation's shape:
//
//   - serialization delay (frame bytes ÷ bandwidth), with per-direction
//     queueing when the link is busy,
//   - one-way propagation latency,
//   - per-frame link/protocol header overhead (small for CSLIP with VJ
//     compression, larger for Ethernet),
//   - up/down state with scheduled outages (intermittent connectivity),
//   - optional random frame loss with a deterministic seeded generator.
//
// The same QRPC engine bytes flow through this model as through the real
// TCP transport, so the relative results — who wins, by what factor, where
// crossovers fall — are attributable to the protocol, not the model.
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"rover/internal/vtime"
	"rover/internal/wire"
)

// LinkSpec describes a symmetric point-to-point link.
type LinkSpec struct {
	// Name identifies the link in reports ("ethernet", "cslip14.4", ...).
	Name string
	// BitsPerSecond is the raw channel bandwidth.
	BitsPerSecond int64
	// Latency is one-way propagation delay.
	Latency time.Duration
	// FrameOverhead is the count of link/protocol header bytes charged per
	// frame on top of the Rover frame encoding. CSLIP with Van Jacobson
	// header compression [RFC 1144] reduces TCP/IP headers to a few bytes;
	// Ethernet pays full Ethernet+IP+TCP headers.
	FrameOverhead int
	// LossRate is the probability a frame is lost in flight (0 for the
	// wired links; useful for failure-injection tests).
	LossRate float64
}

// The evaluation's four network configurations. Bandwidths and media are
// from the paper; latencies and header overheads are our modeling choices
// (documented in DESIGN.md) — typical for the hardware of the era.
var (
	Ethernet10 = LinkSpec{Name: "ethernet", BitsPerSecond: 10_000_000, Latency: 500 * time.Microsecond, FrameOverhead: 58}
	WaveLAN2   = LinkSpec{Name: "wavelan", BitsPerSecond: 2_000_000, Latency: 2 * time.Millisecond, FrameOverhead: 62}
	CSLIP14k4  = LinkSpec{Name: "cslip14.4", BitsPerSecond: 14_400, Latency: 100 * time.Millisecond, FrameOverhead: 5}
	CSLIP2k4   = LinkSpec{Name: "cslip2.4", BitsPerSecond: 2_400, Latency: 150 * time.Millisecond, FrameOverhead: 5}
)

// StandardLinks lists the four evaluation links in the paper's fast-to-slow
// order; the benchmark harness sweeps over it.
func StandardLinks() []LinkSpec {
	return []LinkSpec{Ethernet10, WaveLAN2, CSLIP14k4, CSLIP2k4}
}

// TransmitTime returns the serialization delay for a frame whose encoded
// Rover payload is payloadLen bytes.
func (s LinkSpec) TransmitTime(payloadLen int) time.Duration {
	bytes := wire.EncodedFrameSize(payloadLen) + s.FrameOverhead
	if s.BitsPerSecond <= 0 {
		return 0
	}
	return time.Duration(int64(bytes) * 8 * int64(time.Second) / s.BitsPerSecond)
}

// RoundTrip estimates the no-queueing round-trip time for a request of
// reqLen bytes and a reply of repLen bytes. The analytic experiments use
// this for sanity checks against the simulated numbers.
func (s LinkSpec) RoundTrip(reqLen, repLen int) time.Duration {
	return s.TransmitTime(reqLen) + s.TransmitTime(repLen) + 2*s.Latency
}

// Endpoint receives link events. Implementations are the simulated
// transports; callbacks run inside scheduler events.
type Endpoint interface {
	// DeliverFrame is invoked when a frame arrives.
	DeliverFrame(f wire.Frame)
	// LinkUp is invoked when connectivity is (re)established.
	LinkUp()
	// LinkDown is invoked when connectivity is lost.
	LinkDown()
}

// Stats counts link activity, per direction A->B and B->A. Frames* counts
// physical transmissions (a coalesced FrameBatch is one transmission, just
// as it is one syscall on TCP); Logical* counts the application frames
// inside them, so the bench harness can report both amortization and true
// message volume.
type Stats struct {
	FramesAB, FramesBA   int64
	LogicalAB, LogicalBA int64 // application frames (batches count their contents)
	BytesAB, BytesBA     int64 // on-the-wire bytes including overhead
	DroppedDown          int64 // send attempts while the link was down
	DroppedLoss          int64 // frames lost to random loss
	DroppedMidFlight     int64 // frames lost because the link went down in flight
}

// Side selects a duplex endpoint.
type Side int

// The two ends of a duplex link. By convention A is the mobile client and
// B the server.
const (
	SideA Side = iota
	SideB
)

func (s Side) String() string {
	if s == SideA {
		return "A"
	}
	return "B"
}

// Duplex is a bidirectional link between two endpoints, with independent
// serialization in each direction (full duplex, like both PPP and
// Ethernet for our purposes).
type Duplex struct {
	sched *vtime.Scheduler
	spec  LinkSpec
	up    bool
	ends  [2]Endpoint
	busy  [2]vtime.Time // per-direction: when the channel becomes free
	rng   *rand.Rand
	stats Stats
	epoch int64 // incremented on every down; in-flight frames from old epochs die
}

// NewDuplex creates a link over the given scheduler. The link starts up.
// Endpoints must be attached before any traffic flows.
func NewDuplex(sched *vtime.Scheduler, spec LinkSpec, seed int64) *Duplex {
	return &Duplex{
		sched: sched,
		spec:  spec,
		up:    true,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Attach registers the two endpoints. It must be called exactly once.
func (d *Duplex) Attach(a, b Endpoint) {
	if d.ends[0] != nil || d.ends[1] != nil {
		panic("netsim: Attach called twice")
	}
	if a == nil || b == nil {
		panic("netsim: nil endpoint")
	}
	d.ends[0], d.ends[1] = a, b
}

// Up reports whether the link is currently connected.
func (d *Duplex) Up() bool { return d.up }

// Stats returns a snapshot of the traffic counters.
func (d *Duplex) Stats() Stats { return d.stats }

// Send transmits f from the given side toward the other. It returns false
// if the link is down; the frame is then dropped (QRPC redelivery recovers
// it after reconnection, exactly as with a real dead modem).
func (d *Duplex) Send(from Side, f wire.Frame) bool {
	if d.ends[0] == nil {
		panic("netsim: Send before Attach")
	}
	if !d.up {
		d.stats.DroppedDown++
		return false
	}
	onWire := int64(wire.EncodedFrameSize(len(f.Payload)) + d.spec.FrameOverhead)
	logical := int64(wire.LogicalFrames(f))
	if from == SideA {
		d.stats.FramesAB++
		d.stats.LogicalAB += logical
		d.stats.BytesAB += onWire
	} else {
		d.stats.FramesBA++
		d.stats.LogicalBA += logical
		d.stats.BytesBA += onWire
	}
	if d.spec.LossRate > 0 && d.rng.Float64() < d.spec.LossRate {
		d.stats.DroppedLoss++
		return true // sender believes it was sent; that is the point
	}
	now := d.sched.Now()
	txStart := now
	if d.busy[from] > txStart {
		txStart = d.busy[from]
	}
	total := d.spec.TransmitTime(len(f.Payload))
	txEnd := txStart.Add(total)
	d.busy[from] = txEnd
	to := 1 - from
	epoch := d.epoch
	deliver := func(sub wire.Frame, at vtime.Time) {
		d.sched.At(at, func() {
			if !d.up || d.epoch != epoch {
				d.stats.DroppedMidFlight++
				return
			}
			d.ends[to].DeliverFrame(sub)
		})
	}
	// A batch frame is one physical transmission (one frame overhead, one
	// busy-channel reservation) but its sub-frames stream off the link as
	// their bytes arrive — exactly as a TCP receiver decodes the first
	// message of a large write while the rest is still in flight. Delivering
	// the whole batch at txEnd instead would impose head-of-line blocking
	// the real byte stream does not have, defeating the network scheduler's
	// priority ordering on slow links.
	// A compressed batch occupies the channel for its COMPRESSED size
	// (that is the whole point — onWire and total above already reflect
	// it), but streams its inflated sub-frames off the link across that
	// shorter window. A frame that fails to inflate is delivered whole;
	// the receiving engine drops it like any corrupt frame.
	batchPayload := f.Payload
	isBatch := f.Type == wire.FrameBatch
	if f.Type == wire.FrameBatchZ {
		if zf, err := wire.InflateBatchFrame(f); err == nil {
			batchPayload = zf.Payload
			isBatch = true
		}
	}
	if isBatch {
		if subs, err := wire.UnbatchFrames(batchPayload); err == nil && len(subs) > 0 {
			sizes := make([]int64, len(subs))
			var sum int64
			for i, sub := range subs {
				sizes[i] = int64(wire.EncodedFrameSize(len(sub.Payload)))
				sum += sizes[i]
			}
			var cum int64
			for i, sub := range subs {
				cum += sizes[i]
				// Apportion the batch's serialization time across sub-frames
				// by encoded size; the last sub-frame lands exactly at txEnd.
				at := txEnd
				if sum > 0 && cum < sum {
					at = txStart.Add(time.Duration(int64(total) * cum / sum))
				}
				deliver(sub, at.Add(d.spec.Latency))
			}
			return true
		}
	}
	deliver(f, txEnd.Add(d.spec.Latency))
	return true
}

// SetUp changes connectivity, notifying both endpoints on transitions.
// Taking the link down kills all in-flight frames (a dropped modem
// connection loses what was in the pipe).
func (d *Duplex) SetUp(up bool) {
	if up == d.up {
		return
	}
	d.up = up
	if !up {
		d.epoch++
		now := d.sched.Now()
		d.busy[0], d.busy[1] = now, now
	}
	for _, e := range d.ends {
		if e == nil {
			continue
		}
		if up {
			e.LinkUp()
		} else {
			e.LinkDown()
		}
	}
}

// ScheduleOutage takes the link down at 'at' and restores it after 'down'.
func (d *Duplex) ScheduleOutage(at vtime.Time, down time.Duration) {
	d.sched.At(at, func() { d.SetUp(false) })
	d.sched.At(at.Add(down), func() { d.SetUp(true) })
}

// SchedulePeriodicOutages schedules outages of length 'down' every 'period'
// starting at 'first', until 'until'. It models the intermittent
// connectivity of a roving host.
func (d *Duplex) SchedulePeriodicOutages(first vtime.Time, period, down time.Duration, until vtime.Time) {
	if period <= down {
		panic(fmt.Sprintf("netsim: period %v must exceed outage %v", period, down))
	}
	for at := first; at < until; at = at.Add(period) {
		d.ScheduleOutage(at, down)
	}
}
