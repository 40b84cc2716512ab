// Package bench is the experiment harness that regenerates the paper's
// evaluation tables and figures (see DESIGN.md's experiment index and
// EXPERIMENTS.md for results). cmd/rover-bench is its CLI; bench_test.go
// exposes the microbenchmarks as testing.B benchmarks.
//
// Link-bound experiments run the production client/server stacks over the
// discrete-event network simulator under virtual time, so a 2.4 Kbit/s
// modem experiment finishes in milliseconds of wall time while reporting
// faithful protocol timings. CPU-bound measurements (local RDO invocation,
// stable-log appends) run under real time.
package bench

import (
	"fmt"
	"strings"
	"time"

	"rover"
	"rover/internal/netsim"
	"rover/internal/transport"
	"rover/internal/vtime"
	"rover/internal/wire"
)

// FlushCost models the laptop-disk synchronous write on the QRPC critical
// path (a mid-90s notebook disk: seek + rotate + write ≈ 15 ms).
const FlushCost = 15 * time.Millisecond

// Options tune experiment scale.
type Options struct {
	// Quick shrinks workloads for smoke tests.
	Quick bool
}

func (o Options) scale(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

// Table is one regenerated table or figure.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// Volatile lists the columns whose cells differ from run to run: wall
	// clock, scheduling, or the size of the source tree. The golden file
	// (testdata/tables.golden) renders their cells as "~".
	Volatile []int
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		sb.WriteByte('\n')
	}
	line(t.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// SimStack is one client + one server joined by a simulated link, all
// under one virtual-time scheduler.
type SimStack struct {
	Sched  *vtime.Scheduler
	Server *rover.Server
	Client *rover.Client
	Link   *transport.Sim
}

// SimStackOptions configure construction.
type SimStackOptions struct {
	Link      netsim.LinkSpec
	FlushCost time.Duration // stable-log flush model; default FlushCost
	NoFlush   bool          // force zero flush cost
	ClientID  string
	Seed      int64
	// Compress makes the client advertise the compressed-batch capability in
	// its Hello. It must be decided before construction: the simulated link
	// fires the connect handshake immediately, so flipping compression later
	// would miss the capability exchange.
	Compress bool
}

// NewSimStack builds the full production stack over a simulated link.
func NewSimStack(opts SimStackOptions) (*SimStack, error) {
	if opts.ClientID == "" {
		opts.ClientID = "bench-client"
	}
	fc := opts.FlushCost
	if fc == 0 && !opts.NoFlush {
		fc = FlushCost
	}
	if opts.NoFlush {
		fc = 0
	}
	sched := vtime.NewScheduler()
	// Workers: -1 forces inline execution: the whole stack runs inside
	// single-threaded scheduler events, so pooled (asynchronous) request
	// execution would race virtual time.
	srv, err := rover.NewServer(rover.ServerOptions{ServerID: "bench-server", Workers: -1})
	if err != nil {
		return nil, err
	}
	cli, err := newSimClient(opts.ClientID, fc, sched)
	if err != nil {
		return nil, err
	}
	cli.Engine().SetCompression(opts.Compress)
	link := transport.NewSim(sched, opts.Link, opts.Seed, cli.Engine(), srv.Engine())
	cli.AttachTransport(link)
	return &SimStack{Sched: sched, Server: srv, Client: cli, Link: link}, nil
}

// newSimClient builds a rover.Client on a virtual clock with a modeled
// flush cost.
func newSimClient(clientID string, fc time.Duration, sched *vtime.Scheduler) (*rover.Client, error) {
	return rover.NewClient(rover.ClientOptions{
		ClientID:         clientID,
		Clock:            vtime.SchedulerClock{S: sched},
		ModeledFlushCost: fc,
	})
}

// AddSimClient joins an extra client to the stack's server over its own
// link (multi-client experiments).
func (s *SimStack) AddSimClient(clientID string, spec netsim.LinkSpec, seed int64) (*rover.Client, *transport.Sim, error) {
	cli, err := newSimClient(clientID, FlushCost, s.Sched)
	if err != nil {
		return nil, nil, err
	}
	link := transport.NewSim(s.Sched, spec, seed, cli.Engine(), s.Server.Engine())
	cli.AttachTransport(link)
	return cli, link, nil
}

// Run drains the scheduler with a generous event budget, failing loudly on
// runaway loops.
func (s *SimStack) Run() {
	if _, drained := s.Sched.Run(50_000_000); !drained {
		panic("bench: simulation event budget exhausted")
	}
}

// ms formats a duration with unit-appropriate precision.
func ms(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2f s", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1f ms", float64(d.Microseconds())/1000)
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1f µs", float64(d.Nanoseconds())/1000)
	default:
		return fmt.Sprintf("%d ns", d.Nanoseconds())
	}
}

// kb formats a byte count.
func kb(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// bareRPC is the blocking-RPC baseline: one request frame, one reply
// frame, no queue, no log, no session — the SunRPC-style comparison point.
// It reuses the simulated link model but speaks directly over it.
type bareRPC struct {
	sched     *vtime.Scheduler
	dup       *netsim.Duplex
	replySize int
	// onReply is invoked (inside a scheduler event) when a reply lands.
	onReply func(now vtime.Time)
}

type bareEndpoint struct {
	r      *bareRPC
	server bool
}

func (e *bareEndpoint) DeliverFrame(f wire.Frame) {
	if e.server {
		e.r.dup.Send(netsim.SideB, wire.Frame{Type: wire.FrameReply, Payload: make([]byte, e.r.replySize)})
		return
	}
	if e.r.onReply != nil {
		e.r.onReply(e.r.sched.Now())
	}
}

func (e *bareEndpoint) LinkUp()   {}
func (e *bareEndpoint) LinkDown() {}

// newBareRPC builds a baseline RPC pair over a fresh link.
func newBareRPC(sched *vtime.Scheduler, spec netsim.LinkSpec, replySize int) *bareRPC {
	r := &bareRPC{sched: sched, replySize: replySize}
	r.dup = netsim.NewDuplex(sched, spec, 1)
	r.dup.Attach(&bareEndpoint{r: r}, &bareEndpoint{r: r, server: true})
	return r
}

// send issues one call; onReply fires when the reply arrives.
func (r *bareRPC) send(argSize int) {
	r.dup.Send(netsim.SideA, wire.Frame{Type: wire.FrameRequest, Payload: make([]byte, argSize)})
}

// linkRows runs fn once per standard link and collects a row per link.
func linkRows(fn func(spec netsim.LinkSpec) ([]string, error)) ([][]string, error) {
	var rows [][]string
	for _, spec := range netsim.StandardLinks() {
		row, err := fn(spec)
		if err != nil {
			return nil, fmt.Errorf("link %s: %w", spec.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// mustNil converts errors the harness does not expect into panics so
// experiments fail loudly rather than reporting nonsense.
func mustNil(err error) {
	if err != nil {
		panic(err)
	}
}
