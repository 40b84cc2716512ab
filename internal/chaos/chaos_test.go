// Package chaos runs seeded fault schedules against the QRPC stack and
// checks the promises the toolkit makes mobile applications:
//
//   - at-most-once execution: no request runs twice at the server, whatever
//     duplicates, retransmissions or replays arrive;
//   - no lost work: every accepted request completes, with the right result,
//     once connectivity returns;
//   - log replay convergence: a client or server rebuilt from its stable log
//     picks up exactly its unanswered requests;
//   - ack durability: reply caches drain once acknowledgements land.
//
// TestChaos walks a table of rows, one per fault scenario, and runs each
// schedule as the subtest TestChaos/<row>/seed=<n>. A failing schedule logs
// the go test line that replays it alone. CI runs 25 schedules per base seed:
//
//	go test ./internal/chaos -run '^TestChaos$' -chaos.schedules=25
package chaos

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"rover"
	"rover/internal/faults"
	"rover/internal/netsim"
	"rover/internal/qrpc"
	"rover/internal/repl"
	"rover/internal/stable"
	"rover/internal/store"
	"rover/internal/store/disk"
	"rover/internal/transport"
	"rover/internal/vtime"
)

var schedules = flag.Int("chaos.schedules", 2, "schedules per base seed of each TestChaos row: seeds base … base+N-1")

// A row is one fault scenario. Its run function fails t on any violation,
// logs the schedule's stats line and returns a digest of what the run did.
type row struct {
	name  string
	seeds []int64 // base seeds
	// virtual rows run under one virtual-time scheduler: a seed's digest is
	// the same on every run, whatever GOMAXPROCS.
	virtual bool
	run     func(t *testing.T, seed int64) string
}

var rows = []row{
	{"sim", []int64{1}, true, func(t *testing.T, s int64) string { return runSim(t, s, false) }},
	{"sim-compress", []int64{2000}, true, func(t *testing.T, s int64) string { return runSim(t, s, true) }},
	{"pipe", []int64{1}, false, runPipe},
	{"mail", []int64{1}, true, runMail},
	{"crash", []int64{1}, false, runCrash},
	{"crash-server", []int64{1, 1000}, false, func(t *testing.T, s int64) string { return runCrashServer(t, s, 1) }},
	{"crash-server-4", []int64{1000}, false, func(t *testing.T, s int64) string { return runCrashServer(t, s, 4) }},
	{"crash-store", []int64{4000}, false, runCrashStore},
	{"crash-primary-sim", []int64{1, 3000}, true, runCrashPrimarySim},
	{"crash-primary-tcp", []int64{1, 3000}, false, runCrashPrimaryTCP},
}

func TestChaos(t *testing.T) {
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			for _, base := range r.seeds {
				for s := base; s < base+int64(*schedules); s++ {
					t.Run(fmt.Sprintf("seed=%d", s), func(t *testing.T) {
						t.Cleanup(func() {
							if t.Failed() {
								t.Logf("replay: go test ./internal/chaos -run '^TestChaos$/^%s$/^seed=%d$' -chaos.schedules=%d -v",
									r.name, s, *schedules)
							}
						})
						r.run(t, s)
					})
				}
			}
		})
	}
}

// TestChaosDeterministic runs the first three seeds of every virtual-time
// row at GOMAXPROCS 1 and again at 2: the digests must match, so a seed
// names one schedule and replaying it replays that schedule.
func TestChaosDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, r := range rows {
		if !r.virtual {
			continue
		}
		t.Run(r.name, func(t *testing.T) {
			for s := r.seeds[0]; s < r.seeds[0]+3; s++ {
				runtime.GOMAXPROCS(1)
				one := r.run(t, s)
				runtime.GOMAXPROCS(2)
				if two := r.run(t, s); one != two {
					t.Errorf("seed=%d: digest %s at GOMAXPROCS 1, %s at 2", s, one, two)
				}
			}
		})
	}
}

// must fails t on a setup error.
func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// digest hashes what a run did, one part per line.
func digest(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%v\n", p)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// echoLedger accounts for an echo workload: the handler's runs, the client's
// accepted requests and their completions. Its handler and hooks may run on
// any goroutine.
type echoLedger struct {
	mu          sync.Mutex
	execs       map[uint64]int  // handler runs per seq
	completions map[uint64]int  // completions per seq
	accepted    map[uint64]bool // seqs the client's log accepted
	wrong       []string        // completions that did not echo their payload
}

func newEchoLedger() *echoLedger {
	return &echoLedger{execs: map[uint64]int{}, completions: map[uint64]int{}, accepted: map[uint64]bool{}}
}

// echo is the server's handler: it counts the run and returns its argument.
func (l *echoLedger) echo(_ string, req qrpc.Request) ([]byte, error) {
	l.mu.Lock()
	l.execs[req.Seq]++
	l.mu.Unlock()
	return req.Args, nil
}

// enqueue issues an echo of payload. A request the client's log refuses is
// not accepted and owes nothing.
func (l *echoLedger) enqueue(cli *qrpc.Client, payload byte, pri qrpc.Priority, now vtime.Time) {
	p, err := cli.Enqueue("echo", []byte{payload}, pri, now)
	if err != nil {
		return
	}
	l.mu.Lock()
	l.accepted[p.Seq()] = true
	l.mu.Unlock()
	l.track(p, payload)
}

// recovered is a client's OnRecovered hook: a rebuilt engine's promise for
// a request an earlier incarnation accepted.
func (l *echoLedger) recovered(req qrpc.Request, p *qrpc.Promise) { l.track(p, req.Args[0]) }

func (l *echoLedger) track(p *qrpc.Promise, payload byte) {
	p.OnReady(func(res []byte, err error) {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.completions[p.Seq()]++
		if err != nil || len(res) != 1 || res[0] != payload {
			l.wrong = append(l.wrong, fmt.Sprintf("seq %d completed with %q, %v; want %q", p.Seq(), res, err, payload))
		}
	})
}

// check fails t unless every accepted request completed with its echo and
// no request ran more than once.
func (l *echoLedger) check(t *testing.T) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.wrong) > 0 {
		t.Fatalf("wrong result: %s", l.wrong[0])
	}
	for _, seq := range slices.Sorted(maps.Keys(l.accepted)) {
		if l.completions[seq] == 0 {
			t.Fatalf("accepted seq %d never completed", seq)
		}
	}
	for _, seq := range slices.Sorted(maps.Keys(l.execs)) {
		if n := l.execs[seq]; n > 1 {
			t.Fatalf("at-most-once violated: seq %d executed %d times", seq, n)
		}
	}
}

// bookings accounts for a booking workload on one slots object: who holds
// each booked slot, and the conflicts the clients were told of. Clients book
// disjoint slots, so a conflict means a booking ran twice and its second run
// found the slot taken.
type bookings struct {
	urn       rover.URN
	booked    map[string]string // slot -> holder; touched by the test goroutine only
	mu        sync.Mutex
	conflicts int
}

func newBookings(u string) *bookings {
	return &bookings{urn: rover.MustParseURN(u), booked: map[string]string{}}
}

// object returns a fresh slots object to seed the store with.
func (b *bookings) object() *rover.Object {
	obj := rover.NewObject(b.urn, "slots")
	obj.Code = `
		proc book {slot who} {
			if {[state exists $slot]} { error "taken" }
			state set $slot $who
		}
	`
	return obj
}

// onConflict is the clients' OnConflict hook.
func (b *bookings) onConflict(rover.URN, string) {
	b.mu.Lock()
	b.conflicts++
	b.mu.Unlock()
}

// book books slot for who through cli's cached copy.
func (b *bookings) book(t *testing.T, cli *rover.Client, slot, who string) {
	t.Helper()
	if _, err := cli.Invoke(b.urn, "book", slot, who); err != nil {
		t.Fatalf("invoke %s: %v", slot, err)
	}
	b.booked[slot] = who
}

// check fails t unless st holds every booking and nothing else, and no
// client saw a conflict.
func (b *bookings) check(t *testing.T, st store.Backend, when string) {
	t.Helper()
	got, err := st.Get(b.urn)
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if len(got.State) != len(b.booked) {
		t.Fatalf("%s: store has %d bookings, want %d", when, len(got.State), len(b.booked))
	}
	for slot, who := range b.booked {
		if v, ok := got.Get(slot); !ok || v != who {
			t.Fatalf("%s: committed booking %s lost or wrong (%q)", when, slot, v)
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.conflicts != 0 {
		t.Fatalf("%s: %d conflicts — an accepted booking was applied twice", when, b.conflicts)
	}
}

// idle reports whether cli holds no tentative copy of u and nothing queued
// or awaiting a reply.
func idle(cli *rover.Client, u rover.URN) func() bool {
	return func() bool {
		st := cli.Status()
		return !cli.Tentative(u) && st.Queued == 0 && st.AwaitingReply == 0
	}
}

// drain waits, in real time and for at most 20 s, until done holds, calling
// step with the poll count between polls a millisecond apart.
func drain(t *testing.T, what string, done func() bool, step func(i int)) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; !done(); i++ {
		if time.Now().After(deadline) {
			t.Fatalf("%s: drain stalled", what)
		}
		step(i)
		time.Sleep(time.Millisecond)
	}
}

// flap is a drain step that kicks *p every poll and takes it down and back
// up every n polls, so redelivery covers whatever a dropped frame or a crash
// stranded. *p is read afresh each poll: a crash may replace the pipe.
func flap(p **transport.Pipe, n int) func(int) {
	return func(i int) {
		if i%n == n-1 {
			(*p).SetConnected(false)
			(*p).SetConnected(true)
		}
		(*p).Kick()
	}
}

// shardPath names journal shard k's file: the journal path itself for
// shard 0, "<path>.s<k>" beyond.
func shardPath(jpath string, k int) string {
	if k == 0 {
		return jpath
	}
	return fmt.Sprintf("%s.s%d", jpath, k)
}

// tear appends the file's first three bytes to it — the prefix of a valid
// record, cut short the way a crash mid-append leaves one — and reports
// whether it did: a file under 8 bytes is left alone.
func tear(t *testing.T, path string) bool {
	t.Helper()
	data, err := os.ReadFile(path)
	must(t, err)
	if len(data) < 8 {
		return false
	}
	must(t, os.WriteFile(path, append(data, data[:3]...), 0o600))
	return true
}

// ---------------------------------------------------------------------------
// sim: a deterministic virtual-time schedule over a lossy wireless link
// with injected frame faults, link outages and a fault-injected stable log.

func runSim(t *testing.T, seed int64, compress bool) string {
	sched := vtime.NewScheduler()
	rng := rand.New(rand.NewSource(seed))

	flog := faults.WrapLog(stable.NewMemLog(stable.Options{}), seed^0x51, faults.LogFaultRates{AppendFail: 0.05})
	cli, err := qrpc.NewClient(qrpc.ClientConfig{ClientID: "chaos-sim", Log: flog})
	must(t, err)
	cli.SetCompression(compress)
	srv := qrpc.NewServer(qrpc.ServerConfig{ServerID: "chaos-srv"})
	l := newEchoLedger()
	srv.Register("echo", l.echo)

	rates := faults.FrameFaultRates{Drop: 0.08, Dup: 0.05, Reorder: 0.05, Corrupt: 0.05, Delay: 0.10, MaxDelay: 200 * time.Millisecond}
	ffCli := faults.NewFrameFaults(seed*2+1, rates)
	ffSrv := faults.NewFrameFaults(seed*2+2, rates)
	spec := netsim.WaveLAN2
	spec.LossRate = 0.05
	link := transport.NewSimFaulty(sched, spec, seed, cli, srv, ffCli, ffSrv)

	// Workload: requests enqueued at seeded times across the first 2s.
	const n = 30
	pris := []qrpc.Priority{qrpc.PriorityLow, qrpc.PriorityNormal, qrpc.PriorityHigh}
	for i := 0; i < n; i++ {
		pri := pris[rng.Intn(len(pris))]
		sched.At(vtime.Time(rng.Int63n(int64(2*time.Second))), func() {
			l.enqueue(cli, byte(i), pri, sched.Now())
			link.Kick()
		})
	}
	// Outages across the fault phase.
	for k := 0; k < 3; k++ {
		at := vtime.Time(int64(200*time.Millisecond) + rng.Int63n(int64(3*time.Second)))
		link.Duplex().ScheduleOutage(at, time.Duration(rng.Int63n(int64(500*time.Millisecond))))
	}
	// Armed after the last enqueue: it must not die on an empty queue.
	sched.At(vtime.Time(2*time.Second), func() {
		link.EnableRetransmit(faults.RetryPolicy{Initial: 150 * time.Millisecond, Max: 2 * time.Second, Multiplier: 2}, 400*time.Millisecond)
	})
	// End of the fault phase: clean network from here on.
	sched.At(vtime.Time(4*time.Second), func() {
		ffCli.SetEnabled(false)
		ffSrv.SetEnabled(false)
		flog.SetEnabled(false)
	})

	if _, drained := sched.Run(2_000_000); !drained {
		t.Fatalf("scheduler did not drain (pending=%d, client pending=%d)", sched.Pending(), cli.Pending())
	}
	l.check(t)
	// Ack durability: a reconnect's Hello advertises LowSeq above every
	// consumed reply, draining the reply cache. The link still loses
	// frames, Hellos too, so this is checked over a few link cycles.
	cached := func() int {
		total := 0
		for _, sess := range srv.Sessions() {
			total += sess.CachedReplies
		}
		return total
	}
	for cycle := 0; cycle < 10 && cached() > 0; cycle++ {
		link.Duplex().ScheduleOutage(sched.Now().Add(10*time.Millisecond), 10*time.Millisecond)
		if _, drained := sched.Run(100_000); !drained {
			t.Fatalf("final link cycle did not drain")
		}
	}
	if n := cached(); n != 0 {
		t.Fatalf("ack durability: %d cached replies survived 10 clean reconnects", n)
	}
	resent := cli.Stats().Resent
	t.Logf("sim: %d/%d accepted, resent=%d, faults=%+v", len(l.accepted), n, resent, ffCli.Stats())
	return digest(l.execs, l.completions, resent, ffCli.Stats(), ffSrv.Stats())
}

// ---------------------------------------------------------------------------
// pipe: two facade clients (RDO cache, tentative invocations, auto-export)
// book unique slots over flapping, fault-injected in-process links.

func runPipe(t *testing.T, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	srv, err := rover.NewServer(rover.ServerOptions{ServerID: "chaos"})
	must(t, err)
	b := newBookings("urn:rover:chaos/slots")
	must(t, srv.Seed(b.object()))

	const clients, perClient = 2, 12
	clis := make([]*rover.Client, clients)
	pipes := make([]*transport.Pipe, clients)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rates := faults.FrameFaultRates{Drop: 0.05, Dup: 0.05, Corrupt: 0.05}
	for ci := range clis {
		cli, err := rover.NewClient(rover.ClientOptions{ClientID: fmt.Sprintf("chaos-%d", ci), OnConflict: b.onConflict})
		must(t, err)
		defer cli.Close()
		clis[ci], pipes[ci] = cli, cli.ConnectPipe(srv)
		pipes[ci].SetConnected(true)
		if _, err := cli.ImportWait(ctx, b.urn); err != nil {
			t.Fatalf("import: %v", err)
		}
		// Faults on only after the import: setup is not part of the chaos.
		pipes[ci].SetFaults(faults.NewFrameFaults(seed*10+int64(ci)*2+1, rates), faults.NewFrameFaults(seed*10+int64(ci)*2+2, rates))
	}

	// Book unique slots while the links flap on a seeded schedule.
	for j := 0; j < perClient; j++ {
		for ci, cli := range clis {
			b.book(t, cli, fmt.Sprintf("c%d-s%d", ci, j), fmt.Sprintf("chaos-%d", ci))
			if rng.Float64() < 0.3 {
				pipes[ci].SetConnected(false)
			} else if rng.Float64() < 0.6 {
				pipes[ci].SetConnected(true)
			}
		}
		time.Sleep(time.Millisecond)
	}

	// Clean drain: faults off, links up.
	for ci, p := range pipes {
		p.SetFaults(nil, nil)
		p.SetConnected(true)
		drain(t, fmt.Sprintf("client %d", ci), idle(clis[ci], b.urn), flap(&p, 50))
	}
	b.check(t, srv.Store(), "drained")
	t.Logf("pipe: %d bookings committed, 0 conflicts", len(b.booked))
	return ""
}

// ---------------------------------------------------------------------------
// mail: spool loss, duplication and relay outages under virtual time, with
// client crashes recovered from the shared stable log mid-run.

func runMail(t *testing.T, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	log := stable.NewMemLog(stable.Options{})
	l := newEchoLedger()
	newEngine := func() *qrpc.Client {
		c, err := qrpc.NewClient(qrpc.ClientConfig{ClientID: "chaos-mail", Log: log, OnRecovered: l.recovered})
		must(t, err)
		return c
	}
	cli := newEngine()
	srv := qrpc.NewServer(qrpc.ServerConfig{ServerID: "chaos-relay"})
	srv.Register("echo", l.echo)

	spool := transport.NewSpool(20 * time.Millisecond)
	spool.SetFaults(seed^0x3a, 0.15, 0.15)
	ms := transport.NewMailServer(spool, "relay", srv)
	policy := faults.RetryPolicy{Initial: 50 * time.Millisecond, Max: time.Second, Multiplier: 2}
	runner := transport.NewMailRunner(transport.NewMailClient(spool, "mobile", "relay", cli, nil), policy)
	now := vtime.Time(0)
	deliver := func() {
		if runner.Due(now) {
			runner.Tick(now)
		}
		ms.Poll(now)
	}
	crasher := faults.NewCrasher(seed^0x77, 0.01, 3)

	const n = 20
	issued, downUntil := 0, 0
	for step := 0; step < 4000; step++ {
		now = now.Add(5 * time.Millisecond)
		if issued < n && rng.Float64() < 0.05 {
			l.enqueue(cli, byte(issued), qrpc.PriorityNormal, now)
			issued++
		}
		if step >= downUntil && rng.Float64() < 0.01 {
			downUntil = step + 1 + rng.Intn(100)
			spool.SetDown(true)
		}
		if step == downUntil {
			spool.SetDown(false)
		}
		deliver()
		if crasher.Strike() {
			// The client process dies; the next incarnation recovers its
			// unanswered requests from the shared stable log.
			cli = newEngine()
			runner = transport.NewMailRunner(transport.NewMailClient(spool, "mobile", "relay", cli, nil), policy)
		}
		if issued == n && cli.Pending() == 0 {
			break
		}
	}
	// Clean drain: relay healthy, no loss or duplication.
	spool.SetDown(false)
	spool.SetFaults(seed, 0, 0)
	for step := 0; cli.Pending() > 0 && step < 2000; step++ {
		now = now.Add(5 * time.Millisecond)
		deliver()
	}
	if cli.Pending() != 0 {
		t.Fatalf("mail drain stalled with %d pending", cli.Pending())
	}
	l.check(t)
	st := spool.Stats()
	t.Logf("mail: %d accepted, crashes=%d, spool drops=%d/%d dups=%d",
		len(l.accepted), crasher.Crashes(), st.DroppedDown, st.DroppedLoss, st.Duplicated)
	return digest(l.execs, l.completions, cli.Stats().Resent, st, crasher.Crashes())
}

// ---------------------------------------------------------------------------
// crash: client engine crash/restart cycles over a file log, with torn
// tails: the full recovery path (CRC check, tail truncation, replay).

func runCrash(t *testing.T, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	path := filepath.Join(t.TempDir(), "wal")
	clock := vtime.NewRealClock()
	l := newEchoLedger()
	srv := qrpc.NewServer(qrpc.ServerConfig{ServerID: "chaos-crash"})
	srv.Register("echo", l.echo)
	open := func() (*qrpc.Client, *stable.FileLog) {
		flog, err := stable.OpenFileLog(path, stable.Options{})
		must(t, err)
		cli, err := qrpc.NewClient(qrpc.ClientConfig{ClientID: "chaos-crash", Log: flog, OnRecovered: l.recovered})
		must(t, err)
		return cli, flog
	}

	cli, flog := open()
	pipe := transport.NewPipe(cli, srv, nil)
	pipe.SetConnected(true)
	const rounds = 4
	for r := 0; r < rounds; r++ {
		for i := 0; i < 6; i++ {
			l.enqueue(cli, byte(r*10+i), qrpc.PriorityNormal, clock.Now())
			pipe.Kick()
		}
		// Let some complete (their records removed): replay sees a mixed log.
		time.Sleep(time.Duration(rng.Intn(10)+2) * time.Millisecond)

		// Crash: link gone, log closed mid-stream, half the time a torn tail.
		pipe.SetConnected(false)
		pipe.Close()
		flog.Close()
		torn := rng.Float64() < 0.5 && tear(t, path)
		cli, flog = open()
		if torn && flog.TornTail() == nil {
			t.Fatalf("round %d: injected torn tail not detected", r)
		}
		pipe = transport.NewPipe(cli, srv, nil)
		pipe.SetConnected(true)
	}
	defer flog.Close()
	defer pipe.Close()

	drain(t, "crash", func() bool { return cli.Pending() == 0 }, flap(&pipe, 50))
	l.check(t)
	t.Logf("crash: %d requests across %d restarts, all recovered", len(l.accepted), rounds)
	return ""
}

// ---------------------------------------------------------------------------
// crash-server: the client survives while the server dies repeatedly over a
// file-backed session journal — at seeded strikes, after a dirty append
// poisoned it, with a torn tail on a random shard. The only journal fault
// is AppendDirty, whose record IS durable, so every handler run has an exec
// record and at most one run per seq is strict. Compaction must keep the
// journal bounded by live session state.

func runCrashServer(t *testing.T, seed int64, shards int) string {
	rng := rand.New(rand.NewSource(seed))
	jpath := filepath.Join(t.TempDir(), "journal")
	clock := vtime.NewRealClock()
	l := newEchoLedger()
	cli, err := qrpc.NewClient(qrpc.ClientConfig{ClientID: "chaos-jsrv", Log: stable.NewMemLog(stable.Options{})})
	must(t, err)

	const compactEvery = 8
	var (
		srv          *qrpc.Server
		jfaults      []*faults.Log // one per shard, over its *stable.FileLog
		pipe         *transport.Pipe
		incarnations int
		compactions  int64
		tears        int
		faultsOn     = true
	)
	// boot builds the next incarnation from the journal shards.
	boot := func() {
		jfaults = jfaults[:0]
		logs := make([]stable.Log, shards)
		for i := range logs {
			fl, err := stable.OpenFileLog(shardPath(jpath, i), stable.Options{})
			must(t, err)
			jf := faults.WrapLog(fl, seed^0x6a+int64(incarnations)*101+int64(i)*17, faults.LogFaultRates{AppendDirty: 0.10})
			jf.SetEnabled(faultsOn)
			jfaults, logs[i] = append(jfaults, jf), jf
		}
		srv = qrpc.NewServer(qrpc.ServerConfig{
			ServerID:            "chaos-home",
			Journals:            logs,
			JournalCompactEvery: compactEvery,
		})
		// Recovery only replays, and the row injects faults only into
		// appends, so an injected error here is no recovery failure: the
		// compaction NewServer starts on a shard recovered over the
		// threshold poisoned the journal on a dirty append, a crash point
		// like any later one.
		if err := srv.JournalError(); err != nil && !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("incarnation %d recovery: %v", incarnations, err)
		}
		srv.Register("echo", l.echo)
		pipe = transport.NewPipe(cli, srv, nil)
		pipe.SetConnected(true)
		incarnations++
	}
	// stop kills the incarnation. Close waits out a background compaction,
	// so the count read after it is final; its error and the journals' are
	// dropped, as a poisoned journal's Close fails and the crash discards it.
	stop := func() {
		pipe.SetConnected(false)
		pipe.Close()
		srv.Close()
		compactions += srv.Stats().JournalCompactions
		for _, jf := range jfaults {
			jf.Close()
		}
	}
	// crash stops the incarnation, maybe tears a random shard's tail, and
	// boots the next, which must report the tear.
	crash := func(torn bool) {
		stop()
		victim := -1
		if torn {
			if k := rng.Intn(shards); tear(t, shardPath(jpath, k)) {
				victim, tears = k, tears+1
			}
		}
		boot()
		if victim >= 0 && jfaults[victim].Inner().(*stable.FileLog).TornTail() == nil {
			t.Fatalf("incarnation %d: torn tail on journal shard %d not detected", incarnations, victim)
		}
	}
	boot()

	crasher := faults.NewCrasher(seed^0x55, 0.04, 3)
	const rounds = 4
	for r := 0; r < rounds; r++ {
		for i := 0; i < 8; i++ {
			l.enqueue(cli, byte(r*10+i), qrpc.PriorityNormal, clock.Now())
			pipe.Kick()
			if crasher.Strike() {
				crash(rng.Float64() < 0.3)
			}
		}
		// Let some replies land (and acks prune) before the round's crash.
		time.Sleep(time.Duration(rng.Intn(8)+2) * time.Millisecond)
		crash(rng.Float64() < 0.5)
	}

	// Clean drain. A server poisoned by an earlier dirty append releases no
	// more replies: that is a crash point, so rebuild it.
	faultsOn = false
	for _, jf := range jfaults {
		jf.SetEnabled(false)
	}
	drain(t, "crash-server", func() bool {
		if cli.Pending() == 0 {
			return true
		}
		if srv.JournalError() != nil {
			crash(false)
		}
		return false
	}, flap(&pipe, 50))
	stop()
	liveRecords := 0
	for _, jf := range jfaults {
		_ = jf.Inner().Replay(func(uint64, []byte) error { liveRecords++; return nil })
	}

	l.check(t)
	if compactions == 0 {
		t.Fatalf("journal never compacted across %d incarnations (%d live records)", incarnations, liveRecords)
	}
	// Live records stay near the threshold per shard (snapshot, one window,
	// slack for appends racing the last compaction), not the history.
	if liveRecords > 3*compactEvery*shards {
		t.Fatalf("journal unbounded: %d live records across %d shards after %d compactions (threshold %d)",
			liveRecords, shards, compactions, compactEvery)
	}
	t.Logf("crash-server: %d requests, %d incarnations, %d compactions, %d live records across %d shards, %d torn tails detected",
		len(l.accepted), incarnations, compactions, liveRecords, shards, tears)
	return ""
}

// ---------------------------------------------------------------------------
// crash-store: crash-server's discipline under a booking workload, with a
// 4-shard journal and the disk store (a 4 KiB cache, so reads fault in from
// the segment; compaction checks every 8 mutations). Across torn tails on
// the segment and the shards and half-written compaction files, no
// committed booking is lost or applied twice, the segment compacts, and
// recovery leaves only the segment and its index footer in the store dir.

func runCrashStore(t *testing.T, seed int64) string {
	const shards = 4
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	sdir := filepath.Join(dir, "store")
	jpath := filepath.Join(dir, "journal")
	b := newBookings("urn:rover:home/slots")
	cli, err := rover.NewClient(rover.ClientOptions{ClientID: "chaos-dstore", OnConflict: b.onConflict})
	must(t, err)
	defer cli.Close()

	var (
		srv          *rover.Server
		pipe         *transport.Pipe
		incarnations int
		compactions  int64
		tears        int // store segment tears, each detected
	)
	// boot builds the next incarnation and audits the store directory.
	boot := func() {
		s, err := rover.NewServer(rover.ServerOptions{
			ServerID:          "chaos-home",
			StoreDir:          sdir,
			StoreCacheBytes:   1 << 12,
			StoreCompactEvery: 8,
			JournalPath:       jpath,
			JournalShards:     shards,
		})
		if err != nil {
			t.Fatalf("incarnation %d boot: %v", incarnations, err)
		}
		srv = s
		ents, err := os.ReadDir(sdir)
		must(t, err)
		for _, e := range ents {
			// store.fidx is the index-footer sidecar a clean close or
			// compaction leaves beside the segment: live state, not an orphan.
			if e.Name() != "store.seg" && e.Name() != "store.fidx" {
				t.Fatalf("incarnation %d: orphaned file %q in store dir after recovery", incarnations, e.Name())
			}
		}
		if incarnations == 0 {
			must(t, s.Seed(b.object()))
		}
		pipe = cli.ConnectPipe(s)
		pipe.SetConnected(true)
		incarnations++
	}
	stop := func() {
		pipe.SetConnected(false)
		pipe.Close()
		must(t, srv.Close()) // waits out a background compaction, so the count is final
		compactions += srv.StoreStats().Compactions
	}
	// crash stops the incarnation, maybe tears the segment's tail and a
	// random shard's, and boots the next, which must report the segment's.
	crash := func(tornStore, tornJournal bool) {
		stop()
		tornStore = tornStore && tear(t, filepath.Join(sdir, "store.seg"))
		if tornJournal {
			tear(t, shardPath(jpath, rng.Intn(shards)))
		}
		// A crash mid-compaction leaves a half-written rewrite: discard it.
		if rng.Float64() < 0.5 {
			must(t, os.WriteFile(filepath.Join(sdir, "store.seg.compact"), []byte("half-written rewrite"), 0o600))
		}
		boot()
		if tornStore {
			if srv.Store().(*disk.Store).TornTail() == nil {
				t.Fatalf("incarnation %d: torn tail on the store segment not detected", incarnations)
			}
			tears++
		}
	}
	boot()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cli.Import(b.urn, rover.ImportOptions{}).Wait(ctx); err != nil {
		t.Fatalf("import: %v", err)
	}

	crasher := faults.NewCrasher(seed^0x77, 0.12, 2)
	const cycles = 5 // ≥ 4 crash/rebuild cycles plus slack
	for c := 0; c < cycles; c++ {
		for j := 0; j < 6; j++ {
			b.book(t, cli, fmt.Sprintf("c%d-s%d", c, j), "mobile")
			pipe.Kick()
			if crasher.Strike() {
				crash(rng.Float64() < 0.5, rng.Float64() < 0.5)
			}
		}
		// Let exports land mid-flight, then the cycle's guaranteed crash.
		time.Sleep(time.Duration(rng.Intn(6)+2) * time.Millisecond)
		crash(rng.Float64() < 0.5, rng.Float64() < 0.5)
		drain(t, fmt.Sprintf("cycle %d", c), idle(cli, b.urn), flap(&pipe, 20))
		b.check(t, srv.Store(), fmt.Sprintf("cycle %d, incarnation %d", c, incarnations))
	}
	stop()
	if compactions == 0 {
		t.Fatalf("store segment never compacted across %d incarnations (%d mutations)", incarnations, len(b.booked))
	}
	if incarnations < 5 {
		t.Fatalf("only %d incarnations; the schedule must rebuild the server at least 5 times", incarnations)
	}
	t.Logf("crash-server/store: %d bookings, %d incarnations, %d compactions, %d journal shards, %d segment tears detected, 0 conflicts",
		len(b.booked), incarnations, compactions, shards, tears)
	return ""
}

// ---------------------------------------------------------------------------
// crash-primary: a replicated home pair under total-loss primary crashes.
// A client books unique slots at whichever replica it reaches. Every cycle
// its current server is crashed outright (store, sessions and replication
// queue gone) and rebuilt empty; the client fails over to the survivor,
// whose replicated history and reply caches absorb the redelivered exports,
// and the rebuilt replica catches up by anti-entropy. The doomed primary's
// stream must drain before each crash; at each cycle's quiesce no booking
// is lost or doubled and the replicas are byte-identical. The -sim row runs
// over netsim virtual-time links, the -tcp row over real TCP with the
// multi-address failover transport.

const (
	cpCycles   = 4 // primary crash/rebuild cycles
	cpPerCycle = 6 // bookings per cycle
)

// bookThroughCrashes books cpPerCycle slots a cycle, pausing after each,
// and crashes the primary once a cycle: at the crasher's strike or after
// the last booking. quiesce ends each cycle.
func bookThroughCrashes(t *testing.T, b *bookings, cli *rover.Client, crasher *faults.Crasher, pause func(), crash, quiesce func(cycle int)) {
	t.Helper()
	for c := 0; c < cpCycles; c++ {
		struck := false
		for j := 0; j < cpPerCycle; j++ {
			b.book(t, cli, fmt.Sprintf("c%d-s%d", c, j), "mobile")
			pause()
			if !struck && (crasher.Strike() || j == cpPerCycle-1) {
				crash(c)
				struck = true
			}
		}
		quiesce(c)
	}
}

// checkPair fails t unless the pair is quiesced and converged and holds
// every booking.
func checkPair(t *testing.T, cycle int, srvs [2]*rover.Server, reps [2]*repl.Replicator, b *bookings) {
	t.Helper()
	if lagA, lagB := reps[0].Lag(), reps[1].Lag(); lagA != 0 || lagB != 0 {
		t.Fatalf("cycle %d: replication lag at quiesce: %d/%d", cycle, lagA, lagB)
	}
	if sa, sb := srvs[0].Store().Snapshot(), srvs[1].Store().Snapshot(); !bytes.Equal(sa, sb) {
		t.Fatalf("cycle %d: replica stores diverged at quiesce (%d vs %d bytes)", cycle, len(sa), len(sb))
	}
	b.check(t, srvs[0].Store(), fmt.Sprintf("cycle %d", cycle))
}

// runCrashPrimarySim runs both replicas, both replication streams and the
// client over netsim links under one virtual-time scheduler (inline server
// execution, scheduler clock).
func runCrashPrimarySim(t *testing.T, seed int64) string {
	sched := vtime.NewScheduler()
	clock := vtime.SchedulerClock{S: sched}
	b := newBookings("urn:rover:pair/slots")
	var (
		srvs    [2]*rover.Server
		reps    [2]*repl.Replicator
		replSim [2]*transport.Sim // replSim[i]: reps[i]'s stream to srvs[1-i]
		cliSim  *transport.Sim
		simSeed = seed * 100
	)
	// newSim links c to s over a clean WaveLAN: the injected failures are
	// the crashes.
	newSim := func(c *qrpc.Client, s *qrpc.Server) *transport.Sim {
		simSeed++
		return transport.NewSim(sched, netsim.WaveLAN2, simSeed, c, s)
	}
	// boot builds replica i empty, under a fresh replication identity.
	boot := func(i int) {
		srv, err := rover.NewServer(rover.ServerOptions{ServerID: [2]string{"pair-a", "pair-b"}[i]})
		must(t, err)
		reps[i], err = srv.EnableReplication(rover.ReplicationOptions{Clock: clock})
		must(t, err)
		srvs[i] = srv
	}
	// wireRepl links both replication streams to the current engines.
	wireRepl := func() {
		for i := 0; i < 2; i++ {
			replSim[i] = newSim(reps[i].Client(), srvs[1-i].Engine())
			srvs[i].AttachPeerTransport(replSim[i])
		}
	}
	boot(0)
	boot(1)
	wireRepl()
	must(t, srvs[0].Seed(b.object()))
	if _, drained := sched.Run(1_000_000); !drained {
		t.Fatalf("seed replication did not drain")
	}
	if !bytes.Equal(srvs[0].Store().Snapshot(), srvs[1].Store().Snapshot()) {
		t.Fatalf("replicas diverged after seeding")
	}

	cli, err := rover.NewClient(rover.ClientOptions{ClientID: "pair-mobile", Clock: clock, OnConflict: b.onConflict})
	must(t, err)
	defer cli.Close()
	primary := 0 // the replica the client is attached to
	cliSim = newSim(cli.Engine(), srvs[primary].Engine())
	cli.AttachTransport(cliSim)
	imp := cli.Import(b.urn, rover.ImportOptions{})
	sched.Run(1_000_000)
	if _, ierr, ok := imp.Result(); !ok || ierr != nil {
		t.Fatalf("import did not complete: %v", ierr)
	}

	crash := func(cycle int) {
		// Cut the client off first, so the doomed primary accepts nothing
		// more, and let its replication stream drain (the bounded-lag
		// assertion) before it dies with both replication links.
		cliSim.Duplex().SetUp(false)
		for i := 0; reps[primary].Lag() > 0; i++ {
			if i >= 10_000 {
				t.Fatalf("cycle %d: pre-crash lag never drained (lag=%d)", cycle, reps[primary].Lag())
			}
			sched.RunFor(time.Millisecond)
		}
		replSim[0].Duplex().SetUp(false)
		replSim[1].Duplex().SetUp(false)
		srvs[primary].Close()
		// Rebuild it empty (reconnecting fires the survivor's anti-entropy
		// sweep) and fail the client over to the survivor, where the
		// handshake re-runs and every unreplied request redelivers.
		boot(primary)
		wireRepl()
		primary = 1 - primary
		cliSim = newSim(cli.Engine(), srvs[primary].Engine())
		cli.AttachTransport(cliSim)
	}

	crasher := faults.NewCrasher(seed^0x9c, 0.3, cpCycles)
	// The pause drains only partly, on purpose: exports, replies and
	// replication records stay in flight across the crash point.
	bookThroughCrashes(t, b, cli, crasher, func() { sched.RunFor(time.Millisecond) }, crash, func(c int) {
		if _, drained := sched.Run(5_000_000); !drained {
			t.Fatalf("cycle %d did not drain (pending=%d)", c, sched.Pending())
		}
		for flaps := 0; !idle(cli, b.urn)(); flaps++ {
			if flaps >= 8 {
				t.Fatalf("cycle %d: client never drained: %+v", c, cli.Status())
			}
			cliSim.Duplex().SetUp(false)
			cliSim.Duplex().SetUp(true)
			sched.Run(5_000_000)
		}
		checkPair(t, c, srvs, reps, b)
	})
	ra, rb := reps[0].Stats(), reps[1].Stats()
	line := fmt.Sprintf("crash-primary/sim: %d bookings, %d crashes, applied=%d catchups=%d fullsyncs=%d sweeps=%d execs=%d dupExports=%d/%d",
		len(b.booked), crasher.Crashes(), ra.Applied+rb.Applied, ra.CatchUps+rb.CatchUps, ra.FullSyncs+rb.FullSyncs,
		ra.DigestSweeps+rb.DigestSweeps, ra.ExecInstalled+rb.ExecInstalled,
		srvs[0].ServerStats().DuplicateExports, srvs[1].ServerStats().DuplicateExports)
	t.Log(line)
	return digest(line, cli.Engine().Stats().Resent, srvs[0].Store().Snapshot(), srvs[1].Store().Snapshot())
}

// runCrashPrimaryTCP runs the pair on TCP listeners, replication dialing
// the peer's listener, and the client on the multi-address failover
// transport (DialTCPMulti), so a dead primary rotates it to the survivor.
func runCrashPrimaryTCP(t *testing.T, seed int64) string {
	b := newBookings("urn:rover:pair/slots")
	var (
		srvs  [2]*rover.Server
		reps  [2]*repl.Replicator
		lns   [2]*transport.TCPServer
		addrs [2]string
	)
	t.Cleanup(func() {
		for i := 0; i < 2; i++ {
			if lns[i] != nil {
				lns[i].Close()
			}
			if srvs[i] != nil {
				srvs[i].Close()
			}
		}
	})
	wait := func(int) {}
	// boot builds replica i. Replication is enabled before the listener so
	// the peer's records cannot race the service registration; the listener
	// retries because a rebuild rebinds the old port.
	boot := func(i int, addr, peerAddr string) {
		srv, err := rover.NewServer(rover.ServerOptions{ServerID: [2]string{"pair-a", "pair-b"}[i]})
		must(t, err)
		srvs[i] = srv
		reps[i], err = srv.EnableReplication(rover.ReplicationOptions{})
		must(t, err)
		drain(t, "listen "+addr, func() bool { lns[i], err = srv.ListenTCP(addr); return err == nil }, wait)
		addrs[i] = lns[i].Addr()
		if peerAddr != "" {
			must(t, srv.ConnectPeerTCP(peerAddr))
		}
	}
	boot(0, "127.0.0.1:0", "")
	boot(1, "127.0.0.1:0", addrs[0])
	must(t, srvs[0].ConnectPeerTCP(addrs[1]))
	must(t, srvs[0].Seed(b.object()))
	converged := func() bool {
		return reps[0].Lag() == 0 && reps[1].Lag() == 0 &&
			bytes.Equal(srvs[0].Store().Snapshot(), srvs[1].Store().Snapshot())
	}
	drain(t, "seeding", converged, wait)

	cli, err := rover.NewClient(rover.ClientOptions{ClientID: "pair-mobile", OnConflict: b.onConflict})
	must(t, err)
	defer cli.Close()
	tcli := transport.DialTCPMulti([]string{addrs[0], addrs[1]}, cli.Engine(), nil, transport.TCPClientOptions{
		InitialBackoff: 5 * time.Millisecond,
		MaxBackoff:     100 * time.Millisecond,
		DialTimeout:    time.Second,
	})
	cli.AttachTransport(tcli)
	kick := func(int) { tcli.Kick() }
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := cli.ImportWait(ctx, b.urn); err != nil {
		t.Fatalf("import: %v", err)
	}

	crash := func(cycle int) {
		pi := 0 // the primary: the replica the client targets
		if tcli.CurrentAddr() == addrs[1] {
			pi = 1
		}
		rotBefore := tcli.Rotations()
		// The listener dies first, so the doomed primary accepts nothing
		// more, and its replication stream drains before the crash.
		lns[pi].Close()
		drain(t, fmt.Sprintf("cycle %d pre-crash lag", cycle), func() bool { return reps[pi].Lag() == 0 }, wait)
		srvs[pi].Close()
		srvs[pi], lns[pi] = nil, nil
		// Hold it down until the client has rotated to the survivor — the
		// failover under test — then rebuild it empty on the same address:
		// the survivor's dial loop reconnects and its sweep refills it.
		drain(t, fmt.Sprintf("cycle %d failover", cycle), func() bool { return tcli.Rotations() != rotBefore }, kick)
		boot(pi, addrs[pi], addrs[1-pi])
	}

	crasher := faults.NewCrasher(seed^0x7d, 0.3, cpCycles)
	bookThroughCrashes(t, b, cli, crasher, func() { time.Sleep(2 * time.Millisecond) }, crash, func(c int) {
		drain(t, fmt.Sprintf("cycle %d", c), idle(cli, b.urn), kick)
		drain(t, fmt.Sprintf("cycle %d convergence", c), converged, wait)
		checkPair(t, c, srvs, reps, b)
	})
	if tcli.Rotations() < cpCycles {
		t.Fatalf("client rotated only %d times across %d primary crashes", tcli.Rotations(), cpCycles)
	}
	t.Logf("crash-primary/tcp: %d bookings, %d crashes, %d rotations, dupExports=%d/%d execInstalled=%d/%d",
		len(b.booked), crasher.Crashes(), tcli.Rotations(),
		srvs[0].ServerStats().DuplicateExports, srvs[1].ServerStats().DuplicateExports,
		reps[0].Stats().ExecInstalled, reps[1].Stats().ExecInstalled)
	return ""
}
