// Command rover-chaos runs seeded randomized fault schedules against the
// QRPC stack and checks the invariants the toolkit promises mobile
// applications:
//
//   - at-most-once execution: no request runs twice at the server, no
//     matter how many duplicates, retransmissions, or replays arrive;
//   - no lost work: every accepted request eventually completes with the
//     correct result once connectivity returns;
//   - log replay convergence: a client rebuilt from its stable log picks
//     up exactly its unanswered requests — no loss, no double-complete;
//   - ack durability: reply caches drain once acknowledgements land.
//
// Six scenarios cover the transports and both ends of the connection:
// `sim` (deterministic virtual-time link with frame
// drop/dup/reorder/corrupt/delay and outages), `pipe` (the full rover
// facade running a booking workload over a flapping, fault-injected
// in-process link), `mail` (spool loss/duplication/outages with client
// crashes recovered from the log), `crash` (client engine crash/restart
// cycles over a real file-backed log, including torn-tail writes),
// `crash-server` (server crash/rebuild cycles over a file-backed session
// journal with dirty appends and torn tails — exactly-once must hold with
// the SERVER dying, not just the client; with -store-dir the incarnations
// also run the disk-backed object store, and the scenario additionally
// asserts zero lost committed objects, history-backed redelivery detection
// across restarts, and a clean store directory after every recovery), and
// `crash-primary` (a
// replicated home pair losing its primary to total-loss crashes: the
// client fails over to the survivor, the rebuilt replica catches up by
// anti-entropy, and both stores must converge byte-identically with no
// accepted booking lost or doubly applied — exercised over netsim virtual
// time AND real TCP).
//
// Every schedule is reproducible: on a violation the failing seed and a
// repro command line are printed and the process exits nonzero.
//
//	go run ./cmd/rover-chaos -schedules=100 -seed=1
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"rover"
	"rover/internal/faults"
	"rover/internal/netsim"
	"rover/internal/qrpc"
	"rover/internal/repl"
	"rover/internal/stable"
	"rover/internal/transport"
	"rover/internal/vtime"
)

var (
	schedules    = flag.Int("schedules", 25, "number of fault schedules per scenario")
	seed         = flag.Int64("seed", 1, "base seed; schedule i uses seed+i")
	scenarioFlag = flag.String("scenario", "", "scenario to run: all, sim, pipe, mail, crash, crash-server, crash-primary")
	verbose      = flag.Bool("v", false, "print per-schedule stats")
	compress     = flag.Bool("compress", false, "clients advertise the compressed-batch capability (exercises the fault schedules over compressed frames)")
	journShards  = flag.Int("journal-shards", 1, "crash-server: session journal shard count (torn tails and dirty appends land on random shards)")
	useStoreDir  = flag.Bool("store-dir", false, "crash-server: run the disk-backed object store variant (booking workload; segment torn tails, compaction, recovery)")
	storeCache   = flag.Int64("store-cache", 0, "crash-server -store-dir: hot-object cache bytes per incarnation (0 = 4 KiB, deliberately tiny so reads fault from the segment)")
	storeCompact = flag.Int("store-compact-every", 0, "crash-server -store-dir: mutations between store compaction checks (0 = 8)")
	useAutotune  = flag.Bool("autotune", false, "crash-server -store-dir: enable the adaptive cache/shard controller in every incarnation (fast interval; shard growth survives crashes via adopt-mode reopen)")
)

// flagScenarios maps each scenario-specific flag to the scenarios that
// honor it. A flag set on the command line but ignored by every selected
// scenario gets a stderr warning instead of silently doing nothing.
var flagScenarios = map[string][]string{
	"compress":            {"sim", "pipe", "mail", "crash", "crash-server"},
	"journal-shards":      {"crash-server"},
	"store-dir":           {"crash-server"},
	"store-cache":         {"crash-server"},
	"store-compact-every": {"crash-server"},
	"autotune":            {"crash-server"},
}

// Temp-dir registry: every scenario allocates its scratch space through
// tempDir so ALL exit paths — normal completion, a violation's os.Exit, a
// panicking schedule — remove it. Before this registry a violation exit
// relied on each scenario's own defers having run, and a panic between
// MkdirTemp and the defer leaked journal and store segments into /tmp.
var (
	tmpMu   sync.Mutex
	tmpDirs []string
)

func tempDir(pattern string) (string, error) {
	dir, err := os.MkdirTemp("", pattern)
	if err != nil {
		return "", err
	}
	tmpMu.Lock()
	tmpDirs = append(tmpDirs, dir)
	tmpMu.Unlock()
	return dir, nil
}

func cleanupTempDirs() {
	tmpMu.Lock()
	defer tmpMu.Unlock()
	for _, d := range tmpDirs {
		os.RemoveAll(d)
	}
	tmpDirs = nil
}

// warnIgnoredFlags prints a stderr warning for every explicitly-set
// scenario-specific flag that none of the picked scenarios honor.
func warnIgnoredFlags(picked []runner) {
	pickedNames := map[string]bool{}
	for _, r := range picked {
		pickedNames[r.name] = true
	}
	flag.Visit(func(f *flag.Flag) {
		honors, scoped := flagScenarios[f.Name]
		if !scoped {
			return
		}
		for _, name := range honors {
			if pickedNames[name] {
				return
			}
		}
		fmt.Fprintf(os.Stderr, "rover-chaos: warning: -%s has no effect on the selected scenario(s); it applies to: %s\n",
			f.Name, strings.Join(honors, ", "))
	})
}

type runner struct {
	name string
	run  func(seed int64, verbose bool) error
}

func main() {
	flag.Parse()
	scenario := *scenarioFlag
	if scenario == "" {
		scenario = "all"
	}
	all := []runner{
		{"sim", runSim},
		{"pipe", runPipe},
		{"mail", runMail},
		{"crash", runCrash},
		{"crash-server", runCrashServer},
		{"crash-primary", runCrashPrimary},
	}
	var picked []runner
	for _, r := range all {
		if scenario == "all" || scenario == r.name {
			picked = append(picked, r)
		}
	}
	if len(picked) == 0 {
		names := make([]string, 0, len(all)+1)
		names = append(names, "all")
		for _, r := range all {
			names = append(names, r.name)
		}
		fmt.Fprintf(os.Stderr, "unknown -scenario %q (valid: %s)\n", scenario, strings.Join(names, ", "))
		os.Exit(2)
	}
	warnIgnoredFlags(picked)
	start := time.Now()
	for i := 0; i < *schedules; i++ {
		s := *seed + int64(i)
		for _, r := range picked {
			if err := r.run(s, *verbose); err != nil {
				extra := ""
				if *journShards > 1 {
					extra += fmt.Sprintf(" -journal-shards=%d", *journShards)
				}
				if *useStoreDir {
					extra += " -store-dir"
				}
				if *storeCache > 0 {
					extra += fmt.Sprintf(" -store-cache=%d", *storeCache)
				}
				if *storeCompact > 0 {
					extra += fmt.Sprintf(" -store-compact-every=%d", *storeCompact)
				}
				if *useAutotune {
					extra += " -autotune"
				}
				fmt.Fprintf(os.Stderr, "VIOLATION scenario=%s seed=%d: %v\n", r.name, s, err)
				fmt.Fprintf(os.Stderr, "reproduce: go run ./cmd/rover-chaos -schedules=1 -seed=%d -scenario=%s%s -v\n", s, r.name, extra)
				cleanupTempDirs()
				os.Exit(1)
			}
		}
		if *verbose {
			fmt.Printf("schedule %d ok (seed %d)\n", i, s)
		}
	}
	cleanupTempDirs()
	fmt.Printf("rover-chaos: %d schedules x %d scenarios, zero violations (%.1fs)\n",
		*schedules, len(picked), time.Since(start).Seconds())
}

// ---------------------------------------------------------------------------
// sim: deterministic virtual-time schedule over a lossy wireless link with
// injected frame faults, link outages, and a fault-injected stable log.

func runSim(seed int64, verbose bool) error {
	sched := vtime.NewScheduler()
	rng := rand.New(rand.NewSource(seed))

	mem := stable.NewMemLog(stable.Options{})
	flog := faults.WrapLog(mem, seed^0x51, faults.LogFaultRates{AppendFail: 0.05})
	cli, err := qrpc.NewClient(qrpc.ClientConfig{ClientID: "chaos-sim", Log: flog})
	if err != nil {
		return err
	}
	cli.SetCompression(*compress)
	srv := qrpc.NewServer(qrpc.ServerConfig{ServerID: "chaos-srv"})
	execs := map[uint64]int{} // single-threaded under the scheduler
	srv.Register("echo", func(_ string, req qrpc.Request) ([]byte, error) {
		execs[req.Seq]++
		return req.Args, nil
	})

	rates := faults.FrameFaultRates{
		Drop: 0.08, Dup: 0.05, Reorder: 0.05, Corrupt: 0.05,
		Delay: 0.10, MaxDelay: 200 * time.Millisecond,
	}
	ffCli := faults.NewFrameFaults(seed*2+1, rates)
	ffSrv := faults.NewFrameFaults(seed*2+2, rates)
	spec := netsim.WaveLAN2
	spec.LossRate = 0.05
	link := transport.NewSimFaulty(sched, spec, seed, cli, srv, ffCli, ffSrv)

	// Workload: requests enqueued at seeded times across the first 2s.
	type issued struct {
		seq     uint64
		payload byte
		p       *qrpc.Promise
	}
	var accepted []issued
	const n = 30
	pris := []qrpc.Priority{qrpc.PriorityLow, qrpc.PriorityNormal, qrpc.PriorityHigh}
	for i := 0; i < n; i++ {
		i := i
		pri := pris[rng.Intn(len(pris))]
		sched.At(vtime.Time(rng.Int63n(int64(2*time.Second))), func() {
			p, err := cli.Enqueue("echo", []byte{byte(i)}, pri, sched.Now())
			if err == nil {
				accepted = append(accepted, issued{p.Seq(), byte(i), p})
			}
			link.Kick()
		})
	}
	// Outages across the fault phase.
	for k := 0; k < 3; k++ {
		at := vtime.Time(int64(200*time.Millisecond) + rng.Int63n(int64(3*time.Second)))
		link.Duplex().ScheduleOutage(at, time.Duration(rng.Int63n(int64(500*time.Millisecond))))
	}
	// Retransmission clock armed after the last enqueue so it cannot die
	// on an empty queue before the workload starts.
	sched.At(vtime.Time(2*time.Second), func() {
		link.EnableRetransmitPolicy(faults.RetryPolicy{
			Initial: 150 * time.Millisecond, Max: 2 * time.Second, Multiplier: 2,
		}, 400*time.Millisecond)
	})
	// End of the fault phase: clean network from here on.
	sched.At(vtime.Time(4*time.Second), func() {
		ffCli.SetEnabled(false)
		ffSrv.SetEnabled(false)
		flog.SetEnabled(false)
	})

	if _, drained := sched.Run(2_000_000); !drained {
		return fmt.Errorf("scheduler did not drain (pending=%d, client pending=%d)", sched.Pending(), cli.Pending())
	}
	for _, a := range accepted {
		res, rerr, ok := a.p.Result()
		if !ok {
			return fmt.Errorf("seq %d never completed", a.seq)
		}
		if rerr != nil || len(res) != 1 || res[0] != a.payload {
			return fmt.Errorf("seq %d wrong result %q %v", a.seq, res, rerr)
		}
		if execs[a.seq] != 1 {
			return fmt.Errorf("seq %d executed %d times", a.seq, execs[a.seq])
		}
	}
	for seq, c := range execs {
		if c > 1 {
			return fmt.Errorf("at-most-once violated: seq %d executed %d times", seq, c)
		}
	}
	// Ack durability: link cycles must drain the reply cache (the
	// reconnect Hello advertises LowSeq above every consumed reply). The
	// link spec still models loss, so the Hello itself can be lost on any
	// one cycle — the property is eventual, checked over a few cycles.
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
			return fmt.Errorf("final link cycle did not drain")
		}
	}
	if n := cached(); n != 0 {
		return fmt.Errorf("ack durability: %d cached replies survived 10 clean reconnects", n)
	}
	if verbose {
		fmt.Printf("  sim: %d/%d accepted, resent=%d, faults=%+v\n",
			len(accepted), n, cli.Stats().Resent, ffCli.Stats())
	}
	return nil
}

// ---------------------------------------------------------------------------
// pipe: the full rover facade (RDO cache, tentative invocations,
// auto-export, session guarantees) booking unique slots over a flapping,
// fault-injected in-process link. Every booking must commit exactly once
// with zero conflicts.

func runPipe(seed int64, verbose bool) error {
	rng := rand.New(rand.NewSource(seed))
	srv, err := rover.NewServer(rover.ServerOptions{ServerID: "chaos"})
	if err != nil {
		return err
	}
	obj := rover.NewObject(rover.MustParseURN("urn:rover:chaos/slots"), "slots")
	obj.Code = `
		proc book {slot who} {
			if {[state exists $slot]} { error "taken" }
			state set $slot $who
		}
	`
	if err := srv.Seed(obj); err != nil {
		return err
	}

	const clients = 2
	const perClient = 12
	var conflictMu sync.Mutex
	conflicts := 0
	clis := make([]*rover.Client, clients)
	pipes := make([]*transport.Pipe, clients)
	for ci := range clis {
		cli, err := rover.NewClient(rover.ClientOptions{
			ClientID: fmt.Sprintf("chaos-%d", ci),
			OnConflict: func(rover.URN, string) {
				conflictMu.Lock()
				conflicts++
				conflictMu.Unlock()
			},
		})
		if err != nil {
			return err
		}
		defer cli.Close()
		cli.Engine().SetCompression(*compress)
		clis[ci] = cli
		pipes[ci] = cli.ConnectPipe(srv)
		pipes[ci].SetConnected(true)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, cli := range clis {
		if _, err := cli.ImportWait(ctx, obj.URN); err != nil {
			return fmt.Errorf("import: %w", err)
		}
	}
	// Faults on only after the import so setup is not part of the chaos.
	for ci, p := range pipes {
		p.SetFaults(
			faults.NewFrameFaults(seed*10+int64(ci)*2+1, faults.FrameFaultRates{Drop: 0.05, Dup: 0.05, Corrupt: 0.05}),
			faults.NewFrameFaults(seed*10+int64(ci)*2+2, faults.FrameFaultRates{Drop: 0.05, Dup: 0.05, Corrupt: 0.05}),
		)
	}

	// Book unique slots while the links flap on a seeded schedule.
	for j := 0; j < perClient; j++ {
		for ci, cli := range clis {
			slot := fmt.Sprintf("c%d-s%d", ci, j)
			if _, err := cli.Invoke(obj.URN, "book", slot, fmt.Sprintf("chaos-%d", ci)); err != nil {
				return fmt.Errorf("invoke %s: %w", slot, err)
			}
			if rng.Float64() < 0.3 {
				pipes[ci].SetConnected(false)
			} else if rng.Float64() < 0.6 {
				pipes[ci].SetConnected(true)
			}
		}
		time.Sleep(time.Millisecond)
	}

	// Clean drain: faults off, links up, flap periodically to force
	// redelivery of anything a dropped frame stranded.
	for _, p := range pipes {
		p.SetFaults(nil, nil)
		p.SetConnected(true)
	}
	deadline := time.Now().Add(20 * time.Second)
	for ci, cli := range clis {
		for i := 0; ; i++ {
			st := cli.Status()
			if !cli.Tentative(obj.URN) && st.Queued == 0 && st.AwaitingReply == 0 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("client %d drain stalled: %+v", ci, st)
			}
			if i%50 == 49 {
				pipes[ci].SetConnected(false)
				pipes[ci].SetConnected(true)
			}
			time.Sleep(time.Millisecond)
		}
	}
	got, err := srv.Store().Get(obj.URN)
	if err != nil {
		return err
	}
	if len(got.State) != clients*perClient {
		return fmt.Errorf("store has %d bookings, want %d", len(got.State), clients*perClient)
	}
	conflictMu.Lock()
	defer conflictMu.Unlock()
	if conflicts != 0 {
		return fmt.Errorf("%d conflicts on disjoint slots", conflicts)
	}
	if verbose {
		fmt.Printf("  pipe: %d bookings committed, 0 conflicts\n", len(got.State))
	}
	return nil
}

// ---------------------------------------------------------------------------
// mail: spool loss, duplication, and relay outages under virtual time,
// with client crashes recovered from the shared stable log mid-run.

func runMail(seed int64, verbose bool) error {
	rng := rand.New(rand.NewSource(seed))
	log := stable.NewMemLog(stable.Options{})
	completions := map[uint64]int{}
	execs := map[uint64]int{}
	track := func(p *qrpc.Promise) {
		p.OnComplete(func(p *qrpc.Promise) { completions[p.Seq()]++ })
	}
	newEngine := func() (*qrpc.Client, error) {
		c, err := qrpc.NewClient(qrpc.ClientConfig{
			ClientID:    "chaos-mail",
			Log:         log,
			OnRecovered: func(_ qrpc.Request, p *qrpc.Promise) { track(p) },
		})
		if err == nil {
			c.SetCompression(*compress)
		}
		return c, err
	}
	cli, err := newEngine()
	if err != nil {
		return err
	}
	srv := qrpc.NewServer(qrpc.ServerConfig{ServerID: "chaos-relay"})
	srv.Register("echo", func(_ string, req qrpc.Request) ([]byte, error) {
		execs[req.Seq]++
		return req.Args, nil
	})

	spool := transport.NewSpool(20 * time.Millisecond)
	spool.SetFaults(seed^0x3a, 0.15, 0.15)
	ms := transport.NewMailServer(spool, "relay", srv)
	policy := faults.RetryPolicy{Initial: 50 * time.Millisecond, Max: time.Second, Multiplier: 2}
	mc := transport.NewMailClient(spool, "mobile", "relay", cli, nil)
	runner := transport.NewMailRunner(mc, policy)
	crasher := faults.NewCrasher(seed^0x77, 0.01, 3)

	accepted := map[uint64]bool{}
	const n = 20
	issued := 0
	now := vtime.Time(0)
	downUntil := 0
	for step := 0; step < 4000; step++ {
		now = now.Add(5 * time.Millisecond)
		if issued < n && rng.Float64() < 0.05 {
			p, err := cli.Enqueue("echo", []byte{byte(issued)}, qrpc.PriorityNormal, now)
			if err == nil {
				accepted[p.Seq()] = true
				track(p)
			}
			issued++
		}
		if step >= downUntil && rng.Float64() < 0.01 {
			downUntil = step + 1 + rng.Intn(100)
			spool.SetDown(true)
		}
		if step == downUntil {
			spool.SetDown(false)
		}
		if runner.Due(now) {
			runner.Tick(now)
		}
		ms.Poll(now)
		if crasher.Strike() {
			// Client process dies; the next incarnation recovers its
			// unanswered requests from the shared stable log.
			cli, err = newEngine()
			if err != nil {
				return err
			}
			mc = transport.NewMailClient(spool, "mobile", "relay", cli, nil)
			runner = transport.NewMailRunner(mc, policy)
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
		if runner.Due(now) {
			runner.Tick(now)
		}
		ms.Poll(now)
	}
	if cli.Pending() != 0 {
		return fmt.Errorf("mail drain stalled with %d pending", cli.Pending())
	}
	for seq := range accepted {
		if completions[seq] == 0 {
			return fmt.Errorf("accepted seq %d lost across %d crashes", seq, crasher.Crashes())
		}
	}
	for seq, c := range execs {
		if c > 1 {
			return fmt.Errorf("at-most-once violated: seq %d executed %d times", seq, c)
		}
	}
	if verbose {
		st := spool.Stats()
		fmt.Printf("  mail: %d accepted, crashes=%d, spool drops=%d/%d dups=%d\n",
			len(accepted), crasher.Crashes(), st.DroppedDown, st.DroppedLoss, st.Duplicated)
	}
	return nil
}

// ---------------------------------------------------------------------------
// crash: engine crash/restart cycles over a real file-backed log and an
// in-process link, including torn trailing writes injected at crash time —
// the full recovery path (CRC validation, torn-tail truncation, replay).

func runCrash(seed int64, verbose bool) error {
	rng := rand.New(rand.NewSource(seed))
	dir, err := tempDir("rover-chaos")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "wal")
	clock := vtime.NewRealClock()

	var mu sync.Mutex // completions/execs touched from pump goroutines
	completions := map[uint64]int{}
	execs := map[uint64]int{}
	srv := qrpc.NewServer(qrpc.ServerConfig{ServerID: "chaos-crash"})
	srv.Register("echo", func(_ string, req qrpc.Request) ([]byte, error) {
		mu.Lock()
		execs[req.Seq]++
		mu.Unlock()
		return req.Args, nil
	})
	track := func(p *qrpc.Promise) {
		p.OnComplete(func(p *qrpc.Promise) {
			mu.Lock()
			completions[p.Seq()]++
			mu.Unlock()
		})
	}
	open := func() (*qrpc.Client, *stable.FileLog, error) {
		flog, err := stable.OpenFileLog(path, stable.Options{})
		if err != nil {
			return nil, nil, err
		}
		cli, err := qrpc.NewClient(qrpc.ClientConfig{
			ClientID:    "chaos-crash",
			Log:         flog,
			OnRecovered: func(_ qrpc.Request, p *qrpc.Promise) { track(p) },
		})
		if err != nil {
			flog.Close()
			return nil, nil, err
		}
		cli.SetCompression(*compress)
		return cli, flog, nil
	}

	cli, flog, err := open()
	if err != nil {
		return err
	}
	pipe := transport.NewPipe(cli, srv, nil)
	pipe.SetConnected(true)

	accepted := map[uint64]bool{}
	const rounds = 4
	for r := 0; r < rounds; r++ {
		for i := 0; i < 6; i++ {
			p, err := cli.Enqueue("echo", []byte{byte(r*10 + i)}, qrpc.PriorityNormal, clock.Now())
			if err == nil {
				mu.Lock()
				accepted[p.Seq()] = true
				mu.Unlock()
				track(p)
			}
			pipe.Kick()
		}
		// Let some requests complete (and their log records be removed)
		// before the crash, so replay sees a mixed log.
		time.Sleep(time.Duration(rng.Intn(10)+2) * time.Millisecond)

		// Crash: link gone, log file closed mid-stream.
		pipe.SetConnected(false)
		pipe.Close()
		flog.Close()

		injectTorn := rng.Float64() < 0.5
		if injectTorn {
			// Simulate a torn append: the prefix of a valid record (the
			// file's own first bytes are one) written but cut short by the
			// crash. Recovery must truncate it and keep everything before.
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if len(data) >= 8 {
				f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					return err
				}
				if _, err := f.Write(data[:3]); err != nil {
					f.Close()
					return err
				}
				f.Close()
			} else {
				injectTorn = false
			}
		}

		cli, flog, err = open()
		if err != nil {
			return fmt.Errorf("round %d recovery failed: %w", r, err)
		}
		if injectTorn && flog.TornTail() == nil {
			return fmt.Errorf("round %d: injected torn tail not detected", r)
		}
		pipe = transport.NewPipe(cli, srv, nil)
		pipe.SetConnected(true)
	}
	defer pipe.Close()
	defer flog.Close()

	// Drain: flap periodically so redelivery covers anything stranded.
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; cli.Pending() > 0; i++ {
		if time.Now().After(deadline) {
			return fmt.Errorf("crash drain stalled with %d pending", cli.Pending())
		}
		if i%50 == 49 {
			pipe.SetConnected(false)
			pipe.SetConnected(true)
		}
		pipe.Kick()
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for seq := range accepted {
		if completions[seq] == 0 {
			return fmt.Errorf("accepted seq %d never completed across restarts", seq)
		}
	}
	for seq, c := range execs {
		if c > 1 {
			return fmt.Errorf("at-most-once violated: seq %d executed %d times", seq, c)
		}
	}
	if verbose {
		fmt.Printf("  crash: %d requests across %d restarts, all recovered\n", len(accepted), rounds)
	}
	return nil
}

// ---------------------------------------------------------------------------
// crash-server: server crash/rebuild cycles over a file-backed SESSION
// JOURNAL. The client survives; the server dies repeatedly — sometimes from
// a scheduled strike, sometimes because a dirty journal append poisoned it
// (record durable, caller saw an error: crash-before-ack), sometimes with a
// torn trailing write injected into the journal file. Exactly-once must
// hold across every rebuild: a request whose exec record reached the
// journal is never re-executed (the recovered reply cache answers its
// redelivery), every accepted request eventually completes, and background
// compaction keeps the journal bounded by live session state.
//
// The fault mix is deliberately AppendDirty-only: a dirty append means the
// record IS durable, so every handler execution has a durable exec record
// and the invariant is strict (execs per seq ≤ 1, ever) — no "clean append
// failure" escape hatch where a legitimate re-execution would be allowed.

func runCrashServer(seed int64, verbose bool) error {
	if *useStoreDir {
		return runCrashServerStore(seed, verbose)
	}
	return runCrashServerJournal(seed, verbose)
}

func runCrashServerJournal(seed int64, verbose bool) error {
	rng := rand.New(rand.NewSource(seed))
	dir, err := tempDir("rover-chaos-jsrv")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	jpath := filepath.Join(dir, "journal")
	clock := vtime.NewRealClock()

	var mu sync.Mutex // completions/execs touched from pool goroutines
	completions := map[uint64]int{}
	execs := map[uint64]int{}
	cli, err := qrpc.NewClient(qrpc.ClientConfig{ClientID: "chaos-jsrv", Log: stable.NewMemLog(stable.Options{})})
	if err != nil {
		return err
	}
	cli.SetCompression(*compress)
	track := func(p *qrpc.Promise) {
		p.OnComplete(func(p *qrpc.Promise) {
			mu.Lock()
			completions[p.Seq()]++
			mu.Unlock()
		})
	}

	const compactEvery = 8
	shards := *journShards
	if shards < 1 {
		shards = 1
	}
	shardPath := func(i int) string {
		if i == 0 {
			return jpath
		}
		return fmt.Sprintf("%s.s%d", jpath, i)
	}
	var (
		srv          *qrpc.Server
		flogs        []*stable.FileLog
		jfaults      []*faults.Log
		pipe         *transport.Pipe
		incarnations int
		compactions  int64
		faultsOn     = true
	)
	// boot opens (or reopens) the journal shards and builds a fresh server
	// incarnation from them, alternating between inline and pooled execution.
	boot := func() error {
		flogs, jfaults = flogs[:0], jfaults[:0]
		logs := make([]stable.Log, 0, shards)
		for i := 0; i < shards; i++ {
			fl, err := stable.OpenFileLog(shardPath(i), stable.Options{})
			if err != nil {
				for _, open := range flogs {
					open.Close()
				}
				return fmt.Errorf("incarnation %d journal shard %d open: %w", incarnations, i, err)
			}
			jf := faults.WrapLog(fl, seed^0x6a+int64(incarnations)*101+int64(i)*17, faults.LogFaultRates{AppendDirty: 0.10})
			jf.SetEnabled(faultsOn)
			flogs, jfaults = append(flogs, fl), append(jfaults, jf)
			logs = append(logs, jf)
		}
		s := qrpc.NewServer(qrpc.ServerConfig{
			ServerID:            "chaos-home",
			Journals:            logs,
			JournalCompactEvery: compactEvery,
			Workers:             []int{0, 2, 3}[incarnations%3],
		})
		if err := s.JournalError(); err != nil {
			for _, fl := range flogs {
				fl.Close()
			}
			return fmt.Errorf("incarnation %d recovery: %w", incarnations, err)
		}
		s.Register("echo", func(_ string, req qrpc.Request) ([]byte, error) {
			mu.Lock()
			execs[req.Seq]++
			mu.Unlock()
			return req.Args, nil
		})
		srv = s
		pipe = transport.NewPipe(cli, srv, nil)
		pipe.SetConnected(true)
		incarnations++
		return nil
	}
	// crash kills the current incarnation (link gone, journal files closed,
	// optionally a torn trailing write on one randomly chosen shard) and
	// boots the next one.
	crash := func(torn bool) error {
		pipe.SetConnected(false)
		pipe.Close()
		srv.Close() // waits out background compaction, so the count below is final
		compactions += srv.Stats().JournalCompactions
		for _, fl := range flogs {
			fl.Close()
		}
		if torn {
			victim := shardPath(rng.Intn(shards))
			if data, err := os.ReadFile(victim); err == nil && len(data) >= 8 {
				if f, err := os.OpenFile(victim, os.O_APPEND|os.O_WRONLY, 0); err == nil {
					f.Write(data[:3]) // prefix of a valid record, cut short
					f.Close()
				}
			}
		}
		return boot()
	}
	if err := boot(); err != nil {
		return err
	}

	crasher := faults.NewCrasher(seed^0x55, 0.04, 3)
	accepted := map[uint64]bool{}
	const rounds = 4
	for r := 0; r < rounds; r++ {
		for i := 0; i < 8; i++ {
			p, err := cli.Enqueue("echo", []byte{byte(r*10 + i)}, qrpc.PriorityNormal, clock.Now())
			if err == nil {
				mu.Lock()
				accepted[p.Seq()] = true
				mu.Unlock()
				track(p)
			}
			pipe.Kick()
			if crasher.Strike() {
				if err := crash(rng.Float64() < 0.3); err != nil {
					return err
				}
			}
		}
		// Let some replies land (and acks prune) before the round's crash.
		time.Sleep(time.Duration(rng.Intn(8)+2) * time.Millisecond)
		if err := crash(rng.Float64() < 0.5); err != nil {
			return err
		}
	}

	// Clean drain: journal faults off. A server already poisoned by an
	// earlier dirty append stops releasing replies — that IS a crash point,
	// so rebuild when we see one. Flap the link so redelivery covers
	// anything stranded.
	faultsOn = false
	for _, jf := range jfaults {
		jf.SetEnabled(false)
	}
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; cli.Pending() > 0; i++ {
		if time.Now().After(deadline) {
			return fmt.Errorf("crash-server drain stalled with %d pending (journal err: %v)", cli.Pending(), srv.JournalError())
		}
		if srv.JournalError() != nil {
			if err := crash(false); err != nil {
				return err
			}
		}
		if i%50 == 49 {
			pipe.SetConnected(false)
			pipe.SetConnected(true)
		}
		pipe.Kick()
		time.Sleep(time.Millisecond)
	}
	pipe.Close()
	srv.Close() // waits out background compaction
	compactions += srv.Stats().JournalCompactions
	liveRecords := 0
	for _, fl := range flogs {
		liveRecords += fl.Len()
		fl.Close()
	}

	mu.Lock()
	defer mu.Unlock()
	for seq := range accepted {
		if completions[seq] == 0 {
			return fmt.Errorf("accepted seq %d never completed across %d server incarnations", seq, incarnations)
		}
	}
	for seq, c := range execs {
		if c > 1 {
			return fmt.Errorf("exactly-once violated: seq %d executed %d times across server restarts", seq, c)
		}
	}
	if compactions == 0 {
		return fmt.Errorf("journal never compacted across %d incarnations (%d live records)", incarnations, liveRecords)
	}
	// Bounded: live records stay near the compaction threshold per shard
	// (snapshot + one window + slack for appends racing the final
	// compaction), not the full request history.
	if liveRecords > 3*compactEvery*shards {
		return fmt.Errorf("journal unbounded: %d live records across %d shards after %d compactions (threshold %d)",
			liveRecords, shards, compactions, compactEvery)
	}
	if verbose {
		fmt.Printf("  crash-server: %d requests, %d incarnations, %d compactions, %d live records across %d shards\n",
			len(accepted), incarnations, compactions, liveRecords, shards)
	}
	return nil
}

// ---------------------------------------------------------------------------
// crash-server -store-dir: the same server-dies-repeatedly discipline, but
// the incarnations run the DISK-BACKED object store under a booking
// workload. Every committed booking is durable in the store segment before
// the client sees its reply, so across crash/rebuild cycles — including
// torn trailing writes on the segment and on journal shards — the scenario
// asserts: zero lost committed objects (every acknowledged booking is in
// the recovered store), at-most-once intact (zero conflicts — a
// doubly-applied booking errors "taken"), segment compaction actually ran,
// and recovery leaves the store directory holding exactly the live segment
// (an orphaned file is a violation and exits nonzero).

func dsObject() *rover.Object {
	obj := rover.NewObject(rover.MustParseURN("urn:rover:home/slots"), "slots")
	obj.Code = `
		proc book {slot who} {
			if {[state exists $slot]} { error "taken" }
			state set $slot $who
		}
	`
	return obj
}

func runCrashServerStore(seed int64, verbose bool) error {
	rng := rand.New(rand.NewSource(seed))
	dir, err := tempDir("rover-chaos-dstore")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sdir := filepath.Join(dir, "store")
	jpath := filepath.Join(dir, "journal")
	u := rover.MustParseURN("urn:rover:home/slots")
	shards := *journShards
	if shards < 1 {
		shards = 1
	}

	var conflictMu sync.Mutex
	conflicts := 0
	cli, err := rover.NewClient(rover.ClientOptions{
		ClientID: "chaos-dstore",
		OnConflict: func(rover.URN, string) {
			conflictMu.Lock()
			conflicts++
			conflictMu.Unlock()
		},
	})
	if err != nil {
		return err
	}
	defer cli.Close()
	cli.Engine().SetCompression(*compress)

	var (
		srv          *rover.Server
		pipe         *transport.Pipe
		incarnations int
		compactions  int64
	)
	// boot builds the next server incarnation over the SAME store and
	// journal directories, then audits the recovered store directory: after
	// Open's crash-leftover cleanup it must hold exactly the live segment.
	cache := *storeCache
	if cache <= 0 {
		cache = 1 << 12 // tiny cache: most reads fault in from the segment
	}
	compactEvery := *storeCompact
	if compactEvery <= 0 {
		compactEvery = 8
	}
	boot := func() error {
		s, err := rover.NewServer(rover.ServerOptions{
			ServerID:          "chaos-home",
			StoreDir:          sdir,
			StoreCacheBytes:   cache,
			StoreCompactEvery: compactEvery,
			JournalPath:       jpath,
			JournalShards:     shards,
			Autotune:          *useAutotune,
			// Fast controller period and a zero fsync threshold so a short
			// chaos schedule actually exercises online shard growth; the
			// next incarnation must adopt the grown shard files.
			AutotuneInterval:  5 * time.Millisecond,
			AutotuneFsyncCost: time.Nanosecond,
		})
		if err != nil {
			return fmt.Errorf("incarnation %d boot: %w", incarnations, err)
		}
		ents, derr := os.ReadDir(sdir)
		if derr != nil {
			s.Close()
			return derr
		}
		for _, e := range ents {
			// store.fidx is the index-footer sidecar a clean close or
			// compaction leaves beside the segment — live state, not an orphan.
			if e.Name() != "store.seg" && e.Name() != "store.fidx" {
				s.Close()
				return fmt.Errorf("incarnation %d: orphaned file %q in store dir after recovery", incarnations, e.Name())
			}
		}
		if incarnations == 0 {
			if err := s.Seed(dsObject()); err != nil {
				s.Close()
				return err
			}
		}
		srv = s
		pipe = cli.ConnectPipe(s)
		pipe.SetConnected(true)
		incarnations++
		return nil
	}
	// crash kills the incarnation and optionally injects torn trailing
	// writes — a partial record on the store segment, a cut-short record on
	// a random journal shard — before the next boot recovers both.
	crash := func(tornStore, tornJournal bool) error {
		pipe.SetConnected(false)
		pipe.Close()
		compactions += srv.StoreStats().Compactions
		srv.Close()
		if tornStore {
			seg := filepath.Join(sdir, "store.seg")
			if data, err := os.ReadFile(seg); err == nil && len(data) >= 8 {
				if f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0); err == nil {
					f.Write(data[:3]) // prefix of a record, cut short
					f.Close()
				}
			}
		}
		if tornJournal {
			victim := jpath
			if k := rng.Intn(shards); k > 0 {
				victim = fmt.Sprintf("%s.s%d", jpath, k)
			}
			if data, err := os.ReadFile(victim); err == nil && len(data) >= 8 {
				if f, err := os.OpenFile(victim, os.O_APPEND|os.O_WRONLY, 0); err == nil {
					f.Write(data[:3])
					f.Close()
				}
			}
		}
		// A crash mid-compaction leaves a half-written rewrite beside the
		// segment; recovery must discard it, never adopt it.
		if rng.Float64() < 0.5 {
			os.WriteFile(filepath.Join(sdir, "store.seg.compact"), []byte("half-written rewrite"), 0o600)
		}
		return boot()
	}
	if err := boot(); err != nil {
		return err
	}

	ictx, icancel := context.WithTimeout(context.Background(), 10*time.Second)
	_, ierr := cli.Import(u, rover.ImportOptions{}).Wait(ictx)
	icancel()
	if ierr != nil {
		return fmt.Errorf("import: %w", ierr)
	}

	crasher := faults.NewCrasher(seed^0x77, 0.12, 2)
	var booked []string
	const cycles = 5 // ≥ 4 crash/rebuild cycles (the acceptance floor) plus slack
	for c := 0; c < cycles; c++ {
		for j := 0; j < 6; j++ {
			slot := fmt.Sprintf("c%d-s%d", c, j)
			if _, err := cli.Invoke(u, "book", slot, "mobile"); err != nil {
				return fmt.Errorf("invoke %s: %w", slot, err)
			}
			booked = append(booked, slot)
			pipe.Kick()
			if crasher.Strike() {
				if err := crash(rng.Float64() < 0.5, rng.Float64() < 0.5); err != nil {
					return err
				}
			}
		}
		// Let exports land mid-flight, then the cycle's guaranteed crash.
		time.Sleep(time.Duration(rng.Intn(6)+2) * time.Millisecond)
		if err := crash(rng.Float64() < 0.5, rng.Float64() < 0.5); err != nil {
			return err
		}
		// Drain: flap the link until the client holds no tentative state.
		deadline := time.Now().Add(20 * time.Second)
		for flaps := 0; ; flaps++ {
			st := cli.Status()
			if !cli.Tentative(u) && st.Queued == 0 && st.AwaitingReply == 0 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("cycle %d: client never drained: %+v", c, st)
			}
			if flaps%20 == 19 {
				pipe.SetConnected(false)
				pipe.SetConnected(true)
			}
			pipe.Kick()
			time.Sleep(time.Millisecond)
		}
		// Quiesce invariants: every booking committed exactly once, in the
		// store that has by now survived multiple rebuilds.
		got, err := srv.Store().Get(u)
		if err != nil {
			return fmt.Errorf("cycle %d: %w", c, err)
		}
		if len(got.State) != len(booked) {
			return fmt.Errorf("cycle %d: store has %d bookings, want %d", c, len(got.State), len(booked))
		}
		for _, s := range booked {
			if v, ok := got.Get(s); !ok || v != "mobile" {
				return fmt.Errorf("cycle %d: committed booking %s lost or wrong (%q) across %d incarnations", c, s, v, incarnations)
			}
		}
		conflictMu.Lock()
		nc := conflicts
		conflictMu.Unlock()
		if nc != 0 {
			return fmt.Errorf("cycle %d: %d conflicts — an accepted booking was applied twice", c, nc)
		}
	}
	compactions += srv.StoreStats().Compactions
	if compactions == 0 {
		return fmt.Errorf("store segment never compacted across %d incarnations (%d mutations)", incarnations, len(booked))
	}
	if incarnations < 5 {
		return fmt.Errorf("only %d incarnations; the schedule must rebuild the server at least 5 times", incarnations)
	}
	pipe.Close()
	if err := srv.Close(); err != nil {
		return fmt.Errorf("final close: %w", err)
	}
	if verbose {
		fmt.Printf("  crash-server/store: %d bookings, %d incarnations, %d compactions, %d journal shards, 0 conflicts\n",
			len(booked), incarnations, compactions, shards)
	}
	return nil
}

// ---------------------------------------------------------------------------
// crash-primary: a replicated home pair under total-loss primary crashes.
// Two full Rover servers replicate to each other; a client books unique
// slots against whichever replica it can reach. Every cycle the client's
// current server is crashed outright — store, session state, and
// replication queue all gone — and rebuilt empty; the client fails over to
// the survivor (re-running the exactly-once handshake, so redelivered
// exports are absorbed by the replicated history/reply caches) and the
// rebuilt replica catches back up by anti-entropy. Invariants, checked at
// every cycle's quiesce:
//
//   - no lost accepted work: every booking the client issued is in the
//     store, with the right value;
//   - strict at-most-once: zero conflicts — a doubly-applied booking would
//     error "taken" and surface as one;
//   - convergence: both replicas' store snapshots are byte-identical;
//   - bounded lag: both replication streams are fully drained (Lag()==0),
//     and the doomed primary's stream drains within a deadline before
//     every crash.
//
// The scenario runs twice per schedule: once over netsim virtual-time
// links (deterministic) and once over real TCP with a multi-address
// failover transport.

const (
	cpCycles    = 4 // primary crash/rebuild cycles (the ISSUE floor)
	cpPerCycle  = 6 // bookings per cycle
	cpAuthority = "pair"
)

func cpObject() *rover.Object {
	obj := rover.NewObject(rover.MustParseURN("urn:rover:pair/slots"), "slots")
	obj.Code = `
		proc book {slot who} {
			if {[state exists $slot]} { error "taken" }
			state set $slot $who
		}
	`
	return obj
}

// cpCheck asserts the per-cycle quiesce invariants shared by both variants.
func cpCheck(cycle int, srvA, srvB *rover.Server, repA, repB *repl.Replicator, booked []string, conflicts int) error {
	if lagA, lagB := repA.Lag(), repB.Lag(); lagA != 0 || lagB != 0 {
		return fmt.Errorf("cycle %d: replication lag at quiesce: %d/%d", cycle, lagA, lagB)
	}
	sa, sb := srvA.Store().Snapshot(), srvB.Store().Snapshot()
	if !bytes.Equal(sa, sb) {
		return fmt.Errorf("cycle %d: replica stores diverged at quiesce (%d vs %d bytes)", cycle, len(sa), len(sb))
	}
	u := rover.MustParseURN("urn:rover:pair/slots")
	got, err := srvA.Store().Get(u)
	if err != nil {
		return fmt.Errorf("cycle %d: %w", cycle, err)
	}
	if len(got.State) != len(booked) {
		return fmt.Errorf("cycle %d: store has %d bookings, want %d", cycle, len(got.State), len(booked))
	}
	for _, s := range booked {
		if v, ok := got.Get(s); !ok || v != "mobile" {
			return fmt.Errorf("cycle %d: booking %s lost or wrong (%q)", cycle, s, v)
		}
	}
	if conflicts != 0 {
		return fmt.Errorf("cycle %d: %d conflicts — an accepted booking was applied twice", cycle, conflicts)
	}
	return nil
}

func runCrashPrimary(seed int64, verbose bool) error {
	if err := runCrashPrimarySim(seed, verbose); err != nil {
		return fmt.Errorf("netsim: %w", err)
	}
	if err := runCrashPrimaryTCP(seed, verbose); err != nil {
		return fmt.Errorf("tcp: %w", err)
	}
	return nil
}

// runCrashPrimarySim is the deterministic variant: both replicas, both
// replication streams, and the client all run over netsim links under one
// virtual-time scheduler (inline server execution, scheduler clock).
func runCrashPrimarySim(seed int64, verbose bool) error {
	sched := vtime.NewScheduler()
	clock := vtime.SchedulerClock{S: sched}
	spec := netsim.WaveLAN2 // clean link: the injected failures are crashes
	u := rover.MustParseURN("urn:rover:pair/slots")
	ids := [2]string{"pair-a", "pair-b"}

	var (
		srvs    [2]*rover.Server
		reps    [2]*repl.Replicator
		replSim [2]*transport.Sim // replSim[i]: reps[i] stream -> srvs[1-i]
		cliSim  *transport.Sim
		simSeed = seed * 100
		inc     int
	)
	newSim := func(c *qrpc.Client, s *qrpc.Server) *transport.Sim {
		simSeed++
		return transport.NewSim(sched, spec, simSeed, c, s)
	}
	boot := func(i int) error {
		srv, err := rover.NewServer(rover.ServerOptions{ServerID: ids[i], Workers: -1})
		if err != nil {
			return err
		}
		inc++
		rep, err := srv.EnableReplication(rover.ReplicationOptions{Clock: clock, Instance: fmt.Sprintf("i%d", inc)})
		if err != nil {
			return err
		}
		srvs[i], reps[i] = srv, rep
		return nil
	}
	// wireRepl (re)builds both replication links against the CURRENT
	// engines; called at start and after every rebuild.
	wireRepl := func() {
		for i := 0; i < 2; i++ {
			replSim[i] = newSim(reps[i].Client(), srvs[1-i].Engine())
			srvs[i].AttachPeerTransport(replSim[i])
		}
	}
	if err := boot(0); err != nil {
		return err
	}
	if err := boot(1); err != nil {
		return err
	}
	wireRepl()

	if err := srvs[0].Seed(cpObject()); err != nil {
		return err
	}
	if _, drained := sched.Run(1_000_000); !drained {
		return fmt.Errorf("seed replication did not drain")
	}
	if !bytes.Equal(srvs[0].Store().Snapshot(), srvs[1].Store().Snapshot()) {
		return fmt.Errorf("replicas diverged after seeding")
	}

	conflicts := 0 // single-threaded under the scheduler
	cli, err := rover.NewClient(rover.ClientOptions{
		ClientID:   "pair-mobile",
		Clock:      clock,
		OnConflict: func(rover.URN, string) { conflicts++ },
	})
	if err != nil {
		return err
	}
	defer cli.Close()
	primary := 0 // index of the replica the client is attached to
	cliSim = newSim(cli.Engine(), srvs[primary].Engine())
	cli.AttachTransport(cliSim)
	imp := cli.Import(u, rover.ImportOptions{})
	sched.Run(1_000_000)
	if _, ierr, ok := imp.Result(); !ok || ierr != nil {
		return fmt.Errorf("import did not complete: %v", ierr)
	}

	crash := func() error {
		// 1. Cut the client off first: nothing further can be ACCEPTED by
		//    the doomed primary, so the no-loss invariant stays strict.
		cliSim.Duplex().SetUp(false)
		// 2. Bounded replication lag: the primary's stream must flush to
		//    the survivor before the crash lands — this is exactly the
		//    window asynchronous replication leaves open, and the bound
		//    the scenario asserts.
		for i := 0; reps[primary].Lag() > 0; i++ {
			if i >= 10_000 {
				return fmt.Errorf("pre-crash lag never drained (lag=%d)", reps[primary].Lag())
			}
			sched.RunFor(time.Millisecond)
		}
		// 3. Crash: both replication links die with the process.
		replSim[0].Duplex().SetUp(false)
		replSim[1].Duplex().SetUp(false)
		srvs[primary].Close()
		// 4. Rebuild from nothing: empty store, fresh replication
		//    identity (the old incarnation's peer session is dead with it).
		if err := boot(primary); err != nil {
			return err
		}
		wireRepl() // reconnect fires the survivor's anti-entropy sweep
		// 5. Client failover to the survivor: the QRPC handshake re-runs
		//    there and every unreplied request redelivers.
		primary = 1 - primary
		cliSim = newSim(cli.Engine(), srvs[primary].Engine())
		cli.AttachTransport(cliSim)
		return nil
	}

	crasher := faults.NewCrasher(seed^0x9c, 0.3, cpCycles)
	var booked []string
	for c := 0; c < cpCycles; c++ {
		struck := false
		for j := 0; j < cpPerCycle; j++ {
			slot := fmt.Sprintf("c%d-s%d", c, j)
			if _, err := cli.Invoke(u, "book", slot, "mobile"); err != nil {
				return fmt.Errorf("invoke %s: %w", slot, err)
			}
			booked = append(booked, slot)
			// Partial drain on purpose: frames (exports, replies,
			// replication records) stay in flight across the crash point.
			sched.RunFor(time.Millisecond)
			if !struck && (crasher.Strike() || j == cpPerCycle-1) {
				if err := crash(); err != nil {
					return fmt.Errorf("cycle %d: %w", c, err)
				}
				struck = true
			}
		}
		if _, drained := sched.Run(5_000_000); !drained {
			return fmt.Errorf("cycle %d did not drain (pending=%d)", c, sched.Pending())
		}
		for flaps := 0; ; flaps++ {
			st := cli.Status()
			if !cli.Tentative(u) && st.Queued == 0 && st.AwaitingReply == 0 {
				break
			}
			if flaps >= 8 {
				return fmt.Errorf("cycle %d: client never drained: %+v", c, st)
			}
			cliSim.Duplex().SetUp(false)
			cliSim.Duplex().SetUp(true)
			sched.Run(5_000_000)
		}
		if err := cpCheck(c, srvs[0], srvs[1], reps[0], reps[1], booked, conflicts); err != nil {
			return err
		}
	}
	if verbose {
		var st repl.Stats
		for i := 0; i < 2; i++ {
			s := reps[i].Stats()
			st.Applied += s.Applied
			st.CatchUps += s.CatchUps
			st.FullSyncs += s.FullSyncs
			st.DigestSweeps += s.DigestSweeps
			st.ExecInstalled += s.ExecInstalled
		}
		fmt.Printf("  crash-primary/sim: %d bookings, %d crashes, applied=%d catchups=%d fullsyncs=%d sweeps=%d execs=%d dupExports=%d/%d\n",
			len(booked), crasher.Crashes(), st.Applied, st.CatchUps, st.FullSyncs, st.DigestSweeps, st.ExecInstalled,
			srvs[0].ServerStats().DuplicateExports, srvs[1].ServerStats().DuplicateExports)
	}
	return nil
}

// runCrashPrimaryTCP is the real-network variant: both replicas listen on
// TCP, replication dials peer listeners, and the client uses the
// multi-address failover transport (DialTCPMulti) so a dead primary
// rotates it to the survivor.
func runCrashPrimaryTCP(seed int64, verbose bool) error {
	u := rover.MustParseURN("urn:rover:pair/slots")
	ids := [2]string{"pair-a", "pair-b"}

	var (
		srvs  [2]*rover.Server
		reps  [2]*repl.Replicator
		lns   [2]*transport.TCPServer
		addrs [2]string
		inc   int
	)
	// boot builds one replica. Replication is enabled BEFORE the listener
	// so the peer's records can never race the service registration; the
	// listener retries briefly because a rebuild rebinds the old port.
	boot := func(i int, addr, peerAddr string) error {
		srv, err := rover.NewServer(rover.ServerOptions{ServerID: ids[i]})
		if err != nil {
			return err
		}
		inc++
		rep, err := srv.EnableReplication(rover.ReplicationOptions{Instance: fmt.Sprintf("i%d", inc)})
		if err != nil {
			srv.Close()
			return err
		}
		var ln *transport.TCPServer
		for attempt := 0; ; attempt++ {
			ln, err = srv.ListenTCP(addr)
			if err == nil {
				break
			}
			if attempt >= 200 {
				srv.Close()
				return fmt.Errorf("rebind %s: %w", addr, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if peerAddr != "" {
			if err := srv.ConnectPeerTCP(peerAddr); err != nil {
				ln.Close()
				srv.Close()
				return err
			}
		}
		srvs[i], reps[i], lns[i] = srv, rep, ln
		addrs[i] = ln.Addr()
		return nil
	}
	if err := boot(0, "127.0.0.1:0", ""); err != nil {
		return err
	}
	if err := boot(1, "127.0.0.1:0", addrs[0]); err != nil {
		return err
	}
	if err := srvs[0].ConnectPeerTCP(addrs[1]); err != nil {
		return err
	}
	defer func() {
		for i := 0; i < 2; i++ {
			if lns[i] != nil {
				lns[i].Close()
			}
			if srvs[i] != nil {
				srvs[i].Close()
			}
		}
	}()

	if err := srvs[0].Seed(cpObject()); err != nil {
		return err
	}
	waitConverged := func(what string) error {
		deadline := time.Now().Add(20 * time.Second)
		for {
			if reps[0].Lag() == 0 && reps[1].Lag() == 0 &&
				bytes.Equal(srvs[0].Store().Snapshot(), srvs[1].Store().Snapshot()) {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: replicas did not converge (lag %d/%d)", what, reps[0].Lag(), reps[1].Lag())
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := waitConverged("seeding"); err != nil {
		return err
	}

	var conflictMu sync.Mutex
	conflicts := 0
	cli, err := rover.NewClient(rover.ClientOptions{
		ClientID: "pair-mobile",
		OnConflict: func(rover.URN, string) {
			conflictMu.Lock()
			conflicts++
			conflictMu.Unlock()
		},
	})
	if err != nil {
		return err
	}
	defer cli.Close()
	tcli := transport.DialTCPMulti([]string{addrs[0], addrs[1]}, cli.Engine(), nil, transport.TCPClientOptions{
		InitialBackoff: 5 * time.Millisecond,
		MaxBackoff:     100 * time.Millisecond,
		DialTimeout:    time.Second,
	})
	cli.AttachTransport(tcli)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := cli.ImportWait(ctx, u); err != nil {
		return fmt.Errorf("import: %w", err)
	}

	crash := func() error {
		// The primary is whichever replica the client currently targets.
		pi := 0
		if tcli.CurrentAddr() == addrs[1] {
			pi = 1
		}
		rotBefore := tcli.Rotations()
		// 1. Cut clients off: the listener dies first, so nothing further
		//    can be accepted by the doomed primary.
		lns[pi].Close()
		// 2. Bounded lag: flush the primary's replication stream to the
		//    survivor within a deadline.
		deadline := time.Now().Add(10 * time.Second)
		for reps[pi].Lag() > 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("pre-crash lag never drained (lag=%d)", reps[pi].Lag())
			}
			time.Sleep(time.Millisecond)
		}
		// 3. Crash.
		srvs[pi].Close()
		srvs[pi], lns[pi] = nil, nil
		// 4. Hold the server down until the client has actually rotated to
		//    the survivor — the failover under test.
		for tcli.Rotations() == rotBefore {
			if time.Now().After(deadline) {
				return fmt.Errorf("client never failed over after crash")
			}
			tcli.Kick()
			time.Sleep(time.Millisecond)
		}
		// 5. Rebuild empty on the same address; the survivor's dial loop
		//    reconnects and its sweep rebuilds the store by anti-entropy.
		return boot(pi, addrs[pi], addrs[1-pi])
	}

	crasher := faults.NewCrasher(seed^0x7d, 0.3, cpCycles)
	var booked []string
	for c := 0; c < cpCycles; c++ {
		struck := false
		for j := 0; j < cpPerCycle; j++ {
			slot := fmt.Sprintf("c%d-s%d", c, j)
			if _, err := cli.Invoke(u, "book", slot, "mobile"); err != nil {
				return fmt.Errorf("invoke %s: %w", slot, err)
			}
			booked = append(booked, slot)
			time.Sleep(2 * time.Millisecond)
			if !struck && (crasher.Strike() || j == cpPerCycle-1) {
				if err := crash(); err != nil {
					return fmt.Errorf("cycle %d: %w", c, err)
				}
				struck = true
			}
		}
		deadline := time.Now().Add(20 * time.Second)
		for {
			st := cli.Status()
			if !cli.Tentative(u) && st.Queued == 0 && st.AwaitingReply == 0 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("cycle %d drain stalled: %+v", c, st)
			}
			tcli.Kick()
			time.Sleep(time.Millisecond)
		}
		if err := waitConverged(fmt.Sprintf("cycle %d", c)); err != nil {
			return err
		}
		conflictMu.Lock()
		nConf := conflicts
		conflictMu.Unlock()
		if err := cpCheck(c, srvs[0], srvs[1], reps[0], reps[1], booked, nConf); err != nil {
			return err
		}
	}
	if tcli.Rotations() < cpCycles {
		return fmt.Errorf("client rotated only %d times across %d primary crashes", tcli.Rotations(), cpCycles)
	}
	if verbose {
		fmt.Printf("  crash-primary/tcp: %d bookings, %d crashes, %d rotations, dupExports=%d/%d execInstalled=%d/%d\n",
			len(booked), crasher.Crashes(), tcli.Rotations(),
			srvs[0].ServerStats().DuplicateExports, srvs[1].ServerStats().DuplicateExports,
			reps[0].Stats().ExecInstalled, reps[1].Stats().ExecInstalled)
	}
	return nil
}
