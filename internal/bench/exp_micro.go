package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rover"
	"rover/internal/netsim"
	"rover/internal/qrpc"
	"rover/internal/stable"
	"rover/internal/vtime"
)

// echoService registers a null-RPC echo on a stack's server engine.
func echoService(s *SimStack, replySize int) {
	s.Server.Engine().Register("bench.echo", func(_ string, req qrpc.Request) ([]byte, error) {
		return make([]byte, replySize), nil
	})
}

// steadyQRPC measures the mean round-trip of `calls` serial null QRPCs of
// argSize bytes after one warmup call (which also absorbs the session
// handshake). It returns the mean per-call latency in virtual time.
func steadyQRPC(s *SimStack, argSize, replySize, calls int) (time.Duration, error) {
	echoService(s, replySize)
	eng := s.Client.Engine()
	var start vtime.Time
	var total time.Duration
	done := 0
	var issue func()
	issue = func() {
		start = s.Sched.Now()
		p, err := eng.Enqueue("bench.echo", make([]byte, argSize), qrpc.PriorityNormal, s.Sched.Now())
		mustNil(err)
		s.Link.Kick()
		p.OnComplete(func(*qrpc.Promise) {
			elapsed := s.Sched.Now().Sub(start)
			done++
			if done > 1 { // skip the warmup
				total += elapsed
			}
			if done < calls+1 {
				issue()
			}
		})
	}
	issue()
	s.Run()
	if done != calls+1 {
		return 0, fmt.Errorf("bench: completed %d of %d calls", done, calls+1)
	}
	return total / time.Duration(calls), nil
}

// steadyBareRPC measures the mean round-trip of `calls` serial bare RPCs.
func steadyBareRPC(spec netsim.LinkSpec, argSize, replySize, calls int) time.Duration {
	sched := vtime.NewScheduler()
	rpc := newBareRPC(sched, spec, replySize)
	var start vtime.Time
	var total time.Duration
	done := 0
	var issue func()
	issue = func() {
		start = sched.Now()
		rpc.send(argSize)
	}
	rpc.onReply = func(now vtime.Time) {
		total += now.Sub(start)
		done++
		if done < calls {
			issue()
		}
	}
	issue()
	sched.Run(1_000_000)
	return total / time.Duration(calls)
}

// ExpT3 regenerates the null-QRPC latency table: queued RPC vs bare RPC
// per network, showing the queue+log overhead amortizing into nothing on
// slow links ("the overhead of writing the log is dwarfed by the
// underlying communication costs").
func ExpT3(o Options) (*Table, error) {
	const argSize, replySize = 64, 64
	calls := o.scale(20, 3)
	rows, err := linkRows(func(spec netsim.LinkSpec) ([]string, error) {
		stack, err := NewSimStack(SimStackOptions{Link: spec})
		if err != nil {
			return nil, err
		}
		qt, err := steadyQRPC(stack, argSize, replySize, calls)
		if err != nil {
			return nil, err
		}
		bare := steadyBareRPC(spec, argSize, replySize, calls)
		over := qt - bare
		pct := 100 * float64(over) / float64(qt)
		return []string{
			spec.Name, ms(bare), ms(qt), ms(over), fmt.Sprintf("%.1f%%", pct),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:      "T3",
		Title:   "Null RPC latency: queued (QRPC, stable log) vs bare RPC",
		Columns: []string{"network", "bare RPC", "QRPC", "overhead", "overhead %"},
		Rows:    rows,
		Notes: []string{
			fmt.Sprintf("64-byte args/results; %d serial calls after warmup; log flush modeled at %v", calls, FlushCost),
			"expected shape: absolute overhead ~constant, relative overhead collapses on slow links",
		},
	}, nil
}

// ExpT4 regenerates import latency vs object size per network.
func ExpT4(o Options) (*Table, error) {
	sizes := []int{256, 4 << 10, 64 << 10}
	if !o.Quick {
		sizes = append(sizes, 256<<10)
	}
	cols := []string{"network"}
	for _, s := range sizes {
		cols = append(cols, kb(int64(s)))
	}
	rows, err := linkRows(func(spec netsim.LinkSpec) ([]string, error) {
		row := []string{spec.Name}
		for _, size := range sizes {
			stack, err := NewSimStack(SimStackOptions{Link: spec})
			if err != nil {
				return nil, err
			}
			u := rover.MustParseURN("urn:rover:bench/obj")
			obj := rover.NewObject(u, "blob")
			obj.Set("data", string(make([]byte, size)))
			if err := stack.Server.Seed(obj); err != nil {
				return nil, err
			}
			// Warm the session with a stat, then measure the import.
			var imported vtime.Time
			var start vtime.Time
			stack.Client.Stat(u, rover.PriorityNormal).OnReady(func(rover.StatReply, error) {
				start = stack.Sched.Now()
				stack.Client.Import(u, rover.ImportOptions{}).OnReady(func(_ *rover.Object, err error) {
					mustNil(err)
					imported = stack.Sched.Now()
				})
			})
			stack.Run()
			if imported == 0 {
				return nil, fmt.Errorf("import of %d bytes never completed", size)
			}
			row = append(row, ms(imported.Sub(start)))
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:      "T4",
		Title:   "Import latency vs object size",
		Columns: cols,
		Rows:    rows,
		Notes:   []string{"one import after session warmup; includes stable-log flush and request upstream"},
	}, nil
}

// ExpE56 reproduces the in-text claim: "A local invocation on an RDO is 56
// times faster than sending an RPC over a TCP/CSLIP14.4 connection."
func ExpE56(o Options) (*Table, error) {
	// Local side: real time per cached-RDO method invocation.
	srv, err := rover.NewServer(rover.ServerOptions{ServerID: "e56"})
	if err != nil {
		return nil, err
	}
	u := rover.MustParseURN("urn:rover:bench/counter")
	obj := rover.NewObject(u, "counter")
	obj.Code = `
		proc get {} { state get count 0 }
		proc add {n} { state set count [expr {[state get count 0] + $n}] }
	`
	if err := srv.Seed(obj); err != nil {
		return nil, err
	}
	cli, err := rover.NewClient(rover.ClientOptions{ClientID: "e56-cli"})
	if err != nil {
		return nil, err
	}
	defer cli.Close()
	link := cli.ConnectPipe(srv)
	link.SetConnected(true)
	f := cli.Import(u, rover.ImportOptions{})
	deadline := time.Now().Add(5 * time.Second)
	for !f.Ready() {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("E56: import stalled")
		}
		time.Sleep(100 * time.Microsecond)
	}
	iters := o.scale(20000, 500)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := cli.Invoke(u, "get"); err != nil {
			return nil, err
		}
	}
	local := time.Since(t0) / time.Duration(iters)

	// Remote side: steady-state rover.invoke RTT over CSLIP14.4 in
	// virtual time, through the full production path.
	stack, err := NewSimStack(SimStackOptions{Link: netsim.CSLIP14k4})
	if err != nil {
		return nil, err
	}
	if err := stack.Server.Seed(obj.Clone()); err != nil {
		return nil, err
	}
	calls := o.scale(20, 3)
	var total time.Duration
	done := 0
	var start vtime.Time
	var issue func()
	issue = func() {
		start = stack.Sched.Now()
		stack.Client.InvokeRemote(u, "get", nil, rover.PriorityNormal).OnReady(
			func(_ rover.InvokeResult, err error) {
				mustNil(err)
				elapsed := stack.Sched.Now().Sub(start)
				done++
				if done > 1 {
					total += elapsed
				}
				if done < calls+1 {
					issue()
				}
			})
	}
	issue()
	stack.Run()
	remote := total / time.Duration(calls)
	ratio := float64(remote) / float64(local)
	return &Table{
		ID:       "E56",
		Title:    "Local RDO invocation vs RPC over CSLIP 14.4",
		Columns:  []string{"operation", "latency", "speedup"},
		Volatile: []int{1, 2},
		Rows: [][]string{
			{"local invocation (cached RDO)", ms(local), "1x"},
			{"rover.invoke over CSLIP14.4", ms(remote), fmt.Sprintf("%.0fx slower", ratio)},
		},
		Notes: []string{
			`paper: "a local invocation on an RDO is 56 times faster than sending an RPC over a TCP/CSLIP14.4 connection"`,
			"local side measured in wall time (interpreter-bound); remote side in virtual time (link-bound)",
			"our factor far exceeds 56x: a compiled Go interpreter on modern hardware is much faster than",
			"interpreted Tcl on a 75 MHz i486; the paper's point — cached invocation beats the modem by orders",
			"of magnitude — holds with room to spare",
		},
	}, nil
}

// ExpFQueue regenerates the non-blocking-enqueue figure: the cost to queue
// requests while disconnected (a blocking RPC would simply hang), and the
// drain time after reconnection.
func ExpFQueue(o Options) (*Table, error) {
	counts := []int{1, 10, 100}
	if !o.Quick {
		counts = append(counts, 1000)
	}
	var rows [][]string
	for _, n := range counts {
		// Real-time side: enqueue latency against a real fsynced file log,
		// fully disconnected.
		dir, err := os.MkdirTemp("", "rover-fqueue")
		if err != nil {
			return nil, err
		}
		fl, err := stable.OpenFileLog(filepath.Join(dir, "wal"), stable.Options{})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		eng, err := qrpc.NewClient(qrpc.ClientConfig{ClientID: "fq", Log: fl})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := eng.Enqueue("bench.echo", make([]byte, 64), qrpc.PriorityNormal, 0); err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
		}
		perEnqueue := time.Since(t0) / time.Duration(n)
		fl.Close()
		os.RemoveAll(dir)

		// Virtual-time side: drain time after reconnection over CSLIP14.4.
		stack, err := NewSimStack(SimStackOptions{Link: netsim.CSLIP14k4})
		if err != nil {
			return nil, err
		}
		echoService(stack, 64)
		stack.Link.Duplex().SetUp(false)
		remaining := n
		var lastDone vtime.Time
		for i := 0; i < n; i++ {
			p, err := stack.Client.Engine().Enqueue("bench.echo", make([]byte, 64), qrpc.PriorityNormal, stack.Sched.Now())
			if err != nil {
				return nil, err
			}
			p.OnComplete(func(*qrpc.Promise) {
				remaining--
				lastDone = stack.Sched.Now()
			})
		}
		reconnectAt := vtime.Time(time.Second)
		stack.Sched.At(reconnectAt, func() { stack.Link.Duplex().SetUp(true) })
		stack.Run()
		if remaining != 0 {
			return nil, fmt.Errorf("FQUEUE: %d requests never drained", remaining)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f µs", float64(perEnqueue.Nanoseconds())/1000),
			"blocks indefinitely",
			ms(lastDone.Sub(reconnectAt)),
		})
	}
	return &Table{
		ID:       "FQUEUE",
		Title:    "Non-blocking enqueue while disconnected, and drain on reconnect (CSLIP 14.4)",
		Columns:  []string{"requests", "QRPC enqueue (each, fsync log)", "blocking RPC", "drain after reconnect"},
		Volatile: []int{1},
		Rows:     rows,
		Notes:    []string{"enqueue cost is local (file log append + fsync) and independent of connectivity"},
	}, nil
}

// ExpFLog regenerates the log-flush share figure: how much of the
// end-to-end QRPC time the stable-log flush accounts for, per network.
func ExpFLog(o Options) (*Table, error) {
	calls := o.scale(20, 3)
	rows, err := linkRows(func(spec netsim.LinkSpec) ([]string, error) {
		withFlush, err := func() (time.Duration, error) {
			stack, err := NewSimStack(SimStackOptions{Link: spec})
			if err != nil {
				return 0, err
			}
			return steadyQRPC(stack, 64, 64, calls)
		}()
		if err != nil {
			return nil, err
		}
		noFlush, err := func() (time.Duration, error) {
			stack, err := NewSimStack(SimStackOptions{Link: spec, NoFlush: true})
			if err != nil {
				return 0, err
			}
			return steadyQRPC(stack, 64, 64, calls)
		}()
		if err != nil {
			return nil, err
		}
		share := 100 * float64(withFlush-noFlush) / float64(withFlush)
		return []string{spec.Name, ms(noFlush), ms(withFlush), fmt.Sprintf("%.1f%%", share)}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:      "FLOG",
		Title:   "Stable-log flush share of QRPC latency",
		Columns: []string{"network", "no flush", "with flush (15ms)", "flush share"},
		Rows:    rows,
		Notes: []string{
			`paper: "the flush is on the critical path for message sending" but "for lower-bandwidth networks the overhead of writing the log is dwarfed by the underlying communication costs"`,
		},
	}, nil
}

// ExpFSched regenerates the network-scheduler priority figure: time until
// the first high-priority reply when it is queued behind bulk traffic,
// with and without priority scheduling.
func ExpFSched(o Options) (*Table, error) {
	bulk := o.scale(100, 10)
	run := func(usePriority bool) (time.Duration, error) {
		stack, err := NewSimStack(SimStackOptions{Link: netsim.CSLIP14k4})
		if err != nil {
			return 0, err
		}
		echoService(stack, 64)
		stack.Link.Duplex().SetUp(false)
		eng := stack.Client.Engine()
		for i := 0; i < bulk; i++ {
			if _, err := eng.Enqueue("bench.echo", make([]byte, 512), qrpc.PriorityLow, stack.Sched.Now()); err != nil {
				return 0, err
			}
		}
		pri := qrpc.PriorityLow
		if usePriority {
			pri = qrpc.PriorityForeground
		}
		var answered vtime.Time
		p, err := eng.Enqueue("bench.echo", make([]byte, 64), pri, stack.Sched.Now())
		if err != nil {
			return 0, err
		}
		p.OnComplete(func(*qrpc.Promise) { answered = stack.Sched.Now() })
		reconnectAt := vtime.Time(time.Second)
		stack.Sched.At(reconnectAt, func() { stack.Link.Duplex().SetUp(true) })
		stack.Run()
		if answered == 0 {
			return 0, fmt.Errorf("FSCHED: foreground request never answered")
		}
		return answered.Sub(reconnectAt), nil
	}
	fifo, err := run(false)
	if err != nil {
		return nil, err
	}
	prio, err := run(true)
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:      "FSCHED",
		Title:   "Priority scheduling: time to first foreground reply behind bulk queue (CSLIP 14.4)",
		Columns: []string{"scheduler", "time to foreground reply", "speedup"},
		Rows: [][]string{
			{"FIFO (no priorities)", ms(fifo), "1x"},
			{"priority queue", ms(prio), fmt.Sprintf("%.0fx", float64(fifo)/float64(prio))},
		},
		Notes: []string{fmt.Sprintf("%d queued 512-byte low-priority requests ahead of one 64-byte foreground request", bulk)},
	}, nil
}
