// Go benchmarks for the toolkit's CPU-bound paths, one per evaluation
// artifact where a microbenchmark makes sense (link-bound artifacts are
// regenerated by cmd/rover-bench under virtual time; the Benchmark*Sim
// entries below report virtual latency as a custom metric).
package rover_test

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"rover"
	"rover/internal/apps/calendar"
	"rover/internal/apps/mail"
	"rover/internal/bench"
	"rover/internal/netsim"
	"rover/internal/qrpc"
	"rover/internal/rdo"
	"rover/internal/rscript"
	"rover/internal/stable"
	"rover/internal/vtime"
	"rover/internal/wire"
)

// BenchmarkEnqueueMemLog measures the QRPC non-blocking enqueue path
// against an in-memory stable log (F-QUEUE's lower bound).
func BenchmarkEnqueueMemLog(b *testing.B) {
	eng, err := qrpc.NewClient(qrpc.ClientConfig{
		ClientID: "bench",
		Log:      stable.NewMemLog(stable.Options{}),
	})
	if err != nil {
		b.Fatal(err)
	}
	args := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Enqueue("bench.echo", args, qrpc.PriorityNormal, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnqueueFileLog measures the same path with a real fsynced file
// log — the paper's flush-on-the-critical-path (F-QUEUE, T3's constant).
func BenchmarkEnqueueFileLog(b *testing.B) {
	log, err := stable.OpenFileLog(filepath.Join(b.TempDir(), "wal"), stable.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	eng, err := qrpc.NewClient(qrpc.ClientConfig{ClientID: "bench", Log: log})
	if err != nil {
		b.Fatal(err)
	}
	args := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Enqueue("bench.echo", args, qrpc.PriorityNormal, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnqueueFileLogParallel is the A-GROUP ablation as a Go
// benchmark: ~8 goroutines enqueue concurrently against one fsynced file
// log, whose group commit coalesces their flushes onto a shared in-flight
// fsync — every enqueue still durable before return. Compare ops/sec
// against the serial BenchmarkEnqueueFileLog, where each enqueue pays a
// whole fsync alone; the fsyncs-per-op metric shows the amortization.
func BenchmarkEnqueueFileLogParallel(b *testing.B) {
	log, err := stable.OpenFileLog(filepath.Join(b.TempDir(), "wal"), stable.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	eng, err := qrpc.NewClient(qrpc.ClientConfig{ClientID: "bench", Log: log})
	if err != nil {
		b.Fatal(err)
	}
	args := make([]byte, 64)
	procs := runtime.GOMAXPROCS(0)
	b.SetParallelism((8 + procs - 1) / procs) // ~8 concurrent appenders
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := eng.Enqueue("bench.echo", args, qrpc.PriorityNormal, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(log.Stats().Syncs)/float64(b.N), "fsyncs/op")
	}
}

func benchStack(b *testing.B) (*rover.Client, rover.URN) {
	b.Helper()
	srv, err := rover.NewServer(rover.ServerOptions{ServerID: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	u := rover.MustParseURN("urn:rover:bench/counter")
	obj := rover.NewObject(u, "counter")
	obj.Code = `
		proc get {} { state get count 0 }
		proc add {n} { state set count [expr {[state get count 0] + $n}] }
	`
	if err := srv.Seed(obj); err != nil {
		b.Fatal(err)
	}
	cli, err := rover.NewClient(rover.ClientOptions{ClientID: "bench-cli", NoAutoExport: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cli.Close() })
	link := cli.ConnectPipe(srv)
	link.SetConnected(true)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cli.ImportWait(ctx, u); err != nil {
		b.Fatal(err)
	}
	return cli, u
}

// BenchmarkLocalInvokeRead is E56's local side: a read-only method on a
// cached RDO.
func BenchmarkLocalInvokeRead(b *testing.B) {
	cli, u := benchStack(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Invoke(u, "get"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalInvokeWrite measures a mutating method (op recording,
// tentative bookkeeping), exports disabled.
func BenchmarkLocalInvokeWrite(b *testing.B) {
	cli, u := benchStack(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Invoke(u, "add", "1"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImportCacheHit is the access manager's cache-serve path.
func BenchmarkImportCacheHit(b *testing.B) {
	cli, u := benchStack(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := cli.Import(u, rover.ImportOptions{})
		if !f.Ready() {
			b.Fatal("cache hit not immediate")
		}
	}
}

// BenchmarkNullQRPCPipe measures a full queued round trip over the
// in-process transport (T3's CPU floor: both engines, marshaling,
// promises, acks — no network).
func BenchmarkNullQRPCPipe(b *testing.B) {
	srv, err := rover.NewServer(rover.ServerOptions{ServerID: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	srv.Engine().Register("bench.echo", func(_ string, req qrpc.Request) ([]byte, error) {
		return req.Args, nil
	})
	cli, err := rover.NewClient(rover.ClientOptions{ClientID: "bench-cli"})
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	link := cli.ConnectPipe(srv)
	link.SetConnected(true)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	args := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := cli.Engine().Enqueue("bench.echo", args, qrpc.PriorityNormal, 0)
		if err != nil {
			b.Fatal(err)
		}
		link.Kick()
		if _, err := p.Wait(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNullQRPCSim reports T3's virtual-time latency per link as a
// custom metric (vms/op = virtual milliseconds per operation) while
// measuring the simulator's real cost per simulated call.
func BenchmarkNullQRPCSim(b *testing.B) {
	for _, spec := range netsim.StandardLinks() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			var virtualPerOp float64
			for i := 0; i < b.N; i++ {
				stack, err := bench.NewSimStack(bench.SimStackOptions{Link: spec})
				if err != nil {
					b.Fatal(err)
				}
				stack.Server.Engine().Register("bench.echo", func(_ string, req qrpc.Request) ([]byte, error) {
					return req.Args, nil
				})
				var done vtime.Time
				p, err := stack.Client.Engine().Enqueue("bench.echo", make([]byte, 64), qrpc.PriorityNormal, 0)
				if err != nil {
					b.Fatal(err)
				}
				stack.Link.Kick()
				p.OnComplete(func(*qrpc.Promise) { done = stack.Sched.Now() })
				stack.Run()
				virtualPerOp = float64(done.Duration().Microseconds()) / 1000
			}
			b.ReportMetric(virtualPerOp, "vms/op")
		})
	}
}

// BenchmarkExportCommit measures a full tentative-update round trip:
// local invoke, export, server replay, commit, cache rebase.
func BenchmarkExportCommit(b *testing.B) {
	cli, u := benchStack(b)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Invoke(u, "add", "1"); err != nil {
			b.Fatal(err)
		}
		f, err := cli.Export(u, rover.PriorityNormal)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Wait(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewEnv measures binding an execution environment to an object:
// an interpreter, the `state` command, the sandbox's command set, and the
// object's code loaded (the class of its procs bound). Both ends of an export pay
// it — the access manager Trusted when the committed copy replaces the
// cached one, the server Restricted for every replay — so this is the
// per-arrival load cost of shipped code, on the three method suites the
// repository ships.
func BenchmarkNewEnv(b *testing.B) {
	srv, err := rover.NewServer(rover.ServerOptions{ServerID: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	if _, err := (&mail.Seeder{Authority: "bench"}).SeedFolder(srv, "inbox", 50); err != nil {
		b.Fatal(err)
	}
	folder, err := srv.Store().Get(rover.MustParseURN("urn:rover:bench/mail/inbox"))
	if err != nil {
		b.Fatal(err)
	}
	counter := rover.NewObject(rover.MustParseURN("urn:rover:bench/counter"), "counter")
	counter.Code = `
		proc add {n} { state set count [expr {[state get count 0] + $n}] }
		proc get {} { state get count 0 }
	`
	objects := []struct {
		name string
		obj  *rover.Object
	}{
		{"counter", counter},
		{"mailfolder", folder},
		{"calendar", calendar.NewObject(calendar.URNFor("bench", "group"))},
	}
	sandboxes := []struct {
		name string
		sb   rdo.Sandbox
	}{{"trusted", rdo.Trusted}, {"restricted", rdo.Restricted}}
	for _, o := range objects {
		for _, sb := range sandboxes {
			b.Run(o.name+"/"+sb.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					env, err := rdo.NewEnv(o.obj, rdo.EnvOptions{Sandbox: sb.sb})
					if err != nil {
						b.Fatal(err)
					}
					if !env.HasMethod("count") && !env.HasMethod("get") {
						b.Fatal("code did not load")
					}
				}
			})
		}
	}
}

// BenchmarkRscriptEval measures the interpreter on a loop-heavy script —
// the RDO execution substrate.
func BenchmarkRscriptEval(b *testing.B) {
	ip := rscript.New(rscript.Options{})
	if _, err := ip.Eval(`proc work {} {
		set s 0
		for {set i 0} {$i < 100} {incr i} { incr s $i }
		return $s
	}`); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ip.Call("work"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireObject measures object marshal/unmarshal (import payload
// cost per T4 byte).
func BenchmarkWireObject(b *testing.B) {
	obj := rover.NewObject(rover.MustParseURN("urn:rover:bench/blob"), "blob")
	for i := 0; i < 64; i++ {
		obj.Set(fmt.Sprintf("k%02d", i), "value-of-moderate-length-for-benchmarks")
	}
	enc := obj.Encode()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc = obj.Encode()
		var o rover.Object
		if err := wire.Unmarshal(enc, &o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameEncode measures transport framing on the path the senders
// actually use: AppendFrame into a retained scratch buffer (the TCP sender
// reuses its encode scratch across sends, so steady-state framing is
// allocation-free on the encode side).
func BenchmarkFrameEncode(b *testing.B) {
	payload := make([]byte, 512)
	b.SetBytes(int64(wire.EncodedFrameSize(len(payload))))
	var scratch []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = wire.AppendFrame(scratch[:0], wire.Frame{Type: wire.FrameRequest, Payload: payload})
		if _, _, err := wire.DecodeFrame(scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerJournal compares server-side request throughput with and
// without the durable session journal. The journaled variant
// write-ahead-logs every executed reply to a file-backed log before
// release. Each of four sessions is driven from its own goroutine, which
// runs its requests inline in OnFrame, one frame and one run at a time, so
// concurrent sessions' exec appends share the log's group commit.
func BenchmarkServerJournal(b *testing.B) {
	b.Run("inmemory", func(b *testing.B) { runServerJournal(b, 4) })
	b.Run("journaled", func(b *testing.B) {
		fl, err := stable.OpenFileLog(filepath.Join(b.TempDir(), "journal"), stable.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer fl.Close()
		runServerJournal(b, 4, fl)
		b.ReportMetric(float64(fl.Stats().Syncs)/float64(b.N), "fsyncs/op")
	})
}

// BenchmarkServerJournalSharded measures the session journal split into
// independent group-commit buckets. With one shard every session's append
// contends on a single fsync leader; with N shards, sessions hash across N
// leaders that fsync in parallel, so the same offered load completes with
// the same durability in a fraction of the wall-clock. 16 concurrent
// sessions stress the leader bottleneck the way the 4-session
// BenchmarkServerJournal cannot.
func BenchmarkServerJournalSharded(b *testing.B) {
	run := func(b *testing.B, nshards int) {
		logs := make([]stable.Log, nshards)
		flogs := make([]*stable.FileLog, nshards)
		dir := b.TempDir()
		for i := range logs {
			fl, err := stable.OpenFileLog(filepath.Join(dir, fmt.Sprintf("journal.s%d", i)), stable.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer fl.Close()
			logs[i], flogs[i] = fl, fl
		}
		runServerJournal(b, 16, logs...)
		var syncs int64
		for _, fl := range flogs {
			syncs += fl.Stats().Syncs
		}
		b.ReportMetric(float64(syncs)/float64(b.N), "fsyncs/op")
	}
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) { run(b, n) })
	}
}

// runServerJournal drives b.N echo requests through a server over the
// given journal shards from `sessions` goroutines, one per session, each
// delivering its requests one frame at a time and acking them in blocks of
// 256 so the reply cache (and the journal's live set) stays bounded, as a
// real client's would.
func runServerJournal(b *testing.B, sessions int, journals ...stable.Log) {
	srv := qrpc.NewServer(qrpc.ServerConfig{ServerID: "bench", Journals: journals})
	defer srv.Close()
	srv.Register("bench.echo", func(_ string, req qrpc.Request) ([]byte, error) {
		return req.Args, nil
	})
	senders := make([]*discardSender, sessions)
	for i := range senders {
		senders[i] = &discardSender{id: i}
		srv.OnConnect(senders[i], 0)
		srv.OnFrame(senders[i], wire.Frame{
			Type:    wire.FrameHello,
			Payload: wire.Marshal(&qrpc.Hello{ClientID: fmt.Sprintf("bench-%d", i), LowSeq: 1}),
		}, 0)
	}
	args := make([]byte, 64)
	per := b.N/sessions + 1
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		snd := senders[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			var acks []uint64
			for seq := uint64(1); seq <= uint64(per); seq++ {
				srv.OnFrame(snd, wire.Frame{
					Type:    wire.FrameRequest,
					Payload: wire.Marshal(&qrpc.Request{Seq: seq, Service: "bench.echo", Args: args}),
				}, 0)
				acks = append(acks, seq)
				if len(acks) == 256 {
					srv.OnFrame(snd, wire.Frame{Type: wire.FrameAck, Payload: wire.Marshal(&qrpc.Ack{Seqs: acks})}, 0)
					acks = acks[:0]
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if got := srv.Stats().Executed; got < int64(b.N) {
		b.Fatalf("executed %d of %d", got, b.N)
	}
}

// discardSender swallows frames; the benchmark measures execution and
// journaling, not transport delivery. The id field keeps each instance a
// distinct allocation (zero-size values can share an address, which would
// collapse the server's per-connection map to one entry).
type discardSender struct{ id int }

func (*discardSender) SendFrame(wire.Frame) bool { return true }
