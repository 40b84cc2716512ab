package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"rover/internal/stable"
)

// runCtx is what one run of one workload is given.
type runCtx struct {
	seed    int64
	seconds float64 // timed phase
	warm    float64 // warm-up before it
	dir     string  // durable files go under here; removed afterwards
	clients int     // closed-loop client goroutines, one outstanding op each
	sz      sizes
	tr      *tracer // nil for the untraced (end-to-end) run
	probe   *tracer // the layer probes' own tracer (set with tr)
}

// sizes are the population knobs. full is what the driver runs; the smoke
// test shrinks them so every workload finishes in a fraction of a second.
type sizes struct {
	echoPayload     int
	burst           int // drain_durable: requests queued per disconnected burst
	importObjects   int
	importHot       int
	importStoreMiB  float64
	importClientKiB int
	commitObjects   int
	commitWorkset   int // objects each client cycles through
	commitCompact   int // StoreCompactEvery
	mailMsgs        int
	calEdits        int
	mailChanges     int
	restartObjects  int
	restartTail     int // commits after the last compaction
	footerPerScan   [2]int
}

var fullSizes = sizes{
	echoPayload: 64, burst: 256,
	importObjects: 100_000, importHot: 5_000, importStoreMiB: 3, importClientKiB: 256,
	commitObjects: 10_000, commitWorkset: 256, commitCompact: 2_000,
	mailMsgs: 50, calEdits: 20, mailChanges: 10,
	restartObjects: 100_000, restartTail: 10_000, footerPerScan: [2]int{5, 3},
}

var tinySizes = sizes{
	echoPayload: 64, burst: 16,
	importObjects: 400, importHot: 40, importStoreMiB: 0.03, importClientKiB: 4,
	commitObjects: 64, commitWorkset: 8, commitCompact: 50,
	mailMsgs: 5, calEdits: 3, mailChanges: 2,
	restartObjects: 300, restartTail: 40, footerPerScan: [2]int{2, 1},
}

// runner is one workload bound to one runCtx.
type runner interface {
	// setup populates and connects; its wall time is setup_s.
	setup() error
	// drive applies the load for about d, recording into rec.
	drive(d time.Duration, rec *recorder)
	// verify runs the end-of-run correctness checks.
	verify(rec *recorder)
	// counters reads every layer's Stats().
	counters() counters
	// extra adds the workload's own metrics (scoped end-to-end ones from any
	// run, layer ones and probes when rc.tr is set). A probe that breaks is an
	// error: a metric left out would read as 0, the best a "lower" one can do.
	extra(rec *recorder, m map[string]float64) error
	// teardown releases everything setup made.
	teardown()
}

// latBuf keeps a bounded, evenly strided sample of one client's latencies
// (ms): every stride-th value, the stride doubling each time the buffer
// fills. The values kept are real measurements, and the memory is the same
// on every run, so heap_live_mb measures the program and not its observer.
type latBuf struct {
	xs           []float64
	stride, skip int
}

const latBufCap = 1 << 16

func newLatBuf() *latBuf { return &latBuf{xs: make([]float64, 0, latBufCap), stride: 1} }

func (b *latBuf) add(v float64) {
	if b.skip > 0 {
		b.skip--
		return
	}
	b.skip = b.stride - 1
	if len(b.xs) == cap(b.xs) {
		for i := 0; i < len(b.xs)/2; i++ {
			b.xs[i] = b.xs[2*i]
		}
		b.xs = b.xs[:len(b.xs)/2]
		b.stride *= 2
		b.skip = b.stride - 1
	}
	b.xs = append(b.xs, v)
}

// recorder accumulates what the timed phase measures. Latencies are in ms.
type recorder struct {
	mu        sync.Mutex
	lat       []float64
	attempted int64
	failed    int64
	firstErr  error

	cur        slice   // windows since the last endSlice
	slices     []slice // closed slices of the timed phase
	wall       time.Duration
	gcCPU      float64 // seconds
	allCPU     float64 // seconds
	heapPeakMB float64 // peak sampled HeapInuse, traced runs only
}

// slice is one stretch of the timed phase: about a second of a closed loop,
// one repetition of a scripted workload. Rates are computed per slice and
// reported as the median over slices, so one stall (a GC cycle, a compaction,
// a noisy neighbour) moves one slice and not the result.
type slice struct {
	ops     int64
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	heap    uint64 // HeapAlloc after a forced GC at the slice's end, stack still live
}

// endSlice closes the current slice, crediting it with the operations
// completed since the previous one. No client goroutine may be running.
func (r *recorder) endSlice() {
	done := r.attempted - r.failed
	for _, s := range r.slices {
		done -= s.ops
	}
	r.cur.ops = done
	// Outside every window, so the collection is charged to no metric; the
	// next slice starts from a collected heap, the same on every run.
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	r.cur.heap = m.HeapAlloc
	if r.cur.ops > 0 && r.cur.wall > 0 {
		r.slices = append(r.slices, r.cur)
	}
	r.cur = slice{}
}

// perSlice returns the median over slices of f.
func (r *recorder) perSlice(f func(slice) float64) float64 {
	vals := make([]float64, len(r.slices))
	for i, s := range r.slices {
		vals[i] = f(s)
	}
	return median(vals)
}

// fail counts n failed operations and keeps the first reason.
func (r *recorder) fail(n int, err error) {
	r.mu.Lock()
	r.failed += int64(n)
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.mu.Unlock()
}

// merge folds one client goroutine's samples in.
func (r *recorder) merge(lat []float64, attempted int64) {
	r.mu.Lock()
	r.lat = append(r.lat, lat...)
	r.attempted += attempted
	r.mu.Unlock()
}

var cpuSamples = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}

// window runs fn as (part of) the current slice, adding its wall time,
// process CPU (client and server share the process) and allocations.
// Windows must not overlap.
func (r *recorder) window(fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	metrics.Read(cpuSamples)
	gc0, all0 := cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
	cpu0, t0 := processCPU(), time.Now()
	fn()
	wall := time.Since(t0)
	r.wall += wall
	r.cur.wall += wall
	r.cur.cpu += processCPU() - cpu0
	runtime.ReadMemStats(&after)
	metrics.Read(cpuSamples)
	r.cur.mallocs += after.Mallocs - before.Mallocs
	r.gcCPU += cpuSamples[0].Value.Float64() - gc0
	r.allCPU += cpuSamples[1].Value.Float64() - all0
}

// closedLoop runs d of closed-loop load as up to eight equal slices. In each,
// one goroutine per client calls step until the slice's deadline; step
// performs whole operations (one outstanding per client) and records their
// latencies. A slice ends once every client has finished its last operation.
func closedLoop(clients int, d time.Duration, rec *recorder, step func(c int, lat *latBuf) (attempted int64)) {
	n := min(max(int(d/(500*time.Millisecond)), 1), 8)
	bufs := make([]*latBuf, clients)
	for c := range bufs {
		bufs[c] = newLatBuf()
	}
	for i := 0; i < n; i++ {
		rec.window(func() {
			deadline := time.Now().Add(d / time.Duration(n))
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					var attempted int64
					for time.Now().Before(deadline) {
						attempted += step(c, bufs[c])
					}
					rec.merge(nil, attempted)
				}(c)
			}
			wg.Wait()
		})
		rec.endSlice()
	}
	for _, b := range bufs {
		rec.merge(b.xs, 0)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapSampler tracks peak HeapInuse during a traced phase.
func heapSampler(stop <-chan struct{}, peakMB *float64, done *sync.WaitGroup) {
	defer done.Done()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	var m runtime.MemStats
	for {
		runtime.ReadMemStats(&m)
		if v := float64(m.HeapInuse) / 1e6; v > *peakMB {
			*peakMB = v
		}
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// result is one run of one workload.
type result struct {
	workload  string
	traced    bool
	attempted int64
	failed    int64
	err       error
	metrics   map[string]float64
}

func (r *result) correct() bool { return r.err == nil && r.failed == 0 && r.attempted > 0 }

// runOnce sets a workload up, warms it, measures it, checks it and tears it
// down.
func runOnce(w workload, rc *runCtx) *result {
	res := &result{workload: w.name, traced: rc.tr != nil, metrics: map[string]float64{}}
	dir, err := os.MkdirTemp(rc.dir, "rover-bench-"+w.name+"-")
	if err != nil {
		res.err = err
		return res
	}
	defer os.RemoveAll(dir)

	// A set-up that takes a second or two (import_read, restart) runs once. A
	// millisecond-scale one (the echo workloads, modem_session) is mostly
	// scheduler and page-fault noise, so it is repeated until half a second
	// (or fifty set-ups) has gone by and setup_s is the median; the last one
	// is kept for the run. A traced run reports no setup_s and sets up once.
	var r runner
	var setups []float64
	for spent := 0.0; len(setups) == 0 || (rc.tr == nil && spent < 0.5 && len(setups) < 50); {
		if r != nil {
			r.teardown()
		}
		sub := fmt.Sprintf("%s/s%d", dir, len(setups))
		if err := os.Mkdir(sub, 0o700); err != nil {
			res.err = err
			return res
		}
		rcs := *rc
		rcs.dir = sub
		r = w.bind(&rcs)
		t0 := time.Now()
		if err := r.setup(); err != nil {
			r.teardown()
			res.err = fmt.Errorf("setup: %w", err)
			return res
		}
		s := time.Since(t0).Seconds()
		setups = append(setups, s)
		spent += s
	}
	defer r.teardown()

	warm := &recorder{}
	r.drive(time.Duration(rc.warm*float64(time.Second)), warm)
	if rc.tr != nil {
		rc.tr.reset()
	}
	rec := &recorder{}
	runtime.GC()
	var sampling sync.WaitGroup
	stop := make(chan struct{})
	if rc.tr != nil {
		sampling.Add(1)
		go heapSampler(stop, &rec.heapPeakMB, &sampling)
	}
	before := r.counters()
	r.drive(time.Duration(rc.seconds*float64(time.Second)), rec)
	after := r.counters()
	close(stop)
	sampling.Wait()
	goroutines := runtime.NumGoroutine()
	r.verify(rec)
	if warm.failed > 0 { // a check that fails during warm-up fails the run
		rec.fail(int(warm.failed), fmt.Errorf("during warm-up: %w", warm.firstErr))
	}

	res.attempted, res.failed, res.err = rec.attempted, rec.failed, rec.firstErr
	ops := float64(rec.attempted - rec.failed)
	if ops <= 0 {
		if res.err == nil {
			res.err = fmt.Errorf("no operation completed")
		}
		return res
	}
	sort.Float64s(rec.lat)
	m := res.metrics
	m["setup_s"] = median(setups)
	m["ops_per_s"] = rec.perSlice(func(s slice) float64 { return float64(s.ops) / s.wall.Seconds() })
	m["lat_p50_ms"] = percentile(rec.lat, 50)
	m["lat_p95_ms"] = percentile(rec.lat, 95)
	m["fail_ratio"] = float64(rec.failed) / float64(rec.attempted)
	m["ok_ratio"] = 1 - m["fail_ratio"]
	m["cpu_us_per_op"] = rec.perSlice(func(s slice) float64 { return float64(s.cpu.Microseconds()) / float64(s.ops) })
	m["allocs_per_op"] = rec.perSlice(func(s slice) float64 { return float64(s.mallocs) / float64(s.ops) })
	m["heap_live_mb"] = rec.perSlice(func(s slice) float64 { return float64(s.heap) / 1e6 })
	syncs := float64(after.journal.Syncs - before.journal.Syncs + after.segment.Syncs - before.segment.Syncs)
	bytes := float64(after.journal.BytesWritten - before.journal.BytesWritten + after.segment.BytesWritten - before.segment.BytesWritten)
	if syncs > 0 {
		m["fsyncs_per_op"] = syncs / ops
		m["disk_bytes_per_op"] = bytes / ops
	}
	if rc.tr != nil {
		layerMetrics(rc.tr, rec, before, after, ops, m)
		m["runtime.goroutines"] = float64(goroutines)
	}
	if err := r.extra(rec, m); err != nil && res.err == nil {
		res.err = fmt.Errorf("layer probes: %w", err)
	}
	if rc.tr != nil && res.err == nil {
		for _, name := range w.layers {
			if v, ok := m[name]; !ok || v <= 0 {
				res.err = fmt.Errorf("traced run reported %s = %v (present: %v), want a positive number", name, v, ok)
				break
			}
		}
	}
	return res
}

// layerMetrics derives the per-layer numbers every workload shares from the
// counters' deltas and the tracer's kinds.
func layerMetrics(tr *tracer, rec *recorder, before, after counters, ops float64, m map[string]float64) {
	per := func(a, b int64) float64 { return float64(a-b) / ops }
	// p99 and p99.9 are reported only when the sample leaves ten beyond them.
	if top := highestPercentile(len(rec.lat)); top >= 99 {
		m["gen.lat_p99_ms"] = percentile(rec.lat, 99)
		if top >= 99.9 {
			m["gen.lat_p999_ms"] = percentile(rec.lat, 99.9)
		}
	}
	m["gen.samples"] = float64(len(rec.lat))

	m["qrpc.client.enqueue_self_us"] = tr.meanSelfUs("qrpc.client", "enqueue")
	m["qrpc.client.batches_per_op"] = per(after.qc.BatchesSent, before.qc.BatchesSent)
	m["qrpc.client.acks_per_op"] = per(after.qc.AcksSent, before.qc.AcksSent)
	m["qrpc.client.resent_per_op"] = per(after.qc.Resent, before.qc.Resent)
	m["qrpc.client.duplicates_per_op"] = per(after.qc.Duplicates, before.qc.Duplicates)
	m["qrpc.server.batches_per_op"] = per(after.qs.BatchesSent, before.qs.BatchesSent)
	m["qrpc.server.replays_per_op"] = per(after.qs.ReplaysServed, before.qs.ReplaysServed)
	m["qrpc.server.dropped_per_op"] = per(after.qs.Dropped, before.qs.Dropped)
	m["qrpc.journal.records_per_op"] = per(after.qs.JournalRecords, before.qs.JournalRecords)
	m["qrpc.journal.compactions"] = float64(after.qs.JournalCompactions - before.qs.JournalCompactions)

	stableRole := func(role string, a, b stable.Stats) {
		p := "stable." + role + "."
		if k := tr.kinds["stable."+role+".append"]; k != nil && k.count.Load() > 0 {
			m[p+"append_us_p50"] = percentile(k.durationsUs(), 50)
		} else if k := tr.kinds["stable."+role+".append_nosync"]; k != nil {
			m[p+"append_us_p50"] = percentile(k.durationsUs(), 50)
		}
		if k := tr.kinds["stable."+role+".commit_wait"]; k != nil {
			d := k.durationsUs()
			m[p+"commit_wait_us_p50"], m[p+"commit_wait_us_p95"] = percentile(d, 50), percentile(d, 95)
		}
		syncs, appends := a.Syncs-b.Syncs, a.Appends-b.Appends
		m[p+"fsyncs_per_op"] = float64(syncs) / ops
		m[p+"bytes_per_op"] = float64(a.BytesWritten-b.BytesWritten) / ops
		if syncs > 0 {
			m[p+"ops_per_fsync"] = float64(appends) / float64(syncs)
		}
		m[p+"sync_ms_total"] = float64(a.SyncNanos-b.SyncNanos) / 1e6
	}
	stableRole("client", after.clientLog, before.clientLog)
	stableRole("journal", after.journal, before.journal)
	stableRole("segment", after.segment, before.segment)

	if k := tr.kinds["store.get"]; k != nil {
		d := k.durationsUs()
		m["store.get_us_p50"], m["store.get_us_p95"] = percentile(d, 50), percentile(d, 95)
	}
	if k := tr.kinds["store.commit"]; k != nil {
		d := k.durationsUs()
		m["store.commit_us_p50"], m["store.commit_us_p95"] = percentile(d, 50), percentile(d, 95)
	}
	hits, faults := after.occ.CacheHits-before.occ.CacheHits, after.occ.ColdFaults-before.occ.ColdFaults
	if hits+faults > 0 {
		m["store.hit_ratio"] = float64(hits) / float64(hits+faults)
	}
	m["store.cold_faults_per_op"] = float64(faults) / ops
	m["store.compactions"] = float64(after.occ.Compactions - before.occ.Compactions)

	m["server.deltas_served_per_op"] = per(after.app.DeltasServed, before.app.DeltasServed)
	m["server.delta_fallbacks_per_op"] = per(after.app.DeltaFallbacks, before.app.DeltaFallbacks)
	m["server.duplicate_exports_per_op"] = per(after.app.DuplicateExports, before.app.DuplicateExports)

	serves, sent := after.acc.CacheServes-before.acc.CacheServes, after.acc.ImportsSent-before.acc.ImportsSent
	if serves+sent > 0 {
		m["access.cache_hit_ratio"] = float64(serves) / float64(serves+sent)
	}
	m["access.imports_sent_per_op"] = float64(sent) / ops
	m["access.delta_imports_per_op"] = per(after.acc.DeltaImports, before.acc.DeltaImports)
	m["cache.evictions_per_op"] = per(after.cache.Evictions, before.cache.Evictions)

	if rec.allCPU > 0 {
		m["runtime.gc_cpu_fraction"] = rec.gcCPU / rec.allCPU
	}
	m["runtime.heap_inuse_mb_peak"] = rec.heapPeakMB
}

// keyPicker draws object indices: hotShare of draws from the first hot
// indices, the rest uniform over all n. Same seed, same sequence.
type keyPicker struct {
	rng      *rand.Rand
	n, hot   int
	hotShare float64
}

func newKeyPicker(seed int64, n, hot int, hotShare float64) *keyPicker {
	return &keyPicker{rng: rand.New(rand.NewSource(seed)), n: n, hot: hot, hotShare: hotShare}
}

func (k *keyPicker) next() int {
	if k.hot > 0 && k.rng.Float64() < k.hotShare {
		return k.rng.Intn(k.hot)
	}
	return k.rng.Intn(k.n)
}

// payloads makes n distinct seeded byte strings of the given size.
func payloads(seed int64, n, size int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}
