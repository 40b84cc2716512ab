// Command benchmark is Rover/Go's one benchmark: six named workloads, the
// end-to-end metrics a user of the toolkit would see, and a traced run that
// breaks the same workloads down layer by layer. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// row is one line of the perf ledger: BENCH.jsonl can be a concatenation of
// this program's output.
type row struct {
	Commit     string  `json:"commit"`
	Gomaxprocs int     `json:"gomaxprocs"`
	Nproc      int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	Workload   string  `json:"workload"`
	Traced     bool    `json:"traced"`
	Metric     string  `json:"metric"`
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
}

// verdict is the line the driver reads: the last line of standard output.
type verdict struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runSeconds is the timed phase the driver is told to ask for; warmSeconds
// is the warm-up before it.
const (
	runSeconds  = 8
	warmSeconds = 2
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	warm     float64 // warmSeconds; the tests shorten it
	trace    int
	dir      string
	out      string
	agree    bool
	manifest bool
	sz       sizes
}

func main() {
	o := options{sz: fullSizes, warm: warmSeconds}
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all of them)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the timed phase")
	flag.IntVar(&o.trace, "trace", 0, "1: also run traced and report the per-layer metrics")
	flag.StringVar(&o.out, "out", defaultOut(), "where trace-<workload>.json goes")
	flag.StringVar(&o.dir, "dir", "", "where durable files go (default: -out if it is on tmpfs, else /dev/shm if that is, else -out)")
	flag.BoolVar(&o.agree, "agree", false, "run everything twice and fail if an end-to-end metric differs by more than its bound")
	flag.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if o.manifest {
		printManifest(os.Stdout)
		return
	}
	if o.dir == "" {
		o.dir = defaultDir(o.out)
	}
	os.Exit(run(o, os.Stdout))
}

// defaultOut is benchmark/out from the repository root (where the driver
// runs the command) and out from inside benchmark/.
func defaultOut() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// defaultDir prefers memory-backed storage: fsync is still a real syscall on
// the real code path but costs ~0 there, so timings measure the program and
// the device's share is carried by fsyncs_per_op and disk_bytes_per_op. On
// this repository's shared disk the same durable workload spreads 20% run to
// run; on tmpfs 2%.
func defaultDir(out string) string {
	os.MkdirAll(out, 0o755)
	for _, dir := range []string{out, "/dev/shm"} {
		if !tmpfsWithRoom(dir, 1<<30) {
			continue
		}
		if probe, err := os.MkdirTemp(dir, "rover-bench-"); err == nil { // and writable
			os.Remove(probe)
			return dir
		}
	}
	return out
}

// commit is the VCS revision go build stamped into the binary.
var commit = func() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}()

func run(o options, stdout io.Writer) int {
	selected := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: no workload %q\n", o.workload)
			return 2
		}
		selected = []workload{w}
	}
	if err := os.MkdirAll(o.dir, 0o700); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "benchmark: durable files under %s; traffic crosses the host loopback (or the simulator), never a real link; client and server share this process\n", o.dir)
	if o.agree {
		return agree(o, selected, stdout)
	}
	ok := true
	for _, w := range selected {
		if !runWorkload(o, w, stdout).Correct {
			ok = false
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func (o options) ctx(tr, probe *tracer, seconds float64) *runCtx {
	return &runCtx{seed: o.seed, seconds: seconds, warm: o.warm, dir: o.dir, clients: min(runtime.NumCPU(), 4), sz: o.sz, tr: tr, probe: probe}
}

// runWorkload runs one workload untraced — the end-to-end numbers — and, with
// -trace 1, once more traced for the per-layer numbers; it prints the ledger
// rows and then the driver's verdict line.
func runWorkload(o options, w workload, stdout io.Writer) verdict {
	seconds := o.seconds
	if o.trace == 1 {
		seconds /= 2 // the two runs share the budget
	}
	plain := runOnce(w, o.ctx(nil, nil, seconds))
	results, reported, defs := []*result{plain}, plain, endToEnd
	if o.trace == 1 {
		tr, probe := newTracer(), newTracer()
		probe.nextID.Store(1 << 31) // the two tracers share a file; keep ids apart
		traced := runOnce(w, o.ctx(tr, probe, seconds))
		if base := plain.metrics["ops_per_s"]; base > 0 && traced.metrics["ops_per_s"] > 0 {
			traced.metrics["trace.overhead_pct"] = 100 * (base - traced.metrics["ops_per_s"]) / base
		}
		for _, d := range scoped { // measured without tracing, reported beside the layers
			if v, ok := plain.metrics[d.Name]; ok {
				traced.metrics[d.Name] = v
			}
		}
		if err := writeTrace(o.out, w.name, tr, probe); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: trace file:", err)
		}
		results, reported, defs = append(results, traced), traced, tracedDefs()
	}
	v := verdict{Correct: true, Metrics: map[string]metricJSON{}}
	enc := json.NewEncoder(stdout)
	for _, res := range results {
		if res.err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, res.err)
		}
		v.Correct = v.Correct && res.correct()
		v.Attempted += res.attempted
		v.Failed += res.failed
		for _, d := range allDefs() {
			layer := d.Layer != "" && d.Layer != "e2e"
			if val, ok := res.metrics[d.Name]; ok && res.traced == layer {
				enc.Encode(row{Commit: commit, Gomaxprocs: runtime.GOMAXPROCS(0), Nproc: runtime.NumCPU(), Seed: o.seed,
					Workload: w.name, Traced: res.traced, Metric: d.Name, Value: val, Unit: d.Unit})
			}
		}
	}
	// The driver wants every listed metric on every workload; one that has no
	// meaning here (omitted from the rows above) reads 0 in its line.
	for _, d := range defs {
		v.Metrics[d.Name] = metricJSON{Value: reported.metrics[d.Name], Unit: d.Unit}
	}
	if v.Attempted < 1 {
		v.Attempted = 1
	}
	enc.Encode(v)
	return v
}

func allDefs() []metricDef { return append(append([]metricDef{}, endToEnd...), tracedDefs()...) }

func writeTrace(dir, name string, tracers ...*tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+name+".json"))
	if err != nil {
		return err
	}
	for _, t := range tracers {
		if err := t.write(f); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// agree runs the selected workloads twice back to back and compares every
// end-to-end metric the two runs both report.
func agree(o options, selected []workload, stdout io.Writer) int {
	status := 0
	for _, w := range selected {
		a := runOnce(w, o.ctx(nil, nil, o.seconds))
		b := runOnce(w, o.ctx(nil, nil, o.seconds))
		if !a.correct() || !b.correct() {
			fmt.Fprintf(stdout, "%-14s run failed: %v %v\n", w.name, a.err, b.err)
			status = 1
			continue
		}
		for _, d := range append(append([]metricDef{}, endToEnd...), scoped...) {
			va, oka := a.metrics[d.Name]
			vb, okb := b.metrics[d.Name]
			if !oka || !okb || d.Name == "ok_ratio" {
				continue
			}
			diff := 0.0
			if base := (va + vb) / 2; base != 0 {
				diff = (vb - va) / base
			}
			mark := "ok"
			if math.Abs(diff) > d.Bound+1e-12 {
				mark, status = "DISAGREE", 1
			}
			fmt.Fprintf(stdout, "%-14s %-20s %14.6g %14.6g %-6s %+7.2f%%  bound %5.2f%%  %s\n",
				w.name, d.Name, va, vb, d.Unit, 100*diff, 100*d.Bound, mark)
		}
	}
	return status
}

// printManifest writes BENCHMARK.json from the same tables the program
// reports from, so the two cannot drift apart.
func printManifest(w io.Writer) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type plain struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string  `json:"command"`
		Paths      []string  `json:"paths"`
		RunSeconds int       `json:"run_seconds"`
		Workloads  []wl      `json:"workloads"`
		EndToEnd   []bounded `json:"end_to_end"`
		PerLayer   []plain   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, x := range workloads {
		m.Workloads = append(m.Workloads, wl{x.name, x.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, bounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range tracedDefs() {
		m.PerLayer = append(m.PerLayer, plain{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(m)
}
