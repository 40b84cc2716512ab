package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func tinyCtx(t *testing.T, traced bool) *runCtx {
	rc := &runCtx{seed: 7, seconds: 0.3, warm: 0.02, dir: t.TempDir(), clients: 2, sz: tinySizes}
	if traced {
		rc.tr, rc.probe = newTracer(), newTracer()
	}
	return rc
}

// TestWorkloadsSmoke runs every workload for 300 ms on tiny populations,
// untraced and traced, and requires a correct run: every operation checked,
// no probe error, every end-to-end metric positive and — runOnce holds the
// traced run to it — every per-layer metric in workload.layers positive.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res := runOnce(w, tinyCtx(t, traced))
				if !res.correct() {
					t.Fatalf("attempted %d, failed %d: %v", res.attempted, res.failed, res.err)
				}
				for _, d := range endToEnd {
					if v, ok := res.metrics[d.Name]; !ok || v <= 0 {
						t.Errorf("%s = %v (reported: %v), want a positive number on every workload", d.Name, v, ok)
					}
				}
				if traced && res.metrics["gen.samples"] <= 0 {
					t.Errorf("traced run reported no latency samples")
				}
			})
		}
	}
}

// A metric a workload's traced run must report (workload.layers) and does
// not fails the run: left alone it would read 0 in the driver's line, the
// best value a "lower is better" metric can have.
func TestDeadLayerMetricFailsTheRun(t *testing.T) {
	known := map[string]bool{}
	for _, d := range tracedDefs() {
		known[d.Name] = true
	}
	for _, w := range workloads {
		if len(w.layers) == 0 {
			t.Errorf("%s names no per-layer metric its traced run must report", w.name)
		}
		for _, name := range w.layers {
			if !known[name] {
				t.Errorf("%s must report %q, which no table defines", w.name, name)
			}
		}
	}
	echo, _ := findWorkload("echo_rtt")
	echo.layers = append([]string{"store.get_us_p50"}, echo.layers...) // echo_rtt never touches the store
	if res := runOnce(echo, tinyCtx(t, true)); res.correct() {
		t.Error("a traced run without a metric it must report passed as correct")
	}
	if res := runOnce(echo, tinyCtx(t, false)); !res.correct() {
		t.Errorf("the untraced run reports no per-layer metric and must not be held to them: %v", res.err)
	}
}

func TestScopedMetricsStayScoped(t *testing.T) {
	echo, _ := findWorkload("echo_rtt")
	res := runOnce(echo, tinyCtx(t, false))
	for _, name := range []string{"fsyncs_per_op", "wire_bytes_per_op", "session_vs_cslip14", "reopen_scan_s"} {
		if _, ok := res.metrics[name]; ok {
			t.Errorf("echo_rtt reports %s, which has no meaning there", name)
		}
	}
	modem, _ := findWorkload("modem_session")
	res = runOnce(modem, tinyCtx(t, false))
	for _, name := range []string{"wire_bytes_per_op", "session_vs_cslip14", "session_vs_ethernet"} {
		if res.metrics[name] <= 0 {
			t.Errorf("modem_session: %s = %v, want > 0", name, res.metrics[name])
		}
	}
	// Virtual-time results depend on the seed alone.
	again := runOnce(modem, tinyCtx(t, false))
	for _, name := range []string{"wire_bytes_per_op", "session_vs_cslip14", "session_vs_ethernet", "lat_p50_ms", "lat_p95_ms"} {
		if res.metrics[name] != again.metrics[name] {
			t.Errorf("modem_session %s: %v then %v with the same seed", name, res.metrics[name], again.metrics[name])
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{3}, 99.9); got != 3 {
		t.Errorf("percentile of one sample = %v, want 3", got)
	}
}

// The highest percentile worth reporting leaves at least ten samples beyond it.
func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {99, 50}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10_000, 99.9}, {100_000, 99.99}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	draw := func(seed int64) []int {
		k := newKeyPicker(seed, 1000, 50, 0.8)
		out := make([]int, 500)
		for i := range out {
			out[i] = k.next()
		}
		return out
	}
	a, b, c := draw(42), draw(42), draw(43)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two key sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same key sequence")
	}
	hot := 0
	for _, k := range a {
		if k < 50 {
			hot++
		}
	}
	if hot < 350 || hot > 470 { // 80% + a twentieth of the uniform 20%
		t.Errorf("%d of 500 draws fell in the hot set, want about 405", hot)
	}
	if !reflect.DeepEqual(payloads(9, 4, 64), payloads(9, 4, 64)) || reflect.DeepEqual(payloads(9, 4, 64), payloads(10, 4, 64)) {
		t.Error("payloads do not follow the seed")
	}
	if newCounter(1, 5).State["pad"] == newCounter(2, 5).State["pad"] || !padOK(newCounter(1, 5), 1, 5) || padOK(newCounter(1, 5), 1, 6) {
		t.Error("object pads do not identify index and seed")
	}
}

// A full latency buffer halves itself and doubles its stride: what is kept is
// always every stride-th measurement, from the first on.
func TestLatBufKeepsAnEvenStride(t *testing.T) {
	b := newLatBuf()
	n := 5*latBufCap + 17
	for i := 0; i < n; i++ {
		b.add(float64(i))
	}
	if b.stride != 8 || len(b.xs) > latBufCap || len(b.xs) < latBufCap/2 {
		t.Fatalf("stride %d with %d samples kept, want stride 8 and between %d and %d", b.stride, len(b.xs), latBufCap/2, latBufCap)
	}
	for i, v := range b.xs {
		if v != float64(i*b.stride) {
			t.Fatalf("sample %d is measurement %v, want %d", i, v, i*b.stride)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},   // overlaps 2: the union 10..50 counts once
		{ID: 4, Parent: 1, Start: 90, End: 120},  // clipped to the parent's end
		{ID: 5, Parent: 3, Start: 25, End: 35},   // grandchild: only 3 pays for it
		{ID: 6, Parent: 99, Start: 0, End: 1000}, // parent never recorded
	}
	want := map[uint32]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10, 6: 1000}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// TestManifestParity keeps BENCHMARK.json, the program's tables and the
// names a run emits identical.
func TestManifestParity(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || !unit.MatchString(u) || seen[n] {
			t.Errorf("bad or repeated name/unit %q/%q", n, u)
		}
		seen[n] = true
	}
	if len(m.Workloads) != len(workloads) || len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(tracedDefs()) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the program has %d, %d and %d — rerun -manifest",
			len(m.Workloads), len(m.EndToEnd), len(m.PerLayer), len(workloads), len(endToEnd), len(tracedDefs()))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, m.Workloads[i].Name, w.name)
		}
		check(w.name, "count")
	}
	setup := false
	for i, d := range endToEnd {
		if got := m.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in the program", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
		check(d.Name, d.Unit)
	}
	if !setup {
		t.Error("no setup_s in end_to_end")
	}
	for i, d := range tracedDefs() {
		if got := m.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in the program", i, got, d)
		}
		check(d.Name, d.Unit)
	}
	if len(m.PerLayer) > 128 || m.RunSeconds < 1 || m.RunSeconds > 60 || !reflect.DeepEqual(m.Paths, []string{"benchmark"}) {
		t.Errorf("BENCHMARK.json outside the contract's limits: %d per-layer, run_seconds %d, paths %v", len(m.PerLayer), m.RunSeconds, m.Paths)
	}
}

// TestEmittedNames runs the driver's two invocations of one workload and
// requires exactly the manifest's names in the verdict line.
func TestEmittedNames(t *testing.T) {
	for trace, defs := range map[int][]metricDef{0: endToEnd, 1: tracedDefs()} {
		var out jsonLines
		o := options{workload: "echo_rtt", seed: 3, seconds: 0.2, warm: 0.02, trace: trace, dir: t.TempDir(), out: t.TempDir(), sz: tinySizes}
		w, _ := findWorkload(o.workload)
		v := runWorkload(o, w, &out)
		if !v.Correct || len(v.Metrics) != len(defs) {
			t.Fatalf("trace %d: correct %v with %d metrics, want %d", trace, v.Correct, len(v.Metrics), len(defs))
		}
		for _, d := range defs {
			if got, ok := v.Metrics[d.Name]; !ok || got.Unit != d.Unit {
				t.Errorf("trace %d: %s missing or in %q, want %q", trace, d.Name, got.Unit, d.Unit)
			}
		}
		var last verdict
		if err := json.Unmarshal(out.last(), &last); err != nil || !reflect.DeepEqual(last, v) {
			t.Errorf("trace %d: the last line of output is not the verdict: %v", trace, err)
		}
	}
}

type jsonLines struct{ lines [][]byte }

func (j *jsonLines) Write(p []byte) (int, error) {
	j.lines = append(j.lines, append([]byte(nil), p...))
	return len(p), nil
}

func (j *jsonLines) last() []byte { return j.lines[len(j.lines)-1] }
