package rover

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ledgerRow is one line of LEDGER.jsonl: one metric of one workload,
// measured as alternating parent/change pairs of benchmark runs.
type ledgerRow struct {
	PR     int    `json:"pr"`
	Commit string `json:"commit"` // empty on the rows a PR adds about itself
	Parent string `json:"parent"`

	Workload string `json:"workload"`
	Metric   string `json:"metric"`
	Unit     string `json:"unit"`

	ParentMedian *float64 `json:"parent_median"`
	ParentIQR    *float64 `json:"parent_iqr"`
	ChangeMedian *float64 `json:"change_median"`
	Pairs        int      `json:"pairs"`
	Wins         int      `json:"wins"`
	Seeds        []int64  `json:"seeds"`

	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Traced     *bool  `json:"traced"`
	Claim      *bool  `json:"claim"`
	Source     string `json:"source,omitempty"`
}

// goBenchUnits are the metrics of a Go benchmark row, all better lower.
var goBenchUnits = map[string]string{"ns_per_op": "ns", "allocs_per_op": "count", "fsyncs_per_op": "count"}

// checkGoBench checks a workload "go:<pkg>.<Benchmark>[/<sub>]": a Go
// benchmark of the module, <pkg> its package directory, which must declare
// the function.
func checkGoBench(workload string) error {
	pkg, bench, ok := strings.Cut(strings.TrimPrefix(workload, "go:"), ".Benchmark")
	name, _, _ := strings.Cut("Benchmark"+bench, "/")
	if !ok || pkg == "" || name == "Benchmark" {
		return fmt.Errorf("workload %q is not go:<pkg>.<Benchmark>[/<sub>]", workload)
	}
	files, _ := filepath.Glob(filepath.Join(filepath.FromSlash(pkg), "*_test.go"))
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		if bytes.Contains(src, []byte("func "+name+"(b *testing.B)")) {
			return nil
		}
	}
	return fmt.Errorf("workload %q: no func %s in %s", workload, name, pkg)
}

// TestLedger checks every row of LEDGER.jsonl against BENCHMARK.json's
// workloads and metrics (or, for a go: workload, against the Go benchmark
// it names and goBenchUnits), and every claimed gain against the rule a perf
// claim must meet: the change wins at least 9 of 10 pairs, and its median
// is further from the parent's, in the better direction, than the parent
// runs' interquartile range.
func TestLedger(t *testing.T) {
	var manifest struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	workloads := map[string]bool{}
	for _, w := range manifest.Workloads {
		workloads[w.Name] = true
	}
	unit, better := map[string]string{}, map[string]string{}
	for _, m := range manifest.EndToEnd {
		unit[m.Name], better[m.Name] = m.Unit, m.Better
	}

	raw, err = os.ReadFile("LEDGER.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	claims := map[int]int{}
	for line := 1; sc.Scan(); line++ {
		var r ledgerRow
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			t.Errorf("line %d: %v", line, err)
			continue
		}
		wantUnit, wantBetter, goErr := unit[r.Metric], better[r.Metric], error(nil)
		goBench := strings.HasPrefix(r.Workload, "go:")
		if goBench {
			wantUnit, wantBetter, goErr = goBenchUnits[r.Metric], "lower", checkGoBench(r.Workload)
		}
		switch {
		case r.PR <= 0 || r.Parent == "":
			t.Errorf("line %d: a row names its PR and the parent it was measured against", line)
		case goErr != nil:
			t.Errorf("line %d: %v", line, goErr)
		case !goBench && !workloads[r.Workload]:
			t.Errorf("line %d: workload %q is not in BENCHMARK.json", line, r.Workload)
		case wantUnit == "":
			t.Errorf("line %d: %q is not a metric of workload %q", line, r.Metric, r.Workload)
		case r.Unit != wantUnit:
			t.Errorf("line %d: %s is in %q, want %q", line, r.Metric, r.Unit, wantUnit)
		case r.ParentMedian == nil || r.ParentIQR == nil || r.ChangeMedian == nil || *r.ParentIQR < 0:
			t.Errorf("line %d: parent_median, parent_iqr (>= 0) and change_median are required", line)
		case r.Pairs <= 0 || r.Wins < 0 || r.Wins > r.Pairs || len(r.Seeds) != r.Pairs:
			t.Errorf("line %d: %d wins of %d pairs over %d seeds", line, r.Wins, r.Pairs, len(r.Seeds))
		case r.GOMAXPROCS <= 0 || r.NProc <= 0 || r.Traced == nil || r.Claim == nil:
			t.Errorf("line %d: gomaxprocs, nproc, traced and claim are required", line)
		case *r.Claim:
			claims[r.PR]++
			gap := *r.ChangeMedian - *r.ParentMedian
			if wantBetter == "lower" {
				gap = -gap
			}
			if r.Pairs < 10 || 10*r.Wins < 9*r.Pairs || gap <= *r.ParentIQR {
				t.Errorf("line %d: PR %d claims %s on %s with %d/%d wins and a gap of %g against a parent IQR of %g",
					line, r.PR, r.Metric, r.Workload, r.Wins, r.Pairs, gap, *r.ParentIQR)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, pr := range []int{32, 34, 35, 36, 37, 40, 44, 46, 49} {
		if claims[pr] == 0 {
			t.Errorf("PR %d's claim is not in the ledger", pr)
		}
	}
}
