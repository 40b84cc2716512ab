package rscript

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/eval.golden from the current evaluator")

// goldenBudgets are the step budgets every golden source runs under: the
// one a server gives a shipped method (rdo.DefaultRestrictedBudget), under
// which nearly everything completes, and one so small that most sources
// stop at their third command.
var goldenBudgets = []int64{100_000, 3}

// goldenSources returns the scripts testdata/eval.golden has rows for, in
// file order: the source of every row header under the first budget. The
// list lives in the file, not in the tests, so that editing a test or a
// fuzz seed does not change which rows the file must hold. It was written
// from the fuzz seeds and the table tests' scripts; to add a source, add a
// header `=== budget 100000: "<source>"` and run with -update.
func goldenSources(t *testing.T, golden string) []string {
	t.Helper()
	prefix := fmt.Sprintf("=== budget %d: ", goldenBudgets[0])
	var srcs []string
	for _, line := range strings.Split(golden, "\n") {
		if q, ok := strings.CutPrefix(line, prefix); ok {
			src, err := strconv.Unquote(q)
			if err != nil {
				t.Fatalf("golden row header %s: %v", line, err)
			}
			srcs = append(srcs, src)
		}
	}
	if len(srcs) == 0 {
		t.Fatal("no golden sources")
	}
	return srcs
}

// goldenRow evaluates src in a fresh interpreter with the `state` command
// over an empty map and renders what it did: the result, the error text,
// the steps used, the global variables in name order, and every `state`
// call in the order it was made.
func goldenRow(src string, budget int64) string {
	store := map[string]string{}
	state := fuzzState(store)
	var calls []string
	ip := New(Options{StepBudget: budget})
	ip.Register("state", func(ip *Interp, args []string) (string, error) {
		calls = append(calls, FormatList(args))
		return state(ip, args)
	})
	v, err := ip.Eval(src)
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== budget %d: %q\n", budget, src)
	fmt.Fprintf(&sb, "result %q\n", v)
	if err != nil {
		fmt.Fprintf(&sb, "error  %q\n", err.Error())
	}
	fmt.Fprintf(&sb, "steps  %d\n", ip.StepsUsed())
	vars := ip.GlobalVars()
	names := make([]string, 0, len(vars))
	for k := range vars {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&sb, "var    %q = %q\n", k, vars[k])
	}
	for _, c := range calls {
		fmt.Fprintf(&sb, "state  %q\n", c)
	}
	return sb.String()
}

// TestEvalGolden holds the evaluator to what it did when testdata/
// eval.golden was written: for every source the file lists, under a roomy
// and a tiny step budget, the same result, error text, step count, globals
// and `state` calls, byte for byte. Run with -update to rewrite the rows
// after a deliberate change of behaviour.
func TestEvalGolden(t *testing.T) {
	const path = "testdata/eval.golden"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, src := range goldenSources(t, string(want)) {
		for _, budget := range goldenBudgets {
			sb.WriteString(goldenRow(src, budget))
		}
	}
	if *update {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got := sb.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		row := ""
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if strings.HasPrefix(wl[i], "=== ") {
				row = wl[i]
			}
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d, in row\n%s\n got %s\nwant %s", path, i+1, row, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
}
