package bench

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden from the current code")

const goldenPath = "testdata/tables.golden"

// masked renders t with every cell of a Volatile column replaced by "~"
// before the column widths are computed, so neither the cells nor the
// padding around them can vary between runs.
func masked(t *Table) string {
	m := *t
	m.Rows = make([][]string, len(t.Rows))
	for i, row := range t.Rows {
		m.Rows[i] = append([]string(nil), row...)
		for _, c := range t.Volatile {
			if c < len(row) {
				m.Rows[i][c] = "~"
			}
		}
	}
	return m.Render()
}

// goldenSections splits a golden file into its tables, keyed by ID. Each
// table starts at its "== ID: title ==" line.
func goldenSections(text string) map[string]string {
	out := map[string]string{}
	for _, sec := range strings.SplitAfter(text, "\n\n") {
		if id, ok := strings.CutPrefix(sec, "== "); ok {
			id, _, _ = strings.Cut(id, ":")
			out[id] = sec
		}
	}
	return out
}

// TestTablesGolden pins every registered experiment's table at quick scale:
// every virtual-time cell is an exact function of the code and the seed.
// A registered experiment missing from the golden fails; -update rewrites
// the file.
func TestTablesGolden(t *testing.T) {
	var all strings.Builder
	got := map[string]string{}
	for _, e := range All() {
		tbl, err := e.Run(Options{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		got[e.ID] = masked(tbl) + "\n"
		all.WriteString(got[e.ID])
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/bench/ -run TestTablesGolden -update)", err)
	}
	want := goldenSections(string(data))
	for _, e := range All() {
		w, ok := want[e.ID]
		if !ok {
			t.Errorf("%s is registered but not in %s", e.ID, goldenPath)
			continue
		}
		if g := got[e.ID]; g != w {
			t.Errorf("%s differs from %s:\n%s", e.ID, goldenPath, lineDiff(w, g))
		}
		delete(want, e.ID)
	}
	for id := range want {
		t.Errorf("%s holds %s, which is not registered", goldenPath, id)
	}
}

// lineDiff lists the lines of want and got that differ, position by
// position.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			sb.WriteString("-" + wl + "\n+" + gl + "\n")
		}
	}
	return sb.String()
}
