package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// ExpT1 regenerates Table 1: the Rover toolkit interface as seen by
// applications — the client API plus the commands available to RDO code in
// its execution environment (the paper's table listed the Tcl extensions
// serving the same roles).
func ExpT1(o Options) (*Table, error) {
	rows := [][]string{
		{"Import(urn, opts)", "client API", "fetch an object into the cache; returns a promise"},
		{"Invoke(urn, method, args...)", "client API", "execute a method on the cached RDO; mutations become tentative queued operations"},
		{"InvokeRemote(urn, method, args)", "client API", "queue a method execution at the object's home server"},
		{"InvokeBest(urn, method, args)", "client API", "dynamic placement: local when cached, server-side otherwise"},
		{"Export(urn, pri)", "client API", "ship queued tentative operations to the home server"},
		{"Create(obj, pri)", "client API", "register a new object at its home server"},
		{"Stat(urn, pri)", "client API", "probe existence/version without transferring the object"},
		{"List(prefix, pri)", "client API", "enumerate server objects under a prefix"},
		{"Subscribe(prefix, pri)", "client API", "request invalidation callbacks for objects under a prefix"},
		{"Prefetch(urn) / PrefetchPrefix", "client API", "low-priority cache warming for disconnection"},
		{"Conflicts(pri)", "client API", "fetch the server's manual-repair queue"},
		{"Status()", "client API", "user-notification snapshot: connectivity, queue depth, tentative count"},
		{"promise.Wait/Ready/OnReady", "client API", "block on, poll, or get a callback from any queued operation"},
		{"state get/set/unset/exists/keys/size", "RDO environment", "the object's persistent state dictionary"},
		{"proc / if / while / foreach / expr / ...", "RDO environment", "the rscript language (Tcl subset) RDO methods are written in"},
		{"rover.getstate urn key", "RDO environment (server)", "read another object's committed state during server-side execution"},
		{"puts", "RDO environment (trusted only)", "diagnostic output; removed from the restricted sandbox"},
	}
	return &Table{
		ID:      "T1",
		Title:   "The Rover toolkit interface (client API and RDO execution environment)",
		Columns: []string{"operation", "layer", "purpose"},
		Rows:    rows,
	}, nil
}

// ExpT2 regenerates the application-size table: how much code each Rover
// application took, split into RDO code (shipped rscript), Go application
// logic, and tests. The paper's equivalent table reported how little code
// it took to port Exmh/Ical and build the proxy.
func ExpT2(o Options) (*Table, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	apps := []struct {
		name string
		dir  string
	}{
		{"mail reader (Exmh analog)", "internal/apps/mail"},
		{"calendar (Ical/Bayou analog)", "internal/apps/calendar"},
		{"web browser proxy", "internal/apps/webproxy"},
	}
	var rows [][]string
	for _, app := range apps {
		code, tests, rdoLines, err := countPackage(filepath.Join(root, app.dir))
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			app.name,
			fmt.Sprintf("%d", code),
			fmt.Sprintf("%d", rdoLines),
			fmt.Sprintf("%d", tests),
		})
	}
	// Toolkit core for scale.
	var toolkitCode int
	for _, dir := range []string{
		"internal/wire", "internal/urn", "internal/vtime", "internal/netsim",
		"internal/stable", "internal/rscript", "internal/auth", "internal/rdo",
		"internal/qrpc", "internal/sched", "internal/transport", "internal/store",
		"internal/resolve", "internal/session", "internal/cache", "internal/access",
		"internal/server", "internal/proto",
	} {
		code, _, _, err := countPackage(filepath.Join(root, dir))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
		toolkitCode += code
	}
	rows = append(rows, []string{"(toolkit core, for scale)", fmt.Sprintf("%d", toolkitCode), "-", "-"})
	return &Table{
		ID:       "T2",
		Title:    "Application code sizes",
		Columns:  []string{"application", "Go lines", "RDO (rscript) lines", "test lines"},
		Volatile: []int{1, 3},
		Rows:     rows,
		Notes:    []string{"RDO lines are the shipped rscript method suites embedded in each application"},
	}, nil
}

// repoRoot locates the module root from this source file's location.
func repoRoot() (string, error) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("bench: cannot locate source file")
	}
	// file = <root>/internal/bench/exp_meta.go
	root := filepath.Dir(filepath.Dir(filepath.Dir(file)))
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return "", fmt.Errorf("bench: %s does not look like the module root: %w", root, err)
	}
	return root, nil
}

// countPackage counts non-test Go lines, test lines, and rscript lines
// (lines inside backquoted string literals that look like method code — we
// approximate by counting lines in const blocks containing "proc ").
func countPackage(dir string) (code, tests, rdoLines int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, 0, 0, err
		}
		lines := strings.Count(string(data), "\n")
		if strings.HasSuffix(e.Name(), "_test.go") {
			tests += lines
		} else {
			code += lines
			rdoLines += countRScript(string(data))
		}
	}
	return code, tests, rdoLines, nil
}

// countRScript counts lines inside backquoted literals that contain rscript
// procs.
func countRScript(src string) int {
	total := 0
	for {
		start := strings.IndexByte(src, '`')
		if start < 0 {
			return total
		}
		end := strings.IndexByte(src[start+1:], '`')
		if end < 0 {
			return total
		}
		lit := src[start+1 : start+1+end]
		if strings.Contains(lit, "proc ") {
			total += strings.Count(lit, "\n")
		}
		src = src[start+1+end+1:]
	}
}
