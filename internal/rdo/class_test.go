package rdo

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"rover/internal/rscript"
	"rover/internal/urn"
)

// TestClassSharedAcrossEnvs: environments over one code string share its
// procs. Two goroutines keep building environments and invoking methods
// while a third environment redefines `add` at run time (run under -race):
// the redefinition is that environment's alone, and every listing names
// each method once.
func TestClassSharedAcrossEnvs(t *testing.T) {
	newObj := func(i int) *Object {
		o := testObj()
		o.URN = urn.MustParse(fmt.Sprintf("urn:rover:cal.mit.edu/counter/%d", i))
		return o
	}
	redefiner, err := NewEnv(newObj(0), EnvOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 1; g <= 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				sb := Sandbox(round % 2)
				e, err := NewEnv(newObj(g), EnvOptions{Sandbox: sb})
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < 3; i++ {
					if _, err := e.Invoke("add", "2"); err != nil {
						t.Error(err)
						return
					}
				}
				if v, err := e.Invoke("get"); err != nil || v != "6" {
					t.Errorf("goroutine %d round %d: get = %q, %v", g, round, v, err)
					return
				}
				methods := e.Methods()
				sort.Strings(methods)
				if got := strings.Join(methods, " "); got != "add get reset" {
					t.Errorf("goroutine %d round %d: methods %q", g, round, got)
					return
				}
			}
		}(g)
	}
	for round := 0; round < 200; round++ {
		src := fmt.Sprintf(`proc add {n} { state set count "redefined %d" }; proc extra%d {} {}`, round, round%3)
		if _, err := redefiner.EvalTrusted(src); err != nil {
			t.Fatal(err)
		}
		if v, err := redefiner.Invoke("add", "2"); err != nil || v != fmt.Sprintf("redefined %d", round) {
			t.Fatalf("round %d: redefined add = %q, %v", round, v, err)
		}
	}
	wg.Wait()

	methods := redefiner.Methods()
	sort.Strings(methods)
	const want = "add extra0 extra1 extra2 get reset"
	if got := strings.Join(methods, " "); got != want {
		t.Errorf("methods of the redefining env: %q, want %q", got, want)
	}
	if v, err := redefiner.EvalTrusted(`info procs`); err != nil || v != want {
		t.Errorf("info procs = %q, %v", v, err)
	}
	v, err := redefiner.EvalTrusted(`info commands`)
	if err != nil {
		t.Fatal(err)
	}
	cmds := strings.Fields(v)
	for i := 1; i < len(cmds); i++ {
		if cmds[i] == cmds[i-1] {
			t.Errorf("info commands lists %q twice", cmds[i])
		}
	}
	for _, m := range append(strings.Fields(want), "state", "proc") {
		if i := sort.SearchStrings(cmds, m); i == len(cmds) || cmds[i] != m {
			t.Errorf("info commands lacks %q: %v", m, cmds)
		}
	}
}

// TestHostProcCommandLoadsByEvaluation: a host that brings its own `proc`
// gets it called for every definition in the code, as before classes.
func TestHostProcCommandLoadsByEvaluation(t *testing.T) {
	if _, err := NewEnv(testObj(), EnvOptions{}); err != nil { // the class exists
		t.Fatal(err)
	}
	var seen []string
	e, err := NewEnv(testObj(), EnvOptions{HostCommands: map[string]rscript.CmdFunc{
		"proc": func(_ *rscript.Interp, args []string) (string, error) {
			seen = append(seen, args[0])
			return "", nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(seen, " "); got != "get add reset" {
		t.Errorf("host proc saw %q", got)
	}
	if len(e.Methods()) != 0 || e.HasMethod("add") {
		t.Errorf("methods %v: the host's proc defines none", e.Methods())
	}
}

// TestLoadBudget: a step budget smaller than the number of definitions
// fails the load, and says why in a way hosts can test for.
func TestLoadBudget(t *testing.T) {
	if _, err := NewEnv(testObj(), EnvOptions{StepBudget: 3}); err != nil {
		t.Fatalf("budget 3 for 3 definitions: %v", err)
	}
	for _, sb := range []Sandbox{Trusted, Restricted} {
		_, err := NewEnv(testObj(), EnvOptions{Sandbox: sb, StepBudget: 2})
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("sandbox %d, budget 2 for 3 definitions: %v", sb, err)
		}
		const want = "rdo: loading code for urn:rover:cal.mit.edu/counter: rscript: step budget exhausted: step budget exhausted"
		if err.Error() != want {
			t.Errorf("sandbox %d: %q, want %q", sb, err, want)
		}
	}
}
