package rscript

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
)

const counterClass = `
	proc add {n} { state set count [expr {[state get count 0] + $n}] }
	proc get {} { state get count 0 }
`

func sortedProcs(ip *Interp) string {
	names := ip.Procs()
	sort.Strings(names)
	return strings.Join(names, " ")
}

// TestClassBoundOnce: every interpreter that loads one definitions-only
// source is bound to the same class and runs none of it; a proc defined at
// run time lands in that interpreter alone, shadows the class's proc there,
// and is listed once.
func TestClassBoundOnce(t *testing.T) {
	resetCaches()
	load := func() (*Interp, map[string]string) {
		store := map[string]string{}
		ip := New(Options{StepBudget: 100})
		ip.Register("state", fuzzState(store))
		if v, err := ip.Eval(counterClass); err != nil || v != "" {
			t.Fatalf("load: %q, %v", v, err)
		}
		return ip, store
	}
	a, aStore := load()
	b, bStore := load()
	if a.class == nil || a.class != b.class {
		t.Fatalf("classes %p and %p: want one shared class", a.class, b.class)
	}
	if a.own != nil || a.StepsUsed() != 2 {
		t.Errorf("after load: own procs %v, %d steps; want none and 2", a.own, a.StepsUsed())
	}
	if _, err := a.Eval(`proc add {n} { state set count redefined }; proc extra {} {}`); err != nil {
		t.Fatal(err)
	}
	for _, ip := range []*Interp{a, b} {
		if _, err := ip.Call("add", "5"); err != nil {
			t.Fatal(err)
		}
	}
	if aStore["count"] != "redefined" || bStore["count"] != "5" {
		t.Errorf("counts %q and %q, want redefined and 5", aStore["count"], bStore["count"])
	}
	if got := sortedProcs(a); got != "add extra get" {
		t.Errorf("procs of the redefining interpreter: %q", got)
	}
	if got := sortedProcs(b); got != "add get" {
		t.Errorf("procs of the other interpreter: %q", got)
	}
	if v, err := a.Eval(`info procs`); err != nil || v != "add extra get" {
		t.Errorf("info procs = %q, %v", v, err)
	}
	cmds := a.Commands()
	sort.Strings(cmds)
	for i := 1; i < len(cmds); i++ {
		if cmds[i] == cmds[i-1] {
			t.Errorf("Commands() lists %q twice", cmds[i])
		}
	}
	if len(cmds) != len(builtinNames)+1+3 {
		t.Errorf("Commands() has %d names, want %d builtins + state + 3 procs", len(cmds), len(builtinNames))
	}
	// A third interpreter, after the redefinition: still the class's add.
	c, cStore := load()
	if _, err := c.Call("add", "7"); err != nil || cStore["count"] != "7" {
		t.Errorf("class proc after another interpreter redefined it: count %q, %v", cStore["count"], err)
	}
	// Definitions loaded into an interpreter that already has procs are
	// evaluated: the later definition wins, whichever table held the earlier.
	if _, err := a.Eval(`proc get {} { return later }`); err != nil {
		t.Fatal(err)
	}
	if v, _ := a.Call("get"); v != "later" {
		t.Errorf("get after a second load = %q", v)
	}
	if a.class != b.class {
		t.Error("second load replaced the class")
	}
}

// TestClassNeedsBuiltinProc: when the host replaced or removed `proc`, the
// code is evaluated and means what the host made it mean.
func TestClassNeedsBuiltinProc(t *testing.T) {
	resetCaches()
	var defined []string
	shadowed := New(Options{})
	shadowed.Register("proc", func(_ *Interp, args []string) (string, error) {
		defined = append(defined, args[0])
		return "", nil
	})
	if _, err := shadowed.Eval(counterClass); err != nil {
		t.Fatal(err)
	}
	if strings.Join(defined, " ") != "add get" || len(shadowed.Procs()) != 0 {
		t.Errorf("host proc saw %v, interpreter has procs %v", defined, shadowed.Procs())
	}

	hidden := New(Options{})
	hidden.Unregister("proc")
	if _, err := hidden.Eval(counterClass); err == nil || !strings.Contains(err.Error(), `invalid command name "proc"`) {
		t.Errorf("load without proc: %v", err)
	}

	// Registered then unregistered: the builtin stays gone.
	both := New(Options{})
	both.Register("proc", func(*Interp, []string) (string, error) { return "", nil })
	both.Unregister("proc")
	if _, err := both.Eval(counterClass); err == nil || len(both.Procs()) != 0 {
		t.Errorf("load after Register+Unregister of proc: %v, procs %v", err, both.Procs())
	}

	plain := New(Options{})
	if _, err := plain.Eval(counterClass); err != nil || plain.class == nil {
		t.Errorf("plain interpreter afterwards: %v, class %p", err, plain.class)
	}
}

// TestClassBudget: binding charges what evaluating would. A budget smaller
// than the number of definitions fails the load at the same command, with
// the same error, leaving the same procs behind.
func TestClassBudget(t *testing.T) {
	resetCaches()
	const five = `proc a {} {}; proc b {} {}; proc c {} {}; proc d {} {}; proc e {} {}`
	exact := New(Options{StepBudget: 5})
	if _, err := exact.Eval(five); err != nil || exact.StepsUsed() != 5 || exact.class == nil {
		t.Fatalf("budget 5: %v, %d steps, class %p", err, exact.StepsUsed(), exact.class)
	}
	short := New(Options{StepBudget: 3})
	_, err := short.Eval(five)
	if !errors.Is(err, ErrBudget) || err.Error() != "rscript: step budget exhausted: step budget exhausted" {
		t.Fatalf("budget 3: %v", err)
	}
	if got := sortedProcs(short); got != "a b c" || short.StepsUsed() != 4 {
		t.Errorf("budget 3 left procs %q after %d steps, want a b c after 4", got, short.StepsUsed())
	}
	unlimited := New(Options{})
	if _, err := unlimited.Eval(five); err != nil || unlimited.StepsUsed() != 0 {
		t.Errorf("no budget: %v, %d steps", err, unlimited.StepsUsed())
	}
}

// TestClassBodyParseError: a body that does not parse fails every call, not
// the definition, with the same text each time.
func TestClassBodyParseError(t *testing.T) {
	resetCaches()
	ip := New(Options{})
	if _, err := ip.Eval(`proc broken {} {set a "}; proc fine {} {return ok}`); err != nil || ip.class == nil {
		t.Fatalf("load: %v, class %p", err, ip.class)
	}
	const want = `rscript: in proc "broken": rscript: parse error at line 1: missing close quote`
	for i := 0; i < 3; i++ {
		if _, err := ip.Call("broken"); err == nil || err.Error() != want {
			t.Errorf("call %d: %v", i, err)
		}
	}
	if v, err := ip.Call("fine"); err != nil || v != "ok" {
		t.Errorf("fine = %q, %v", v, err)
	}
}

// TestClassNestedDefinitionsLoadFlat: a proc whose body defines a proc whose
// body defines a proc, thousands deep, loads as one definition. Only the
// source handed to Eval gets a class; its body is parsed, not loaded, so
// the levels below are met one call at a time, each charged its step —
// exactly as when the script is run command by command.
func TestClassNestedDefinitionsLoadFlat(t *testing.T) {
	const depth = 3000
	src := nestedProcs(depth)
	resetCaches()
	ip := New(Options{StepBudget: 10})
	if _, err := ip.Eval(src); err != nil || ip.class == nil || ip.StepsUsed() != 1 {
		t.Fatalf("load: %v, class %p, %d steps", err, ip.class, ip.StepsUsed())
	}
	if n, _ := scripts.size(); n != 2 {
		t.Errorf("loading cached %d scripts, want 2: the source and the outermost body", n)
	}
	for i := 1; i <= 3; i++ {
		if v, err := ip.Call("a"); err != nil || v != "" {
			t.Fatalf("call %d: %q, %v", i, v, err)
		}
		if n, _ := scripts.size(); n != 2+i {
			t.Errorf("after %d calls %d scripts cached, want %d", i, n, 2+i)
		}
	}
	resetCaches()
	if loaded, ran := observeEval(src, 400, false), observeEval(src, 400, true); loaded != ran {
		t.Errorf("loaded: %+v\n   ran: %+v", loaded, ran)
	}
}

// TestClassSurvivesCacheDrop: the class hangs off the cached script, so
// dropping the cache drops it — for interpreters yet to come. One already
// bound keeps working, and the next load builds the class again.
func TestClassSurvivesCacheDrop(t *testing.T) {
	resetCaches()
	old := New(Options{})
	if _, err := old.Eval(`proc answer {} {expr {6 * 7}}`); err != nil {
		t.Fatal(err)
	}
	// Fill the cache until it is dropped whole.
	filler := New(Options{})
	for i := 0; i <= cacheMaxEntries; i++ {
		if _, err := filler.Eval(fmt.Sprintf("set x %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := scripts.get(`proc answer {} {expr {6 * 7}}`); ok {
		t.Fatal("cache was not dropped")
	}
	if v, err := old.Call("answer"); err != nil || v != "42" {
		t.Errorf("bound interpreter after the drop: %q, %v", v, err)
	}
	fresh := New(Options{})
	if _, err := fresh.Eval(`proc answer {} {expr {6 * 7}}`); err != nil {
		t.Fatal(err)
	}
	if fresh.class == nil || fresh.class == old.class {
		t.Errorf("class after the drop %p, before %p: want a rebuilt one", fresh.class, old.class)
	}
	if v, err := fresh.Call("answer"); err != nil || v != "42" {
		t.Errorf("fresh interpreter: %q, %v", v, err)
	}
}

// TestFrameReuse: a returned call's frame serves a later call. Whatever the
// earlier call left in it — locals, global and upvar links, also when it
// ended in an error or ran out of budget three calls deep, or nested deeper
// than the interpreter keeps frames — the later call starts empty.
func TestFrameReuse(t *testing.T) {
	ip := New(Options{StepBudget: 10_000})
	if _, err := ip.Eval(`
		proc probe {} {
			list [info exists local] [info exists g] [info exists shared] [info exists n] [info exists a]
		}
		proc leaf {how} {
			upvar shared shared
			set shared "set by leaf"
			set local 1
			if {$how eq "error"} { error "three deep" }
			if {$how eq "spin"} { while {1} { set local 2 } }
			return $shared
		}
		proc mid {how} { global g; set g "set by mid"; set shared {}; set local 1; leaf $how }
		proc top {how} { set local 1; set a 1; mid $how }
		proc down {n} {
			set local $n
			if {$n == 0} { return [probe] }
			down [expr {$n - 1}]
		}
		proc noop {} {}
	`); err != nil {
		t.Fatal(err)
	}
	const empty = "0 0 0 0 0"
	probe := func(after string) {
		t.Helper()
		ip.ResetBudget()
		if v, err := ip.Call("probe"); err != nil || v != empty {
			t.Errorf("after %s: a fresh call sees %q, %v", after, v, err)
		}
	}
	probe("nothing")
	if v, err := ip.Call("top", "ok"); err != nil || v != "set by leaf" {
		t.Fatalf("top ok = %q, %v", v, err)
	}
	if g, _ := ip.GetVar("g"); g != "set by mid" {
		t.Errorf("global g = %q", g)
	}
	probe("a nested upvar/global chain")
	if _, err := ip.Call("top", "error"); err == nil || !strings.Contains(err.Error(), "three deep") {
		t.Fatalf("top error: %v", err)
	}
	probe("an error three calls deep")
	ip.ResetBudget()
	if _, err := ip.Call("top", "spin"); !errors.Is(err, ErrBudget) {
		t.Fatalf("top spin: %v", err)
	}
	probe("a budget exhaustion three calls deep")
	ip.ResetBudget()
	if v, err := ip.Call("down", fmt.Sprint(3*maxFreeFrames)); err != nil || v != empty {
		t.Fatalf("recursion deeper than the free list: %q, %v", v, err)
	}
	if ip.nfree != maxFreeFrames {
		t.Errorf("%d frames kept after deep recursion, want %d", ip.nfree, maxFreeFrames)
	}
	probe("recursion deeper than the free list")
	if len(ip.stack) != 1 || ip.stack[0] != &ip.global || ip.depth != 0 {
		t.Errorf("stack depth %d, call depth %d after all calls returned", len(ip.stack), ip.depth)
	}

	// A frame whose map ever held many variables is kept without it:
	// clearing the map would cost its capacity on every later call.
	if _, err := ip.Eval(`proc hoard {} {
		for {set i 0} {$i < 100} {incr i} { set v$i $i }
		for {set i 0} {$i < 100} {incr i} { unset v$i }
	}`); err != nil {
		t.Fatal(err)
	}
	ip.ResetBudget()
	ip.nfree = 0
	if _, err := ip.Call("hoard"); err != nil {
		t.Fatal(err)
	}
	if ip.nfree != 1 || ip.free[0].more != nil {
		t.Error("a frame that held 100 variables was kept for reuse with its map")
	}

	if _, err := ip.Call("noop"); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ip.Call("noop"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a warm call of an empty proc allocates %v objects, want 0", n)
	}
}
