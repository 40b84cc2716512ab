package rscript

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reset empties the cache.
func (c *progCache[T]) reset() {
	c.mu.Lock()
	c.m, c.bytes = nil, 0
	c.mu.Unlock()
}

// evict drops one source from the cache.
func (c *progCache[T]) evict(src string) {
	c.mu.Lock()
	if _, ok := c.m[src]; ok {
		delete(c.m, src)
		c.bytes -= len(src)
	}
	c.mu.Unlock()
}

// resetCaches empties the process-wide compile caches, so the next
// evaluation of any source compiles it afresh.
func resetCaches() {
	scripts.reset()
	exprs.reset()
}

// sharedProgram exercises every consumer of the caches: top-level Eval,
// proc bodies, loop and if bodies, expr conditions, and a [cmd] inside an
// expr.
const sharedProgram = `
	proc fib {n} {
		if {$n < 2} { return $n }
		expr {[fib [expr {$n - 1}]] + [fib [expr {$n - 2}]]}
	}
	proc sum {lst} {
		set t 0
		foreach x $lst { incr t $x }
		return $t
	}
	set acc {}
	for {set i 0} {$i < 8} {incr i} {
		if {$i % 2 == 0 && [string length $acc] < 100} {
			lappend acc [fib $i]
		} else {
			lappend acc [expr {$i * $seed}]
		}
	}
	set k 0
	while {$k < 3} { incr k }
	list [sum $acc] $k [catch {error boom} msg] $msg
`

// TestSharedScriptConcurrentEval: many interpreters walk the same cached
// *Script and *exprProg at once (run under -race). Each has its own
// variables and procs, so results differ by seed and must not bleed.
func TestSharedScriptConcurrentEval(t *testing.T) {
	resetCaches()
	want := func(seed int) string {
		ip := New(Options{})
		ip.SetVar("seed", fmt.Sprint(seed))
		s, err := Parse(sharedProgram)
		if err != nil {
			t.Fatal(err)
		}
		v, f := ip.evalScript(s)
		out, err := finish(v, f)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	const goroutines = 16
	wants := make([]string, goroutines)
	for g := range wants {
		wants[g] = want(g)
	}
	if wants[1] == wants[2] {
		t.Fatalf("program does not depend on its seed: %q", wants[1])
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				ip := New(Options{StepBudget: 100_000})
				ip.SetVar("seed", fmt.Sprint(g))
				got, err := ip.Eval(sharedProgram)
				if err != nil {
					t.Errorf("goroutine %d round %d: %v", g, round, err)
					return
				}
				if got != wants[g] {
					t.Errorf("goroutine %d round %d: %q, want %q", g, round, got, wants[g])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	cached, ok := scripts.get(sharedProgram)
	if !ok {
		t.Fatal("program not cached after evaluation")
	}
	fresh, err := Parse(sharedProgram)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := dumpScript(cached), dumpScript(fresh); a != b {
		t.Errorf("cached AST changed under evaluation:\n%s\nfresh parse:\n%s", a, b)
	}
}

// dumpScript renders an AST so two parses can be compared.
func dumpScript(s *Script) string {
	var sb strings.Builder
	var walk func(s *Script, depth int)
	walk = func(s *Script, depth int) {
		for _, c := range s.Cmds {
			fmt.Fprintf(&sb, "%*sL%d", depth*2, "", c.Line)
			for _, w := range c.Words {
				sb.WriteString(" <")
				for _, p := range w.Parts {
					switch p := p.(type) {
					case LitPart:
						fmt.Fprintf(&sb, "lit%q", string(p))
					case VarPart:
						fmt.Fprintf(&sb, "var%q", string(p))
					case CmdPart:
						sb.WriteString("cmd[\n")
						walk(p.Script, depth+1)
						sb.WriteString("]")
					}
				}
				sb.WriteString(">")
			}
			sb.WriteString("\n")
		}
	}
	walk(s, 0)
	return sb.String()
}

// TestSandboxesShareOnlyTheParse: a full-command interpreter runs the code
// first and fills the caches; a restricted one (no puts/info, small budget)
// created afterwards over the same source must behave exactly like one
// that met the code cold — same rejected commands, ErrBudget at the same
// step.
func TestSandboxesShareOnlyTheParse(t *testing.T) {
	const code = `
		proc shout {} { puts hi }
		proc peek {} { info commands }
		proc spin {} { set n 0; while {1} { incr n } }
		proc ok {} { expr {6 * 7} }
	`
	restricted := func() *Interp {
		ip := New(Options{StepBudget: 500})
		ip.Unregister("puts")
		ip.Unregister("info")
		if _, err := ip.Eval(code); err != nil {
			t.Fatal(err)
		}
		return ip
	}
	type outcome struct {
		shout, peek, spin string
		spinSteps         int64
		n                 string
	}
	observe := func(ip *Interp) outcome {
		var o outcome
		_, err := ip.Call("shout")
		o.shout = fmt.Sprint(err)
		_, err = ip.Call("peek")
		o.peek = fmt.Sprint(err)
		ip.ResetBudget()
		_, err = ip.Call("spin")
		if !errors.Is(errFromScript(err), ErrBudget) {
			t.Fatalf("spin: %v", err)
		}
		o.spin = err.Error()
		o.spinSteps = ip.StepsUsed()
		ip.ResetBudget()
		if v, err := ip.Call("ok"); err != nil || v != "42" {
			t.Fatalf("ok after budget reset: %q, %v", v, err)
		}
		return o
	}

	resetCaches()
	cold := observe(restricted())

	resetCaches()
	var out strings.Builder
	full := New(Options{Stdout: &out})
	if _, err := full.Eval(code); err != nil {
		t.Fatal(err)
	}
	if _, err := full.Call("shout"); err != nil || out.String() != "hi\n" {
		t.Fatalf("full interpreter: puts wrote %q, err %v", out.String(), err)
	}
	if v, err := full.Call("peek"); err != nil || !strings.Contains(v, "puts") {
		t.Fatalf("full interpreter: info commands = %q, %v", v, err)
	}
	warm := observe(restricted())

	if cold != warm {
		t.Errorf("restricted interpreter after a full one: %+v\ncold: %+v", warm, cold)
	}
	if want := `rscript: invalid command name "puts"`; warm.shout != want {
		t.Errorf("puts in restricted interpreter: %s, want %s", warm.shout, want)
	}
	if want := `rscript: invalid command name "info"`; warm.peek != want {
		t.Errorf("info in restricted interpreter: %s, want %s", warm.peek, want)
	}
	if warm.spinSteps != 501 {
		t.Errorf("budget of 500 tripped at step %d, want 501", warm.spinSteps)
	}
	// The full interpreter kept its commands after the restricted ones
	// hid theirs.
	if _, err := full.Call("shout"); err != nil {
		t.Errorf("full interpreter lost puts: %v", err)
	}
}

// TestCacheBounds: the caches never hold more than their constants allow,
// whatever is thrown at them, and an oversized source still evaluates.
func TestCacheBounds(t *testing.T) {
	resetCaches()
	check := func(when string) {
		t.Helper()
		for name, size := range map[string]func() (int, int){"scripts": scripts.size, "exprs": exprs.size} {
			n, b := size()
			if n > cacheMaxEntries || b > cacheMaxBytes {
				t.Fatalf("%s: %s cache holds %d entries, %d bytes; bounds are %d and %d",
					when, name, n, b, cacheMaxEntries, cacheMaxBytes)
			}
		}
	}
	ip := New(Options{})
	for i := 0; i < 10_000; i++ {
		if _, err := ip.Eval(fmt.Sprintf("set x%d [expr {%d + 1}]", i%7, i)); err != nil {
			t.Fatal(err)
		}
		if i%997 == 0 {
			check(fmt.Sprintf("after %d distinct sources", i+1))
		}
	}
	check("after 10k distinct sources")
	if n, _ := scripts.size(); n == 0 {
		t.Fatal("nothing cached")
	}

	// Sources just under the per-source bound fill the byte bound long
	// before the entry bound.
	pad := strings.Repeat(" ", cacheMaxSource-64)
	for i := 0; i < 3*cacheMaxBytes/cacheMaxSource; i++ {
		if v, err := ip.Eval(fmt.Sprintf("set y %d%s", i, pad)); err != nil || v != fmt.Sprint(i) {
			t.Fatalf("large source %d: %q, %v", i, v, err)
		}
		check("large sources")
	}

	// An oversized source is compiled every time and never stored.
	resetCaches()
	huge := "set z ok" + strings.Repeat(" ", cacheMaxSource)
	hugeExpr := "1 +" + strings.Repeat(" ", cacheMaxSource) + "1"
	for i := 0; i < 3; i++ {
		if v, err := ip.Eval(huge); err != nil || v != "ok" {
			t.Fatalf("oversized script: %q, %v", v, err)
		}
		ip.SetVar("e", hugeExpr)
		if v, err := ip.Eval("expr $e"); err != nil || v != "2" {
			t.Fatalf("oversized expr: %q, %v", v, err)
		}
	}
	if _, ok := scripts.get(huge); ok {
		t.Error("oversized script was cached")
	}
	if _, ok := exprs.get(hugeExpr); ok {
		t.Error("oversized expr was cached")
	}
	if _, b := scripts.size(); b > 64 {
		t.Errorf("scripts cache holds %d bytes after only oversized and tiny sources", b)
	}
}

// builtinNames is `info commands` of a fresh interpreter before the
// builtin table became shared: the 36 standard commands.
var builtinNames = strings.Fields(`append break catch concat continue error eval expr for foreach
	format global if incr info join lappend lindex linsert list llength lrange lreplace lreverse
	lsearch lsort proc puts return set split string switch unset upvar while`)

// TestInfoCommandsParity: `info commands` and Commands() report builtins,
// host commands and procs exactly as when every interpreter owned a copy
// of the table.
func TestInfoCommandsParity(t *testing.T) {
	list := func(ip *Interp) []string {
		t.Helper()
		v, err := ip.Eval("info commands")
		if err != nil {
			t.Fatal(err)
		}
		names, err := ParseList(v)
		if err != nil {
			t.Fatal(err)
		}
		direct := ip.Commands()
		sort.Strings(direct)
		if strings.Join(direct, " ") != strings.Join(names, " ") {
			t.Errorf("Commands() = %v, info commands = %v", direct, names)
		}
		return names
	}
	with := func(base []string, add ...string) []string {
		out := append(append([]string(nil), base...), add...)
		sort.Strings(out)
		return out
	}
	without := func(base []string, drop ...string) []string {
		var out []string
		for _, n := range base {
			if !slices.Contains(drop, n) {
				out = append(out, n)
			}
		}
		return out
	}
	same := func(what string, got, want []string) {
		t.Helper()
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s:\n got %v\nwant %v", what, got, want)
		}
	}
	nop := func(*Interp, []string) (string, error) { return "host", nil }

	if len(builtinNames) != 36 {
		t.Fatalf("reference list has %d names", len(builtinNames))
	}
	ip := New(Options{})
	same("fresh interpreter", list(ip), builtinNames)

	ip.Register("state", nop)
	ip.Register("rover.getstate", nop)
	same("with host commands", list(ip), with(builtinNames, "state", "rover.getstate"))

	ip.Unregister("puts")
	ip.Unregister("rover.getstate")
	ip.Unregister("never-registered")
	same("after Unregister", list(ip), with(without(builtinNames, "puts"), "state"))

	// A host command may take a builtin's name; it is listed once and it
	// is the one that runs. Unregistering it does not resurrect the builtin.
	ip.Register("format", nop)
	same("host command shadowing a builtin", list(ip), with(without(builtinNames, "puts"), "state"))
	if v, err := ip.Eval("format %d 7"); err != nil || v != "host" {
		t.Errorf("shadowed format = %q, %v", v, err)
	}
	ip.Unregister("format")
	same("shadowing host command unregistered", list(ip), with(without(builtinNames, "puts", "format"), "state"))
	if _, err := ip.Eval("format %d 7"); err == nil || !strings.Contains(err.Error(), `invalid command name "format"`) {
		t.Errorf("format after Unregister: %v", err)
	}
	// Re-registering a hidden name brings a command of that name back.
	ip.Register("puts", nop)
	same("hidden name re-registered", list(ip), with(without(builtinNames, "format"), "state"))

	if _, err := ip.Eval("proc mine {} {}"); err != nil {
		t.Fatal(err)
	}
	same("with a proc", list(ip), with(without(builtinNames, "format"), "state", "mine"))

	// None of that touched another interpreter.
	same("second interpreter", list(New(Options{})), builtinNames)
}

// TestExprErrorsAndSubstitutionOrder pins what an expression reports, and
// what it has already done by then, when substitution and scanning both
// have something to complain about. expr scans left to right,
// substituting as it goes, so operands to the left of a lexical error are
// substituted (and their commands run) before the error is reported, and
// everything is substituted before a grammar error is.
func TestExprErrorsAndSubstitutionOrder(t *testing.T) {
	cases := []struct {
		expr    string
		wantErr string
		wantN   string // value of n afterwards; each [incr n] that ran adds 1
	}{
		{`[incr n] + @`, `expr: unexpected character "@"`, "1"},
		{`@ + [incr n]`, `expr: unexpected character "@"`, "0"},
		{`$nope + @`, `can't read "nope": no such variable`, "0"},
		{`[incr n] + $nope + [incr n]`, `can't read "nope": no such variable`, "1"},
		{`[incr n] + "open`, `expr: missing close quote`, "1"},
		{`[incr n] + {open`, `expr: missing close brace`, "1"},
		{`[incr n] + [incr n`, `expr: rscript: parse error at line 1: missing close bracket`, "1"},
		{`[incr n] + $`, `expr: bad variable reference`, "1"},
		{`[incr n] + 0x`, `expr: bad number "0x"`, "1"},
		{`[incr n] + 1.2.3`, `expr: bad number "1.2.3"`, "1"},
		{`1 1 [incr n]`, `expr: trailing tokens in "1 1 [incr n]"`, "1"},
		{`nosuch [incr n]`, `expr: bare word "nosuch" (quote strings)`, "1"},
		{`1 / 0 + [incr n]`, `expr: divide by zero`, "1"},
		{`(1 + [incr n]`, `expr: missing close paren`, "1"},
		{`0 && [incr n]`, ``, "1"},
		{`1 || [incr n] || [incr n]`, ``, "2"},
		{`[error inner] + [incr n]`, `inner`, "0"},
		{`[return 5] + [incr n]`, ``, "1"},
		{`"a" + [incr n]`, `expr: operator "+" requires numeric operands (got "a", "1")`, "1"},
		{`1 +`, `expr: unexpected end of expression`, "0"},
		{`sqrt(1, [incr n])`, `expr: sqrt() takes 1 argument(s), got 2`, "1"},
	}
	for _, c := range cases {
		// Twice: the second evaluation is served from the cache.
		for round := 0; round < 2; round++ {
			ip := New(Options{})
			ip.SetVar("n", "0")
			ip.SetVar("e", c.expr)
			_, err := ip.Eval(`expr $e`)
			got := ""
			if err != nil {
				got = strings.TrimPrefix(err.Error(), "rscript: ")
			}
			if got != c.wantErr {
				t.Errorf("round %d: expr %q: error %q, want %q", round, c.expr, got, c.wantErr)
			}
			if n, _ := ip.GetVar("n"); n != c.wantN {
				t.Errorf("round %d: expr %q: n = %s afterwards, want %s", round, c.expr, n, c.wantN)
			}
		}
	}
}
