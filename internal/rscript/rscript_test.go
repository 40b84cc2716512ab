package rscript

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// ev evaluates src in a fresh interpreter and requires success.
func ev(t *testing.T, src string) string {
	t.Helper()
	ip := New(Options{})
	v, err := ip.Eval(src)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v
}

// evErr evaluates src expecting an error.
func evErr(t *testing.T, src string) error {
	t.Helper()
	ip := New(Options{})
	_, err := ip.Eval(src)
	if err == nil {
		t.Fatalf("Eval(%q) succeeded, want error", src)
	}
	return err
}

func TestBasicEval(t *testing.T) {
	cases := []struct{ src, want string }{
		{`set x 5`, "5"},
		{`set x 5; set y 7`, "7"},
		{"set x hello\nset x", "hello"},
		{`set x "a b c"`, "a b c"},
		{`set x {no $subst [here]}`, "no $subst [here]"},
		{`set x 3; set y $x`, "3"},
		{`set x 3; set y "val=$x"`, "val=3"},
		{`set x 3; set y ${x}4`, "34"},
		{`set y [set x 9]`, "9"},
		{`set a 1; set b 2; set c "$a$b"`, "12"},
		{`expr 1 + 2`, "3"},
		{"# a comment\nset x 1", "1"},
		{`set x 10 ;# trailing words are args, so use semicolon comments carefully`, "10"},
		{"set s a\\ b", "a b"},
		{"set s \\n", "\n"},
		{`set empty ""`, ""},
	}
	for _, c := range cases {
		if got := ev(t, c.src); got != c.want {
			t.Errorf("Eval(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestHexAndUnicodeEscapes(t *testing.T) {
	cases := []struct{ src, want string }{
		{`set s "\x1f"`, "\x1f"},
		{`set s "\x41"`, "A"},
		{`set s "a\x42c"`, "aBc"},
		{`set s "\u0041"`, "A"},
		{`set s "\u263a"`, "☺"},
		{`set s "\xg"`, "xg"}, // no hex digits: literal x
		{`string first "\x1f" "ab\x1fcd"`, "2"},
	}
	for _, c := range cases {
		if got := ev(t, c.src); got != c.want {
			t.Errorf("Eval(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestLineContinuation(t *testing.T) {
	if got := ev(t, "set x \\\n5"); got != "5" {
		t.Errorf("continuation: %q", got)
	}
	if got := ev(t, "expr {1 +\n2}"); got != "3" {
		t.Errorf("newline in braces: %q", got)
	}
}

func TestUndefinedVariable(t *testing.T) {
	err := evErr(t, `set y $nosuch`)
	if !strings.Contains(err.Error(), "no such variable") {
		t.Errorf("error: %v", err)
	}
}

func TestUnknownCommand(t *testing.T) {
	err := evErr(t, `frobnicate 1 2`)
	if !strings.Contains(err.Error(), "invalid command name") {
		t.Errorf("error: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		`set x {unclosed`,
		`set x "unclosed`,
		`set x [unclosed`,
		`set x {a}b`,
		`set x "a"b`,
	} {
		ip := New(Options{})
		if _, err := ip.Eval(src); err == nil {
			t.Errorf("Eval(%q) succeeded, want parse error", src)
		}
	}
}

func TestExprArithmetic(t *testing.T) {
	cases := []struct{ src, want string }{
		{`expr {2 + 3 * 4}`, "14"},
		{`expr {(2 + 3) * 4}`, "20"},
		{`expr {7 / 2}`, "3"},
		{`expr {-7 / 2}`, "-4"}, // Tcl floors
		{`expr {7 % 3}`, "1"},
		{`expr {-7 % 3}`, "2"}, // Tcl mod has divisor sign
		{`expr {2 ** 10}`, "1024"},
		{`expr {1.5 + 2}`, "3.5"},
		{`expr {10 / 4.0}`, "2.5"},
		{`expr {1 << 10}`, "1024"},
		{`expr {1024 >> 3}`, "128"},
		{`expr {6 & 3}`, "2"},
		{`expr {6 | 3}`, "7"},
		{`expr {6 ^ 3}`, "5"},
		{`expr {~0}`, "-1"},
		{`expr {!0}`, "1"},
		{`expr {!3}`, "0"},
		{`expr {-(3+4)}`, "-7"},
		{`expr {1 < 2}`, "1"},
		{`expr {2 <= 2}`, "1"},
		{`expr {3 > 4}`, "0"},
		{`expr {3 >= 4}`, "0"},
		{`expr {3 == 3.0}`, "1"},
		{`expr {3 != 4}`, "1"},
		{`expr {"abc" eq "abc"}`, "1"},
		{`expr {"abc" ne "abd"}`, "1"},
		{`expr {"apple" < "banana"}`, "1"},
		{`expr {1 && 2}`, "1"},
		{`expr {1 && 0}`, "0"},
		{`expr {0 || 3}`, "1"},
		{`expr {0 || 0}`, "0"},
		{`expr {true && yes}`, "1"},
		{`expr {off || false}`, "0"},
		{`expr {abs(-5)}`, "5"},
		{`expr {abs(-5.5)}`, "5.5"},
		{`expr {int(3.9)}`, "3"},
		{`expr {round(3.5)}`, "4"},
		{`expr {double(3)}`, "3.0"},
		{`expr {sqrt(16)}`, "4.0"},
		{`expr {min(3, 1, 2)}`, "1"},
		{`expr {max(3, 1, 2)}`, "3"},
		{`expr {0x10}`, "16"},
		{`expr {1e3}`, "1000.0"},
		{`set x 5; expr {$x * 2}`, "10"},
		{`expr {[expr {1+1}] * 3}`, "6"},
	}
	for _, c := range cases {
		if got := ev(t, c.src); got != c.want {
			t.Errorf("Eval(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestExprErrors(t *testing.T) {
	for _, src := range []string{
		`expr {1 / 0}`,
		`expr {1 % 0}`,
		`expr {1.0 % 2}`,
		`expr {"a" + 1}`,
		`expr {1 +}`,
		`expr {(1}`,
		`expr {nosuchfn(1)}`,
		`expr {bareword}`,
		`expr {1 << 99}`,
		`expr {1.5 & 2}`,
	} {
		evErr(t, src)
	}
}

func TestIfElse(t *testing.T) {
	cases := []struct{ src, want string }{
		{`if {1} {set r yes}`, "yes"},
		{`if {0} {set r yes}`, ""},
		{`if {0} {set r a} else {set r b}`, "b"},
		{`if {0} {set r a} elseif {1} {set r b} else {set r c}`, "b"},
		{`if {0} {set r a} elseif {0} {set r b} else {set r c}`, "c"},
		{`set x 5; if {$x > 3} then {set r big} else {set r small}`, "big"},
	}
	for _, c := range cases {
		if got := ev(t, c.src); got != c.want {
			t.Errorf("Eval(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestWhileForForeach(t *testing.T) {
	cases := []struct{ src, want string }{
		{`set s 0; set i 0; while {$i < 5} {incr s $i; incr i}; set s`, "10"},
		{`set s 0; for {set i 0} {$i < 5} {incr i} {incr s $i}; set s`, "10"},
		{`set s 0; foreach x {1 2 3 4} {incr s $x}; set s`, "10"},
		{`set s {}; foreach {a b} {1 2 3 4} {lappend s $b $a}; set s`, "2 1 4 3"},
		{`set s 0; set i 0; while {1} {incr i; if {$i > 3} {break}; incr s $i}; set s`, "6"},
		{`set s 0; foreach x {1 2 3 4} {if {$x == 2} {continue}; incr s $x}; set s`, "8"},
		{`set s 0; for {set i 0} {$i < 10} {incr i} {if {$i == 3} break; incr s}; set s`, "3"},
	}
	for _, c := range cases {
		if got := ev(t, c.src); got != c.want {
			t.Errorf("Eval(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestSwitch(t *testing.T) {
	cases := []struct{ src, want string }{
		{`switch b {a {set r 1} b {set r 2} default {set r 3}}`, "2"},
		{`switch z {a {set r 1} default {set r 3}}`, "3"},
		{`switch z {a {set r 1} b {set r 2}}`, ""},
		{`switch -glob hello {h* {set r starts-h} default {set r no}}`, "starts-h"},
		{`switch -exact h* {h* {set r literal} default {set r no}}`, "literal"},
		{`switch b {a - b {set r fell} default {set r no}}`, "fell"},
		{`switch -- -glob {-glob {set r dash} default {set r no}}`, "dash"},
	}
	for _, c := range cases {
		if got := ev(t, c.src); got != c.want {
			t.Errorf("Eval(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestProcs(t *testing.T) {
	cases := []struct{ src, want string }{
		{`proc add {a b} {expr {$a + $b}}; add 2 3`, "5"},
		{`proc add {a b} {return [expr {$a + $b}]}; add 2 3`, "5"},
		{`proc greet {name {greeting hi}} {return "$greeting $name"}; greet bob`, "hi bob"},
		{`proc greet {name {greeting hi}} {return "$greeting $name"}; greet bob yo`, "yo bob"},
		{`proc sum {args} {set s 0; foreach x $args {incr s $x}; return $s}; sum 1 2 3 4`, "10"},
		{`proc sum {args} {llength $args}; sum`, "0"},
		{`proc f {} {return early; set never reached}; f`, "early"},
		{`proc fact {n} {if {$n <= 1} {return 1}; expr {$n * [fact [expr {$n-1}]]}}; fact 10`, "3628800"},
		{`proc outer {} {inner}; proc inner {} {return deep}; outer`, "deep"},
	}
	for _, c := range cases {
		if got := ev(t, c.src); got != c.want {
			t.Errorf("Eval(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestProcArgErrors(t *testing.T) {
	err := evErr(t, `proc f {a b} {}; f 1`)
	if !strings.Contains(err.Error(), "wrong # args") {
		t.Errorf("error: %v", err)
	}
	err = evErr(t, `proc f {a} {}; f 1 2`)
	if !strings.Contains(err.Error(), "wrong # args") {
		t.Errorf("error: %v", err)
	}
}

func TestProcLocalScope(t *testing.T) {
	src := `
		set x global-x
		proc f {} { set x local-x; return $x }
		f
		set x
	`
	if got := ev(t, src); got != "global-x" {
		t.Errorf("proc leaked local into global: %q", got)
	}
	// Without `global`, a proc cannot see globals.
	err := evErr(t, `set g 1; proc f {} { set g }; f`)
	if !strings.Contains(err.Error(), "no such variable") {
		t.Errorf("error: %v", err)
	}
}

func TestGlobalCommand(t *testing.T) {
	src := `
		set counter 10
		proc bump {} { global counter; incr counter }
		bump; bump
		set counter
	`
	if got := ev(t, src); got != "12" {
		t.Errorf("global: %q", got)
	}
}

func TestUpvar(t *testing.T) {
	src := `
		proc double {varname} {
			upvar 1 $varname $varname
		}
		proc caller {} {
			set n 21
			bump n
			return $n
		}
		proc bump {v} {
			upvar 1 v v
		}
	`
	_ = src // upvar with renaming is unsupported; test the same-name form:
	got := ev(t, `
		set x 5
		proc addone {} { upvar #0 x x; incr x }
		addone
		set x
	`)
	if got != "6" {
		t.Errorf("upvar #0: %q", got)
	}
	err := evErr(t, `proc f {} {upvar 1 a b}; f`)
	if !strings.Contains(err.Error(), "same-name") {
		t.Errorf("upvar rename error: %v", err)
	}
}

func TestErrorAndCatch(t *testing.T) {
	cases := []struct{ src, want string }{
		{`catch {error boom} msg`, "1"},
		{`catch {error boom} msg; set msg`, "boom"},
		{`catch {set ok 5} msg`, "0"},
		{`catch {set ok 5} msg; set msg`, "5"},
		{`catch {break}`, "3"},
		{`catch {continue}`, "4"},
		{`proc f {} {catch {return inner} m; return "code=[catch {return x}] m=$m"}; f`, "code=2 m=inner"},
		{`catch {nosuchcmd} msg; string match "invalid command*" $msg`, "1"},
	}
	for _, c := range cases {
		if got := ev(t, c.src); got != c.want {
			t.Errorf("Eval(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestBreakOutsideLoop(t *testing.T) {
	err := evErr(t, `break`)
	if !strings.Contains(err.Error(), "break") {
		t.Errorf("error: %v", err)
	}
	err = evErr(t, `proc f {} {continue}; f`)
	if !strings.Contains(err.Error(), "continue") {
		t.Errorf("error: %v", err)
	}
}

func TestListCommands(t *testing.T) {
	cases := []struct{ src, want string }{
		{`list a b c`, "a b c"},
		{`list "a b" c`, "{a b} c"},
		{`list`, ""},
		{`list {}`, "{}"},
		{`llength {a b c}`, "3"},
		{`llength {}`, "0"},
		{`llength {{a b} c}`, "2"},
		{`lindex {a b c} 1`, "b"},
		{`lindex {a b c} end`, "c"},
		{`lindex {a b c} end-1`, "b"},
		{`lindex {a b c} 99`, ""},
		{`lrange {a b c d e} 1 3`, "b c d"},
		{`lrange {a b c d e} 3 end`, "d e"},
		{`lrange {a b c} 2 1`, ""},
		{`set l {}; lappend l a; lappend l "b c"; set l`, "a {b c}"},
		{`lsearch {a b c} b`, "1"},
		{`lsearch {a b c} z`, "-1"},
		{`lsearch -glob {apple banana cherry} b*`, "1"},
		{`lreverse {1 2 3}`, "3 2 1"},
		{`lsort {banana apple cherry}`, "apple banana cherry"},
		{`lsort -integer {10 2 33 4}`, "2 4 10 33"},
		{`lsort -integer -decreasing {10 2 33 4}`, "33 10 4 2"},
		{`split a,b,,c ,`, "a b {} c"},
		{`split "a b"`, "a b"},
		{`split abc ""`, "a b c"},
		{`join {a b c} -`, "a-b-c"},
		{`join {a {b c}} ,`, "a,b c"},
		{`concat a {b c}  {} d`, "a b c d"},
	}
	for _, c := range cases {
		if got := ev(t, c.src); got != c.want {
			t.Errorf("Eval(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestStringCommands(t *testing.T) {
	cases := []struct{ src, want string }{
		{`string length hello`, "5"},
		{`string length ""`, "0"},
		{`string tolower HeLLo`, "hello"},
		{`string toupper HeLLo`, "HELLO"},
		{`string trim "  hi  "`, "hi"},
		{`string trim xxhixx x`, "hi"},
		{`string trimleft "  hi"`, "hi"},
		{`string trimright "hi  "`, "hi"},
		{`string index abcdef 2`, "c"},
		{`string index abcdef end`, "f"},
		{`string index abcdef 99`, ""},
		{`string range abcdef 1 3`, "bcd"},
		{`string range abcdef 3 end`, "def"},
		{`string match h* hello`, "1"},
		{`string match h*o hello`, "1"},
		{`string match "h?llo" hello`, "1"},
		{`string match {[a-h]ello} hello`, "1"},
		{`string match {[a-d]ello} hello`, "0"},
		{`string match x* hello`, "0"},
		{`string compare a b`, "-1"},
		{`string compare b a`, "1"},
		{`string compare a a`, "0"},
		{`string equal a a`, "1"},
		{`string equal a b`, "0"},
		{`string first lo hello`, "3"},
		{`string first zz hello`, "-1"},
		{`string last l hello`, "3"},
		{`string repeat ab 3`, "ababab"},
	}
	for _, c := range cases {
		if got := ev(t, c.src); got != c.want {
			t.Errorf("Eval(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestFormat(t *testing.T) {
	cases := []struct{ src, want string }{
		{`format "%d items" 42`, "42 items"},
		{`format "%5d" 42`, "   42"},
		{`format "%-5d|" 42`, "42   |"},
		{`format "%05d" 42`, "00042"},
		{`format "%x" 255`, "ff"},
		{`format "%.2f" 3.14159`, "3.14"},
		{`format "%s-%s" a b`, "a-b"},
		{`format "100%%"`, "100%"},
		{`format "%c" 65`, "A"},
	}
	for _, c := range cases {
		if got := ev(t, c.src); got != c.want {
			t.Errorf("Eval(%q) = %q, want %q", c.src, got, c.want)
		}
	}
	evErr(t, `format "%d" notanumber`)
	evErr(t, `format "%d"`)
}

func TestPuts(t *testing.T) {
	var sb strings.Builder
	ip := New(Options{Stdout: &sb})
	if _, err := ip.Eval(`puts hello; puts -nonewline world`); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "hello\nworld" {
		t.Errorf("puts output %q", sb.String())
	}
	// nil Stdout discards without error
	ip2 := New(Options{})
	if _, err := ip2.Eval(`puts discarded`); err != nil {
		t.Fatal(err)
	}
}

func TestInfo(t *testing.T) {
	cases := []struct{ src, want string }{
		{`set x 1; info exists x`, "1"},
		{`info exists nope`, "0"},
		{`proc f {} {}; expr {[lsearch [info procs] f] >= 0}`, "1"},
		{`expr {[lsearch [info commands] while] >= 0}`, "1"},
	}
	for _, c := range cases {
		if got := ev(t, c.src); got != c.want {
			t.Errorf("Eval(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestEvalCommand(t *testing.T) {
	if got := ev(t, `eval set x 5; set x`); got != "5" {
		t.Errorf("eval: %q", got)
	}
	if got := ev(t, `set cmd {expr {2+2}}; eval $cmd`); got != "4" {
		t.Errorf("eval var: %q", got)
	}
}

func TestStepBudget(t *testing.T) {
	ip := New(Options{StepBudget: 100})
	_, err := ip.Eval(`while {1} {set x 1}`)
	if err == nil || !errors.Is(errFromScript(err), ErrBudget) {
		t.Fatalf("infinite loop: %v", err)
	}
	// Budget persists across Eval calls.
	ip2 := New(Options{StepBudget: 50})
	for i := 0; i < 100; i++ {
		if _, err := ip2.Eval(`set x 1`); err != nil {
			if !errors.Is(errFromScript(err), ErrBudget) {
				t.Fatalf("unexpected error: %v", err)
			}
			if i < 45 {
				t.Fatalf("budget tripped too early at %d", i)
			}
			return
		}
	}
	t.Fatal("cumulative budget never tripped")
}

func TestBudgetNotCatchable(t *testing.T) {
	ip := New(Options{StepBudget: 100})
	_, err := ip.Eval(`while {1} {catch {while {1} {set x 1}}}`)
	if err == nil || !errors.Is(errFromScript(err), ErrBudget) {
		t.Fatalf("catch absorbed budget exhaustion: %v", err)
	}
}

// errFromScript digs the wrapped sentinel out of an rscript error message.
func errFromScript(err error) error {
	var re *Error
	if errors.As(err, &re) && strings.Contains(re.Msg, "step budget exhausted") {
		return ErrBudget
	}
	if errors.As(err, &re) && strings.Contains(re.Msg, "recursion depth") {
		return ErrDepth
	}
	return err
}

func TestRecursionLimit(t *testing.T) {
	ip := New(Options{MaxDepth: 50})
	_, err := ip.Eval(`proc f {} {f}; f`)
	if err == nil || !errors.Is(errFromScript(err), ErrDepth) {
		t.Fatalf("unbounded recursion: %v", err)
	}
}

// TestErrorUnwrap: errors.Is sees through an *Error to the interpreter's own
// two sentinels and to nothing else — what a host command returned is in
// the message, not in the chain.
func TestErrorUnwrap(t *testing.T) {
	_, err := New(Options{StepBudget: 10}).Eval(`while {1} {}`)
	if !errors.Is(err, ErrBudget) || errors.Is(err, ErrDepth) {
		t.Errorf("runaway loop: %v", err)
	}
	_, err = New(Options{MaxDepth: 5}).Eval(`proc f {} {f}; f`)
	if !errors.Is(err, ErrDepth) || errors.Is(err, ErrBudget) {
		t.Errorf("runaway recursion: %v", err)
	}
	errHost := errors.New("disk full")
	ip := New(Options{})
	ip.Register("save", func(*Interp, []string) (string, error) { return "", errHost })
	_, err = ip.Eval(`save`)
	if err == nil || errors.Is(err, errHost) || errors.Unwrap(err) != nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("host error: %v (unwraps to %v)", err, errors.Unwrap(err))
	}
}

func TestResetBudget(t *testing.T) {
	ip := New(Options{StepBudget: 10})
	for i := 0; i < 5; i++ {
		ip.ResetBudget()
		if _, err := ip.Eval(`set x 1; set y 2; set z 3`); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

func TestSandboxUnregister(t *testing.T) {
	ip := New(Options{})
	ip.Unregister("puts")
	_, err := ip.Eval(`puts hi`)
	if err == nil || !strings.Contains(err.Error(), "invalid command name") {
		t.Errorf("unregistered command callable: %v", err)
	}
}

func TestHostCommands(t *testing.T) {
	ip := New(Options{})
	var calls []string
	ip.Register("host.echo", func(ip *Interp, args []string) (string, error) {
		calls = append(calls, strings.Join(args, ","))
		return "echoed:" + strings.Join(args, "+"), nil
	})
	ip.Register("host.fail", func(ip *Interp, args []string) (string, error) {
		return "", fmt.Errorf("host failure")
	})
	got, err := ip.Eval(`host.echo a b c`)
	if err != nil || got != "echoed:a+b+c" {
		t.Errorf("host.echo = %q, %v", got, err)
	}
	if len(calls) != 1 || calls[0] != "a,b,c" {
		t.Errorf("calls = %v", calls)
	}
	if got := mustEval(t, ip, `catch {host.fail} m; set m`); !strings.Contains(got, "host failure") {
		t.Errorf("host error not propagated: %q", got)
	}
}

func mustEval(t *testing.T, ip *Interp, src string) string {
	t.Helper()
	v, err := ip.Eval(src)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v
}

func TestHostVarAccess(t *testing.T) {
	ip := New(Options{})
	ip.SetVar("state", "42")
	if got := mustEval(t, ip, `incr state`); got != "43" {
		t.Errorf("incr host var: %q", got)
	}
	v, ok := ip.GetVar("state")
	if !ok || v != "43" {
		t.Errorf("GetVar = %q, %v", v, ok)
	}
	vars := ip.GlobalVars()
	if vars["state"] != "43" {
		t.Errorf("GlobalVars = %v", vars)
	}
	ip.UnsetVar("state")
	if _, ok := ip.GetVar("state"); ok {
		t.Error("UnsetVar did not remove")
	}
}

func TestCallProc(t *testing.T) {
	ip := New(Options{})
	mustEval(t, ip, `proc area {w h} {expr {$w * $h}}`)
	if !ip.HasProc("area") {
		t.Error("HasProc")
	}
	got, err := ip.Call("area", "6", "7")
	if err != nil || got != "42" {
		t.Errorf("Call = %q, %v", got, err)
	}
	if _, err := ip.Call("area", "6"); err == nil {
		t.Error("Call with wrong arity succeeded")
	}
	if _, err := ip.Call("nosuch"); err == nil {
		t.Error("Call of unknown proc succeeded")
	}
}

func TestListRoundTrip(t *testing.T) {
	cases := [][]string{
		{},
		{"a"},
		{""},
		{"a", "b c", "d"},
		{"{", "}", "{}"},
		{"with\"quote", "with\\backslash"},
		{"multi\nline", "tab\there"},
		{"$dollar", "[bracket]", ";semi"},
		{"nested {braces} ok"},
		{"trailing\\"},
	}
	for _, elems := range cases {
		s := FormatList(elems)
		got, err := ParseList(s)
		if err != nil {
			t.Errorf("ParseList(FormatList(%q)) = error %v (encoded %q)", elems, err, s)
			continue
		}
		if len(got) != len(elems) {
			t.Errorf("round trip %q -> %q -> %q", elems, s, got)
			continue
		}
		for i := range elems {
			if got[i] != elems[i] {
				t.Errorf("elem %d: %q -> %q (encoded %q)", i, elems[i], got[i], s)
			}
		}
	}
}

func TestParseListErrors(t *testing.T) {
	for _, s := range []string{"{unclosed", `"unclosed`, "{a}junk", `"a"junk`} {
		if _, err := ParseList(s); err == nil {
			t.Errorf("ParseList(%q) succeeded", s)
		}
	}
}

// Property: FormatList/ParseList are inverse for arbitrary byte strings.
func TestQuickListRoundTrip(t *testing.T) {
	f := func(elems []string) bool {
		got, err := ParseList(FormatList(elems))
		if err != nil || len(got) != len(elems) {
			return false
		}
		for i := range elems {
			if got[i] != elems[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: expr arithmetic matches Go arithmetic on random int expressions.
func TestQuickExprMatchesGo(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := int64(r.Intn(1000)-500), int64(r.Intn(1000)-500)
		ops := []string{"+", "-", "*"}
		op := ops[r.Intn(len(ops))]
		var want int64
		switch op {
		case "+":
			want = a + b
		case "-":
			want = a - b
		case "*":
			want = a * b
		}
		ip := New(Options{})
		got, err := ip.Eval(fmt.Sprintf("expr {%d %s %d}", a, op, b))
		return err == nil && got == fmt.Sprintf("%d", want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: the interpreter never panics on arbitrary input.
func TestQuickEvalNoPanic(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		ip := New(Options{StepBudget: 10000, MaxDepth: 32})
		_, _ = ip.Eval(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestGlobMatch(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"*", "", true},
		{"*", "anything", true},
		{"a*c", "abc", true},
		{"a*c", "ac", true},
		{"a*c", "abd", false},
		{"?", "x", true},
		{"?", "", false},
		{"a?c", "abc", true},
		{"[abc]x", "bx", true},
		{"[abc]x", "dx", false},
		{"[a-z]x", "mx", true},
		{"[a-z]x", "Mx", false},
		{"\\*", "*", true},
		{"\\*", "x", false},
		{"**a", "za", true},
		{"a[", "a[", true},
	}
	for _, c := range cases {
		if got := globMatch(c.pat, c.s); got != c.want {
			t.Errorf("globMatch(%q, %q) = %v, want %v", c.pat, c.s, got, c.want)
		}
	}
}

func TestStepsUsed(t *testing.T) {
	ip := New(Options{StepBudget: 1000})
	mustEval(t, ip, `set x 1; set y 2`)
	if ip.StepsUsed() != 2 {
		t.Errorf("StepsUsed = %d, want 2", ip.StepsUsed())
	}
}

// TestLoopStepCounts pins what loops cost. A loop pays for the commands its
// condition, body and next clause run and nothing for iterating — except
// an iteration that ran no command at all, which can only be one of an
// endless loop and is charged a step so the budget still ends it.
func TestLoopStepCounts(t *testing.T) {
	for _, c := range []struct {
		src   string
		steps int64
	}{
		{`set i 0; while {$i < 5} {incr i}`, 7},
		{`for {set i 0} {$i < 5} {incr i} {}`, 7},
		{`for {set i 0} {$i < 5} {incr i} {set x $i}`, 12},
		{`set i 0; while {[incr i] < 5} {}`, 7},
		{`set i 0; while {$i < 5} {incr i; continue}`, 12},
		{`foreach x {1 2 3} {}`, 1},
		{`while {0} {}`, 1},
	} {
		ip := New(Options{StepBudget: 1000})
		mustEval(t, ip, c.src)
		if got := ip.StepsUsed(); got != c.steps {
			t.Errorf("%q: StepsUsed = %d, want %d", c.src, got, c.steps)
		}
	}
	for _, src := range []string{
		`while {1} {}`,
		`for {} {1} {} {}`,
		`while {1} {# only a comment
		}`,
		`proc spin {} {while {true} {}}; catch {spin}`,
	} {
		ip := New(Options{StepBudget: 100})
		_, err := ip.Eval(src)
		if err == nil || !errors.Is(errFromScript(err), ErrBudget) {
			t.Errorf("%q: %v, want the step budget to end it", src, err)
		}
	}
}

// TestIntegerPowerWraps: ** on integers is the wrapped product of b copies
// of a, whatever b is.
func TestIntegerPowerWraps(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{`expr {3 ** 0}`, "1"},
		{`expr {0 ** 0}`, "1"},
		{`expr {-2 ** 3}`, "-8"},
		{`expr {(-2) ** 63}`, "-9223372036854775808"},
		{`expr {2 ** 64}`, "0"},
		{`expr {3 ** 41}`, "-420491770248316829"},
		{`expr {7 ** 4000000000000000001}`, "-6024495945620652025"},
		{`expr {1 ** 9223372036854775807}`, "1"},
	} {
		if got := ev(t, c.src); got != c.want {
			t.Errorf("Eval(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

// TestSplitInvalidUTF8: bytes that are not UTF-8 pass through split like
// any other text (found by FuzzEvalCachedVsFresh; it used to panic).
func TestSplitInvalidUTF8(t *testing.T) {
	ip := New(Options{})
	ip.SetVar("s", "a\xbeb,c\xbe")
	for _, c := range []struct{ src, want string }{
		{`split $s ,`, FormatList([]string{"a\xbeb", "c\xbe"})},
		{`split $s \xbe`, FormatList([]string{"a", "b,c", ""})},
		{`split \xbe 0\xbe`, FormatList([]string{"", ""})},
	} {
		if got := mustEval(t, ip, c.src); got != c.want {
			t.Errorf("Eval(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestDeepNestingParse(t *testing.T) {
	// Deeply nested command substitution parses and evaluates.
	src := "expr {1"
	for i := 0; i < 50; i++ {
		src += "+[expr {1"
	}
	src += strings.Repeat("}]", 50) + "}"
	if got := ev(t, src); got != "51" {
		t.Errorf("deep nesting = %q", got)
	}
}

func TestCommandResultInString(t *testing.T) {
	got := ev(t, `set n 3; set msg "you have [expr {$n * 2}] items"`)
	if got != "you have 6 items" {
		t.Errorf("interpolation: %q", got)
	}
}

func TestUnsetAppend(t *testing.T) {
	cases := []struct{ src, want string }{
		{`set x 1; unset x; info exists x`, "0"},
		{`set a 1; set b 2; unset a b; expr {[info exists a] + [info exists b]}`, "0"},
		{`append s foo; append s bar baz; set s`, "foobarbaz"},
		{`set s pre; append s -post`, "pre-post"},
	}
	for _, c := range cases {
		if got := ev(t, c.src); got != c.want {
			t.Errorf("Eval(%q) = %q, want %q", c.src, got, c.want)
		}
	}
	evErr(t, `unset neverset`)
	evErr(t, `unset`)
	evErr(t, `append`)
}

func TestWrongArgCounts(t *testing.T) {
	// Every builtin must reject bad arity with a usage error, not panic.
	for _, src := range []string{
		`set`, `set a b c`, `incr`, `incr x 1 2`, `proc p {}`,
		`return a b`, `error`, `catch`, `if`, `while {1}`, `for {} {} {}`,
		`foreach v {1}`, `expr`, `eval`, `global`, `upvar`,
		`lindex {a}`, `llength`, `lappend`, `lrange {a} 0`,
		`lsearch {a}`, `lreverse`, `lsort`, `split`, `join`,
		`string`, `string length`, `format`, `puts a b`, `info`,
	} {
		err := evErr(t, src)
		if !strings.Contains(err.Error(), "wrong # args") &&
			!strings.Contains(err.Error(), "usage") &&
			!strings.Contains(err.Error(), "subcommand") {
			// Any error is acceptable; just ensure it's an error.
			_ = err
		}
	}
}

func TestTruthyForms(t *testing.T) {
	cases := []struct{ src, want string }{
		{`if {"true"} {set r 1} else {set r 0}`, "1"},
		{`if {"off"} {set r 1} else {set r 0}`, "0"},
		{`if {1.5} {set r 1} else {set r 0}`, "1"},
		{`if {0.0} {set r 1} else {set r 0}`, "0"},
		{`if {""} {set r 1} else {set r 0}`, "0"},
	}
	for _, c := range cases {
		if got := ev(t, c.src); got != c.want {
			t.Errorf("Eval(%q) = %q, want %q", c.src, got, c.want)
		}
	}
	evErr(t, `if {"maybe"} {set r 1}`)
}

func TestClassifyEdgeValues(t *testing.T) {
	cases := []struct{ src, want string }{
		{`set x " 5 "; expr {$x + 1}`, "6"},    // numeric with spaces
		{`set x "5.5"; expr {$x * 2}`, "11.0"}, // float via variable
		{`set x "0x1A"; expr {$x + 0}`, "26"},  // hex via variable
		{`set x ""; expr {$x eq ""}`, "1"},     // empty stays string
		{`expr {"10" == 10}`, "1"},             // numeric string equality
		{`expr {"abc" == "abc"}`, "1"},         // string equality via ==
	}
	for _, c := range cases {
		if got := ev(t, c.src); got != c.want {
			t.Errorf("Eval(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestParseCacheReset(t *testing.T) {
	ip := New(Options{})
	// Evaluate more distinct scripts than the cache holds; must not break.
	for i := 0; i < cacheMaxEntries+50; i++ {
		src := fmt.Sprintf("set x%d %d", i, i)
		if _, err := ip.Eval(src); err != nil {
			t.Fatalf("script %d: %v", i, err)
		}
	}
	if v, _ := ip.GetVar("x5"); v != "5" {
		t.Errorf("x5 = %q", v)
	}
}

func TestParseErrorLineNumbers(t *testing.T) {
	ip := New(Options{})
	_, err := ip.Eval("set a 1\nset b 2\nset c {unclosed")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %v should name line 3", err)
	}
}

func TestLinsertLreplaceStringMap(t *testing.T) {
	cases := []struct{ src, want string }{
		{`linsert {a b c} 1 X Y`, "a X Y b c"},
		{`linsert {a b c} 0 X`, "X a b c"},
		{`linsert {a b c} end Z`, "a b c Z"}, // modern Tcl appends for end
		{`linsert {} 0 only`, "only"},
		{`lreplace {a b c d} 1 2 X`, "a X d"},
		{`lreplace {a b c d} 0 end`, ""},
		{`lreplace {a b c} 1 0 X`, "a X b c"}, // empty range: insert
		{`string map {a 1 b 2} "abcab"`, "12c12"},
		{`string map {} unchanged`, "unchanged"},
		{`string map {ab X} "abab"`, "XX"},
	}
	for _, c := range cases {
		if got := ev(t, c.src); got != c.want {
			t.Errorf("Eval(%q) = %q, want %q", c.src, got, c.want)
		}
	}
	evErr(t, `linsert {a}`)
	evErr(t, `lreplace {a} 0`)
	evErr(t, `string map {odd} s`)
}
