package rscript

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// RDO method suites, as shipped by the mail, calendar and benchmark-counter
// applications, each followed by the invocations that drive it. They run
// against fuzzState, a stand-in for the `state` command rdo.Env registers.
var rdoSeeds = []string{
	`
	proc add {n} { state set count [expr {[state get count 0] + $n}] }
	proc get {} { state get count 0 }
	add 1; add 41; get`,
	`
	proc addmsg {id summary} {
		if {[state exists m$id]} { error "message $id exists" }
		state set m$id "-|$summary"
		state set order [concat [state get order {}] [list $id]]
	}
	proc setflag {id flag} {
		if {![state exists m$id]} { error "no message $id" }
		set cur [state get m$id]
		set sep [string first | $cur]
		set flags [string range $cur 0 [expr {$sep - 1}]]
		set summary [string range $cur [expr {$sep + 1}] end]
		if {$flags eq "-"} { set flags "" }
		if {[string first $flag $flags] < 0} { append flags $flag }
		state set m$id "$flags|$summary"
	}
	proc entry {id} {
		if {![state exists m$id]} { error "no message $id" }
		state get m$id
	}
	proc ids {} { state get order {} }
	proc count {} { llength [state get order {}] }
	addmsg 1000 "alice|hello"; addmsg 1001 "bob|re: hello"
	setflag 1000 S; setflag 1000 A; setflag 1000 S
	list [entry 1000] [ids] [count] [catch {addmsg 1000 dup} m] $m [catch {entry 7} m] $m`,
	`
	proc schedule {slot owner title} {
		if {[state exists s$slot]} {
			error "slot $slot taken: [state get s$slot]"
		}
		state set s$slot "$owner\x1f$title"
	}
	proc cancel {slot owner} {
		if {![state exists s$slot]} { error "slot $slot is free" }
		set cur [state get s$slot]
		set sep [string first "\x1f" $cur]
		set who [string range $cur 0 [expr {$sep - 1}]]
		if {$who ne $owner} { error "slot $slot belongs to $who" }
		state unset s$slot
	}
	proc whoHas {slot} {
		if {![state exists s$slot]} { return "" }
		state get s$slot
	}
	proc slots {} { state keys }
	proc count {} { state size }
	schedule 1995-12-07.10 ann standup; schedule 1995-12-07.11 bob review
	list [catch {schedule 1995-12-07.10 bob clash} m] $m [catch {cancel 1995-12-07.10 bob} m] $m \
		[cancel 1995-12-07.11 bob] [whoHas 1995-12-07.10] [slots] [count]`,
}

// evalSeeds are drawn from this package's table tests: one or more of each
// construct the evaluator caches a compiled form for, and the error paths.
var evalSeeds = []string{
	`set x 3; set y "val=$x"; set z ${x}4; set w [set x 9]`,
	"# a comment\nset x 1 ;# tail\nset s a\\ b",
	`set x "\x41é\n"`,
	`expr {2 + 3 * 4 - (7 / 2) % 3 + 2 ** 10 + (1 << 4 | 6 & 3 ^ 5)}`,
	`expr {-7 / 2} ; expr {-7 % 3}; expr {10 / 4.0}; expr {1e3 + 0x10 + .5}`,
	`expr {3 == 3.0 && "abc" eq "abc" || "apple" < "banana" && !0 && ~0 < 0}`,
	`expr {true && yes || off}; expr {abs(-5) + int(3.9) + round(3.5) + min(3, 1, 2) + max(3, 1, 2) + sqrt(16) + double(3)}`,
	`set x 5; expr {$x * 2 + [expr {1+1}] * ${x}}`,
	`expr 1 + 2; set e {$x + 1}; set x 4; expr $e; expr "$x$x" + 1`,
	`expr {1 / 0}`, `expr {1 % 0}`, `expr {1.0 % 2}`, `expr {"a" + 1}`, `expr {1 +}`, `expr {(1}`,
	`expr {nosuchfn(1)}`, `expr {bareword}`, `expr {1 << 99}`, `expr {1.5 & 2}`, `expr {1 @ 2}`,
	`expr {[incr n] + "open}`, `expr {$nope + @}`, `expr {[incr n] + [incr n}`, `expr {0x}`, `expr {1.2.3}`,
	`if {0} {set r a} elseif {1} {set r b} else {set r c}`,
	`set x 5; if {$x > 3} then {set r big} else {set r small}`,
	`set s 0; set i 0; while {$i < 5} {incr s $i; incr i}; set s`,
	`set s 0; for {set i 0} {$i < 10} {incr i} {if {$i == 3} break; if {$i == 1} continue; incr s}; set s`,
	`set s {}; foreach {a b} {1 2 3 4} {lappend s $b $a}; set s`,
	`switch -glob hello {h* {set r starts-h} default {set r no}}; switch b {a - b {set r fell} default {set r no}}`,
	`proc greet {name {greeting hi}} {return "$greeting $name"}; greet bob; greet bob yo`,
	`proc sum {args} {set s 0; foreach x $args {incr s $x}; return $s}; sum 1 2 3 4`,
	`proc fact {n} {if {$n <= 1} {return 1}; expr {$n * [fact [expr {$n-1}]]}}; fact 10`,
	`proc f {} {f}; f`,
	`proc f {a b} {}; f 1`,
	`proc bump {} {global g; incr g}; set g 1; bump; bump; set g`,
	`proc up {} {upvar v v; set v changed}; set v orig; up; set v`,
	`catch {error boom} msg; set msg`, `catch {return 7} v; set v`, `catch {break}`, `catch {nosuch}`,
	`while {1} {catch {while {1} {set x 1}}}`,
	`break`, `continue`, `return 5; set never reached`, `error top`,
	`set cmd {expr {2+2}}; eval $cmd; eval set q 1`,
	`eval {set a [}`, `if {1} {set a "}`, `proc p {} {set a \{}; p`,
	`list a {b c} [list d e]; lindex {a b c} end-1; lrange {a b c d} 1 end; lsearch -glob {ab cd} c*`,
	`lsort -integer -decreasing {3 1 2}; lreverse {1 2 3}; linsert {a c} 1 b; lreplace {a b c} 1 1 X Y`,
	`split a,b,,c ,; join {a b c} -; concat { a } {b  c}`,
	`string length héllo; string range abcdef 1 end-1; string map {a 1 b 2} abc; string repeat ab 3; string match {[a-c]?*} bxy`,
	`format "%5d|%-5s|%x|%.2f|%c|%%" 42 ab 255 3.14159 65`,
	`info exists x; set x 1; info exists x; info procs; info steps; info commands`,
	`puts hi; puts -nonewline there`,
	`state set k v; state get k; state get missing dflt; state exists k; state keys; state size; state unset k; state get k`,
	`set a [`, `set a {`, `set a "`, `set a {b}c`, `[`, `]`, `$`, `${`, "\\",
	sharedProgram,
}

// fuzzState is the `state` command over a plain map.
func fuzzState(store map[string]string) CmdFunc {
	return func(_ *Interp, args []string) (string, error) {
		if len(args) < 1 {
			return "", fmt.Errorf("state: subcommand required")
		}
		switch {
		case args[0] == "get" && (len(args) == 2 || len(args) == 3):
			if v, ok := store[args[1]]; ok {
				return v, nil
			}
			if len(args) == 3 {
				return args[2], nil
			}
			return "", fmt.Errorf("state: no such key %q", args[1])
		case args[0] == "set" && len(args) == 3:
			store[args[1]] = args[2]
			return args[2], nil
		case args[0] == "unset" && len(args) == 2:
			delete(store, args[1])
			return "", nil
		case args[0] == "exists" && len(args) == 2:
			if _, ok := store[args[1]]; ok {
				return "1", nil
			}
			return "0", nil
		case args[0] == "keys" && len(args) == 1:
			keys := make([]string, 0, len(store))
			for k := range store {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			return FormatList(keys), nil
		case args[0] == "size" && len(args) == 1:
			return fmt.Sprint(len(store)), nil
		}
		return "", fmt.Errorf("state: bad call %q", args)
	}
}

// classSeeds load, or just fail to load, through the class path: code that
// only defines procs, and the shapes next to it that must be evaluated.
var classSeeds = []string{
	``,
	"# nothing but a comment\n",
	`proc proc {} {}`,
	`proc a {} {return 1}; proc proc {args} {return mine}; proc b {} {return 2}`,
	`proc a {} {return first}; proc a {x} {return second}`,
	`proc f {{a b c}} {}`,
	`proc ok {} {return 1}; proc f {a {b} {}} {}; proc g "\{" {}; proc later {} {}`,
	`proc broken {} {set a "}; proc fine {} {return ok}`,
	`proc broken {} {set a [}; proc notbroken {x} {set a \{}`,
	`proc broken {x} {if {1} {set a "}}`,
	`proc one {} {return 1}; proc two {} {return 2}; set x 1`,
	`set x 1; proc one {} {return $x}`,
	`proc one {} {return 1}; proc $seed {} {return 2}`,
	`proc one {} {return 1}; proc two {} [list return 2]`,
	`proc one {} {return 1}; proc two {}`,
	`proc a {} {}; proc b {} {}; proc c {} {}; proc d {} {}; proc e {} {}`,
	`proc set {name args} {return shadowed}; proc uses {} {set x 1}`,
	`proc v {args} {llength $args}; proc d {a {b 2}} {list $a $b}`,
	`proc outer {} {proc inner {} {return made}; inner}; proc redo {} {proc outer {} {return replaced}}`,
	`proc up {} {upvar n n; incr n}; proc g {} {global n; incr n; up}`,
	nestedProcs(40),
}

// nestedProcs is `proc a {} {proc a {} {... return bottom ...}}`, depth
// definitions deep: each call of a defines the next level.
func nestedProcs(depth int) string {
	return strings.Repeat("proc a {} {", depth) + "return bottom" + strings.Repeat("}", depth)
}

// evalOutcome is everything an evaluation can be observed to have done.
type evalOutcome struct {
	value, err string
	steps      int64
	vars       string
	procs      string
	state      string
	stdout     string
	calls      string
}

// observeEval loads src into a fresh interpreter with the given step
// budget — through Eval, or when walk is set by walking a parse of its own
// with evalScript, which never binds a class — and then calls every proc
// the interpreter ended up with, with no, one and two arguments.
func observeEval(src string, budget int64, walk bool) evalOutcome {
	var out strings.Builder
	store := map[string]string{}
	ip := New(Options{StepBudget: budget, MaxDepth: 12, Stdout: &out})
	ip.Register("state", fuzzState(store))
	ip.SetVar("seed", "3")
	ip.SetVar("n", "0")
	var v string
	var err error
	if walk {
		var s *Script
		if s, err = Parse(src); err == nil {
			v, err = finish(ip.evalScript(s))
		}
	} else {
		v, err = ip.Eval(src)
	}
	o := evalOutcome{value: v, steps: ip.StepsUsed()}
	if err != nil {
		o.err = err.Error()
	}
	procs := ip.Procs()
	sort.Strings(procs)
	o.procs = strings.Join(procs, " ")
	var calls strings.Builder
	for _, name := range procs {
		for _, args := range [][]string{nil, {"1"}, {"1", "b c"}} {
			ip.ResetBudget()
			v, err := ip.Call(name, args...)
			fmt.Fprintf(&calls, "%s%q = %q, %v, %d steps\n", name, args, v, err, ip.StepsUsed())
		}
	}
	o.calls = calls.String()
	o.vars = fmt.Sprint(ip.GlobalVars()) // fmt prints maps in key order
	o.state = fmt.Sprint(store)
	o.stdout = out.String()
	return o
}

// FuzzEvalCachedVsFresh: evaluating a source whose every script, body and
// expression is compiled afresh, and evaluating it again with all of them
// served from the process-wide caches, must be indistinguishable — value,
// error text, step count, variables, procs, host state and output, and then
// the result, error and step count of calling each proc. A compiled form
// that evaluation modified, or one that captured anything of the
// interpreter that first compiled it, shows up as a difference.
//
// The same holds between loading through Eval, which binds a class where
// the code has one, and walking the script command by command: a class is
// that walk's result, so every source must come out the same both ways,
// under a budget that covers the load and under one that may not.
func FuzzEvalCachedVsFresh(f *testing.F) {
	for _, seeds := range [][]string{rdoSeeds, evalSeeds, classSeeds} {
		for _, s := range seeds {
			f.Add(s)
		}
	}
	// The shipped suites without the invocations behind them: what NewEnv loads.
	for _, s := range rdoSeeds {
		f.Add(s[:strings.LastIndex(s, "}\n")+2])
	}
	f.Fuzz(func(t *testing.T, src string) {
		resetCaches()
		fresh := observeEval(src, 400, false)
		cached := observeEval(src, 400, false)
		if fresh != cached {
			t.Fatalf("source %q\n fresh: %+v\ncached: %+v", src, fresh, cached)
		}
		// Once more with the top-level script evicted but its bodies and
		// expressions still cached: a fresh Parse over cached parts.
		scripts.evict(src)
		if mixed := observeEval(src, 400, false); mixed != fresh {
			t.Fatalf("source %q\n fresh: %+v\n mixed: %+v", src, fresh, mixed)
		}
		if walked := observeEval(src, 400, true); walked != fresh {
			t.Fatalf("source %q\n loaded: %+v\n walked: %+v", src, fresh, walked)
		}
		if loaded, walked := observeEval(src, 3, false), observeEval(src, 3, true); loaded != walked {
			t.Fatalf("source %q, budget 3\n loaded: %+v\n walked: %+v", src, loaded, walked)
		}
	})
}
