package rscript

import (
	"strings"
	"testing"
)

// shadowCase is one way an interpreter can take a builtin's name away from
// the builtin, after or before a script naming it was compiled elsewhere.
type shadowCase struct {
	name  string
	setup func(t *testing.T, ip *Interp) // makes ip shadow the builtin
	src   string                         // names the builtin
	plain string                         // what src returns where the builtin runs
	want  string                         // what it returns in ip, or the error
}

var shadowCases = []shadowCase{
	{
		name: "registered host command",
		setup: func(_ *testing.T, ip *Interp) {
			ip.Register("format", func(*Interp, []string) (string, error) { return "host", nil })
		},
		src: `format %d 7`, plain: "7", want: "host",
	},
	{
		name: "shared host command",
		setup: func(_ *testing.T, ip *Interp) {
			ip.Share(map[string]CmdFunc{"llength": func(*Interp, []string) (string, error) { return "shared", nil }})
		},
		src: `llength {a b c}`, plain: "3", want: "shared",
	},
	{
		name: "proc defined at run time",
		setup: func(t *testing.T, ip *Interp) {
			if _, err := ip.Eval(`set before [set x 1]; proc set {args} {return proc}`); err != nil {
				t.Fatal(err)
			}
		},
		src: `set x 2`, plain: "2", want: "proc",
	},
	{
		name: "class proc",
		setup: func(t *testing.T, ip *Interp) {
			if _, err := ip.Eval(`proc lindex {args} {return class}; proc other {} {}`); err != nil || ip.class == nil {
				t.Fatalf("class not bound: %v", err)
			}
		},
		src: `lindex {a b} 1`, plain: "b", want: "class",
	},
	{
		name:  "Unregistered builtin",
		setup: func(_ *testing.T, ip *Interp) { ip.Unregister("puts"); ip.Unregister("info") },
		src:   `puts hi; info steps`, plain: "0", want: `rscript: invalid command name "puts"`,
	},
}

// run evaluates src through the cache and renders the result or error.
func (c shadowCase) run(ip *Interp) string {
	v, err := ip.Eval(c.src)
	if err != nil {
		return err.Error()
	}
	return v
}

// TestShadowedBuiltinsStayShadowed: a command whose builtin was resolved
// when its script was compiled runs that builtin only where nothing has
// taken the name. Each script is compiled first by an interpreter that
// runs the builtin and then run by one that shadows it, and the other way
// round; each interpreter also runs a proc body compiled before it shadowed
// the name.
func TestShadowedBuiltinsStayShadowed(t *testing.T) {
	for _, c := range shadowCases {
		for _, shadowFirst := range []bool{false, true} {
			resetCaches()
			plain := New(Options{})
			shadow := New(Options{})
			if !shadowFirst {
				if got := c.run(plain); got != c.plain {
					t.Fatalf("%s: plain interpreter got %q, want %q", c.name, got, c.plain)
				}
			}
			c.setup(t, shadow)
			if got := c.run(shadow); got != c.want {
				t.Errorf("%s (compiled %s): shadowing interpreter got %q, want %q",
					c.name, map[bool]string{false: "unshadowed", true: "shadowed"}[shadowFirst], got, c.want)
			}
			if got := c.run(plain); got != c.plain {
				t.Errorf("%s: plain interpreter after the shadowing one got %q, want %q", c.name, got, c.plain)
			}
		}
		// The name taken after a proc body naming the builtin compiled and ran.
		resetCaches()
		ip := New(Options{})
		if _, err := ip.Eval("proc body {} {" + c.src + "}"); err != nil {
			t.Fatal(err)
		}
		if v, err := ip.Call("body"); err != nil || v != c.plain {
			t.Fatalf("%s: body before shadowing: %q, %v", c.name, v, err)
		}
		if c.name == "class proc" {
			continue // a class binds only to an interpreter without procs
		}
		c.setup(t, ip)
		got, err := ip.Call("body")
		if err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("%s: body compiled before shadowing got %q, want %q", c.name, got, c.want)
		}
	}
}

// TestUnregisterSharedCommand: removing a command an interpreter shares
// removes it there alone; the shared table and the other commands in it
// are untouched.
func TestUnregisterSharedCommand(t *testing.T) {
	cmd := func(v string) CmdFunc { return func(*Interp, []string) (string, error) { return v, nil } }
	older := map[string]CmdFunc{"a": cmd("older a"), "b": cmd("older b")}
	newer := map[string]CmdFunc{"b": cmd("newer b"), "join": cmd("newer join")}
	ip, other := New(Options{}), New(Options{})
	for _, x := range []*Interp{ip, other} {
		x.Share(older)
		x.Share(newer)
	}
	ip.Register("c", cmd("own c"))
	ip.Unregister("b")
	for src, want := range map[string]string{
		"a": "older a", "b": `rscript: invalid command name "b"`, "c": "own c", "join": "newer join",
	} {
		got, err := ip.Eval(src)
		if err != nil {
			got = err.Error()
		}
		if got != want {
			t.Errorf("%s after Unregister(b): %q, want %q", src, got, want)
		}
	}
	if v, err := other.Eval("b"); err != nil || v != "newer b" {
		t.Errorf("the other interpreter's b: %q, %v", v, err)
	}
	if len(older) != 2 || len(newer) != 2 {
		t.Errorf("the shared tables changed: %v, %v", older, newer)
	}
	for x, want := range map[*Interp][]string{ip: {"a", "c", "join"}, other: {"a", "b", "join"}} {
		names := strings.Join(x.Commands(), " ")
		for _, n := range want {
			if strings.Count(" "+names+" ", " "+n+" ") != 1 {
				t.Errorf("Commands() lists %q other than once: %s", n, names)
			}
		}
	}
}

// TestStringRepeatTooLarge: a count whose product with the length does not
// fit an int is refused like any other result too large, not handed to
// strings.Repeat (which panics).
func TestStringRepeatTooLarge(t *testing.T) {
	for _, src := range []string{
		`string repeat ab 4611686018427387905`,
		`string repeat x 9223372036854775807`,
		`string repeat abc 524288`,
	} {
		_, err := New(Options{}).Eval(src)
		if err == nil || !strings.Contains(err.Error(), "result too large") {
			t.Errorf("%s: %v", src, err)
		}
	}
	if v, err := New(Options{}).Eval(`string length [string repeat ab 524288]`); err != nil || v != "1048576" {
		t.Errorf("largest repeat: %q, %v", v, err)
	}
}

// TestLoopAllocs pins BenchmarkRscriptEval's proc: a hundred iterations of
// a for loop allocate only the numbers of 100 and more that incr formats,
// 86 sums and the i that ends the loop.
func TestLoopAllocs(t *testing.T) {
	ip := New(Options{})
	if _, err := ip.Eval(`proc work {} {
		set s 0
		for {set i 0} {$i < 100} {incr i} { incr s $i }
		return $s
	}`); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if v, err := ip.Call("work"); err != nil || v != "4950" {
			t.Fatalf("work: %q, %v", v, err)
		}
	})
	if n > 87 {
		t.Errorf("a call of work allocates %v objects, want at most 87", n)
	}
}

// TestSubstitutedWordsCompileEachValue: a body, condition, expression or
// switch list that is substituted has a new value each time the command
// runs, and each value is what runs.
func TestSubstitutedWordsCompileEachValue(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{`foreach b {{lappend r 1} {lappend r 2}} {if 1 $b}; set r`, "1 2"},
		{`foreach b {{lappend r 1} {lappend r 2}} {catch $b}; set r`, "1 2"},
		{`foreach e {{1+1} {2*3}} {lappend r [expr $e]}; set r`, "2 6"},
		{`foreach e {{1+1} {2*3}} {lappend r [expr "$e"]}; set r`, "2 6"},
		{`foreach c {0 1} {if $c {lappend r yes} else {lappend r no}}; set r`, "no yes"},
		{`foreach c {{$i < 2} {$i < 3}} {set i 0; while $c {incr i}; lappend r $i}; set r`, "2 3"},
		{`foreach a {{x {lappend r 1}} {x {lappend r 2}}} {switch x $a}; set r`, "1 2"},
		{`foreach b {{lappend r 1} {lappend r 2}} {switch x x $b}; set r`, "1 2"},
		{`foreach b {{return 1} {return 2}} {proc p {} $b; lappend r [p]}; set r`, "1 2"},
	} {
		if got := ev(t, c.src); got != c.want {
			t.Errorf("Eval(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}
