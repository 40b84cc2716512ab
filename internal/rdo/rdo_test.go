package rdo

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"rover/internal/rscript"
	"rover/internal/urn"
	"rover/internal/wire"
)

func testObj() *Object {
	o := New(urn.MustParse("urn:rover:cal.mit.edu/counter"), "counter")
	o.Code = `
		proc get {} { state get count 0 }
		proc add {n} {
			set cur [state get count 0]
			state set count [expr {$cur + $n}]
		}
		proc reset {} { state unset count }
	`
	return o
}

func TestObjectWireRoundTrip(t *testing.T) {
	o := testObj()
	o.Version = 7
	o.Set("count", "42")
	o.Set("owner", "adj")
	back, err := Decode(o.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !Equal(o, back) {
		t.Errorf("round trip mismatch: %+v vs %+v", o, back)
	}
}

func TestDecodeRejectsBadURN(t *testing.T) {
	var b wire.Buffer
	b.PutString("not-a-urn")
	b.PutString("t")
	b.PutUvarint(0)
	b.PutString("")
	b.PutUvarint(0)
	if _, err := Decode(b.Bytes()); err == nil {
		t.Error("bad URN accepted")
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	enc := testObj().Encode()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("truncated object at %d decoded", cut)
		}
	}
}

func TestClone(t *testing.T) {
	o := testObj()
	o.Set("count", "1")
	c := o.Clone()
	c.Set("count", "2")
	if v, _ := o.Get("count"); v != "1" {
		t.Error("Clone shares state")
	}
}

func TestEqual(t *testing.T) {
	a, b := testObj(), testObj()
	if !Equal(a, b) {
		t.Error("identical objects unequal")
	}
	b.Set("x", "1")
	if Equal(a, b) {
		t.Error("different state equal")
	}
	c := testObj()
	c.Version = 1
	if Equal(a, c) {
		t.Error("different version equal")
	}
}

func TestEnvInvoke(t *testing.T) {
	e, err := NewEnv(testObj(), EnvOptions{})
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	if got, _ := e.Invoke("get"); got != "0" {
		t.Errorf("get = %q", got)
	}
	if _, err := e.Invoke("add", "5"); err != nil {
		t.Fatalf("add: %v", err)
	}
	if _, err := e.Invoke("add", "3"); err != nil {
		t.Fatalf("add: %v", err)
	}
	if got, _ := e.Invoke("get"); got != "8" {
		t.Errorf("get after adds = %q", got)
	}
	if v, ok := e.Object().Get("count"); !ok || v != "8" {
		t.Errorf("object state = %q, %v", v, ok)
	}
}

func TestEnvRecordsOps(t *testing.T) {
	e, _ := NewEnv(testObj(), EnvOptions{})
	e.Invoke("add", "5")
	if !e.Dirty() {
		t.Error("not dirty after mutation")
	}
	ops := e.TakeOps()
	if len(ops) != 1 || ops[0].Key != "count" || ops[0].Value != "5" || ops[0].Unset {
		t.Errorf("ops = %+v", ops)
	}
	if e.Dirty() {
		t.Error("dirty after TakeOps")
	}
	e.Invoke("reset")
	ops = e.TakeOps()
	if len(ops) != 1 || !ops[0].Unset || ops[0].Key != "count" {
		t.Errorf("unset op = %+v", ops)
	}
	// Read-only method records nothing.
	e.Invoke("get")
	if e.Dirty() {
		t.Error("read dirtied the object")
	}
}

func TestApplyOps(t *testing.T) {
	src, _ := NewEnv(testObj(), EnvOptions{})
	src.Invoke("add", "7")
	ops := src.TakeOps()

	dst := testObj()
	ApplyOps(dst, ops)
	if v, _ := dst.Get("count"); v != "7" {
		t.Errorf("replayed state = %q", v)
	}
	ApplyOps(dst, []StateOp{{Unset: true, Key: "count"}})
	if _, ok := dst.Get("count"); ok {
		t.Error("unset op not applied")
	}
}

func TestEnvNoSuchMethod(t *testing.T) {
	e, _ := NewEnv(testObj(), EnvOptions{})
	_, err := e.Invoke("nosuch")
	if !errors.Is(err, ErrNoMethod) {
		t.Errorf("error: %v", err)
	}
	if e.HasMethod("nosuch") {
		t.Error("HasMethod(nosuch)")
	}
	if !e.HasMethod("add") {
		t.Error("!HasMethod(add)")
	}
}

func TestEnvBadCode(t *testing.T) {
	o := New(urn.MustParse("urn:rover:x/y"), "t")
	o.Code = `proc broken {} {unclosed`
	if _, err := NewEnv(o, EnvOptions{}); err == nil {
		t.Error("bad code loaded")
	}
	o.Code = `error "boom at load"`
	if _, err := NewEnv(o, EnvOptions{}); err == nil {
		t.Error("code that errors at load accepted")
	}
}

func TestStateCommand(t *testing.T) {
	o := New(urn.MustParse("urn:rover:x/y"), "t")
	o.Code = `
		proc probe {} {
			set r {}
			lappend r [state exists a]
			state set a 1
			lappend r [state exists a]
			lappend r [state get a]
			lappend r [state get missing fallback]
			state set b 2
			lappend r [state keys]
			lappend r [state size]
			return $r
		}
		proc bad {} { state get missing }
	`
	e, err := NewEnv(o, EnvOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Invoke("probe")
	if err != nil {
		t.Fatal(err)
	}
	if got != "0 1 1 fallback {a b} 2" {
		t.Errorf("probe = %q", got)
	}
	if _, err := e.Invoke("bad"); err == nil || !strings.Contains(err.Error(), "no such key") {
		t.Errorf("missing key: %v", err)
	}
}

func TestRestrictedSandbox(t *testing.T) {
	o := New(urn.MustParse("urn:rover:x/y"), "t")
	o.Code = `
		proc tryputs {} { puts leak }
		proc tryinfo {} { info commands }
		proc compute {} { expr {6*7} }
	`
	e, err := NewEnv(o, EnvOptions{Sandbox: Restricted})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Invoke("tryputs"); err == nil {
		t.Error("puts callable in restricted sandbox")
	}
	if _, err := e.Invoke("tryinfo"); err == nil {
		t.Error("info callable in restricted sandbox")
	}
	if got, err := e.Invoke("compute"); err != nil || got != "42" {
		t.Errorf("compute = %q, %v", got, err)
	}
}

// TestRestrictedAfterTrustedOverSameCode: environments over one object's
// code share its parse and nothing else. A Trusted env runs the code
// first; a Restricted env created afterwards over the same code still
// has no puts and no info, its runaway method is stopped by ErrBudget
// after exactly as many iterations as its budget buys, and the Trusted
// env is none the poorer for it.
func TestRestrictedAfterTrustedOverSameCode(t *testing.T) {
	const code = `
		proc tryputs {} { puts leak }
		proc tryinfo {} { info commands }
		proc spin {} { while {1} { state set n [expr {[state get n 0] + 1}] } }
	`
	newObj := func() *Object {
		o := New(urn.MustParse("urn:rover:x/shared"), "t")
		o.Code = code
		return o
	}
	var out strings.Builder
	te, err := NewEnv(newObj(), EnvOptions{Sandbox: Trusted, Stdout: &out})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := te.Invoke("tryputs"); err != nil || out.String() != "leak\n" {
		t.Fatalf("trusted puts: wrote %q, err %v", out.String(), err)
	}
	if v, err := te.Invoke("tryinfo"); err != nil || !strings.Contains(v, "puts") || !strings.Contains(v, "state") {
		t.Fatalf("trusted info commands = %q, %v", v, err)
	}

	ro := newObj()
	re, err := NewEnv(ro, EnvOptions{Sandbox: Restricted, StepBudget: 1000, Stdout: &out})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"tryputs", "tryinfo"} {
		_, err := re.Invoke(m)
		want := `invalid command name "` + strings.TrimPrefix(m, "try") + `"`
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("restricted %s: %v, want %s", m, err, want)
		}
	}
	if out.String() != "leak\n" {
		t.Errorf("restricted env wrote to stdout: %q", out.String())
	}
	for round := 0; round < 2; round++ {
		delete(ro.State, "n")
		_, err := re.Invoke("spin")
		if !errors.Is(err, ErrBudget) && (err == nil || !strings.Contains(err.Error(), "step budget exhausted")) {
			t.Fatalf("round %d: runaway method: %v", round, err)
		}
		// 1 step for while, then 3 per iteration (state set, expr, state
		// get): 333 full iterations.
		if got := ro.State["n"]; got != "333" {
			t.Errorf("round %d: budget of 1000 bought %s iterations, want 333", round, got)
		}
	}
	if _, err := te.Invoke("tryputs"); err != nil || out.String() != "leak\nleak\n" {
		t.Errorf("trusted env after the restricted one: wrote %q, err %v", out.String(), err)
	}
}

func TestBudgetEnforced(t *testing.T) {
	o := New(urn.MustParse("urn:rover:x/y"), "t")
	o.Code = `proc spin {} { while {1} {set x 1} }`
	e, err := NewEnv(o, EnvOptions{StepBudget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Invoke("spin"); err == nil {
		t.Fatal("runaway method completed")
	}
	// The budget resets per invocation: later calls still work.
	o2 := New(urn.MustParse("urn:rover:x/z"), "t")
	o2.Code = `proc ok {} {return fine}`
	e2, _ := NewEnv(o2, EnvOptions{StepBudget: 1000})
	for i := 0; i < 10; i++ {
		if got, err := e2.Invoke("ok"); err != nil || got != "fine" {
			t.Fatalf("invoke %d: %q, %v", i, got, err)
		}
	}
}

func TestRestrictedDefaultBudgetTighter(t *testing.T) {
	o := New(urn.MustParse("urn:rover:x/y"), "t")
	o.Code = `proc spin {} { set i 0; while {$i < 200000} {incr i} }`
	re, _ := NewEnv(o.Clone(), EnvOptions{Sandbox: Restricted})
	if _, err := re.Invoke("spin"); err == nil {
		t.Error("restricted budget did not trip")
	}
	te, _ := NewEnv(o.Clone(), EnvOptions{Sandbox: Trusted})
	if _, err := te.Invoke("spin"); err != nil {
		t.Errorf("trusted budget tripped: %v", err)
	}
}

func TestHostCommands(t *testing.T) {
	o := New(urn.MustParse("urn:rover:x/y"), "t")
	o.Code = `proc f {} { host.double 21 }`
	e, err := NewEnv(o, EnvOptions{
		HostCommands: map[string]rscript.CmdFunc{
			"host.double": func(ip *rscript.Interp, args []string) (string, error) {
				return args[0] + args[0], nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := e.Invoke("f"); got != "2121" {
		t.Errorf("host command = %q", got)
	}
}

func TestEvalTrusted(t *testing.T) {
	e, _ := NewEnv(testObj(), EnvOptions{})
	got, err := e.EvalTrusted(`add 4; add 6; get`)
	if err != nil || got != "10" {
		t.Errorf("EvalTrusted = %q, %v", got, err)
	}
}

func TestInvocationWireRoundTrip(t *testing.T) {
	inv := &Invocation{
		Object:  urn.MustParse("urn:rover:cal/book"),
		Method:  "schedule",
		Args:    []string{"1995-12-07", "10:00", "SOSP dry run"},
		BaseVer: 9,
	}
	var back Invocation
	if err := wire.Unmarshal(wire.Marshal(inv), &back); err != nil {
		t.Fatal(err)
	}
	if back.Object != inv.Object || back.Method != inv.Method || back.BaseVer != 9 {
		t.Errorf("round trip: %+v", back)
	}
	if len(back.Args) != 3 || back.Args[2] != "SOSP dry run" {
		t.Errorf("args: %q", back.Args)
	}
}

func TestSizeEstimate(t *testing.T) {
	o := testObj()
	small := o.SizeEstimate()
	o.Set("big", strings.Repeat("x", 10000))
	if o.SizeEstimate() < small+10000 {
		t.Error("SizeEstimate ignores state")
	}
}

// Property: wire round trip preserves any object with valid URN.
func TestQuickObjectRoundTrip(t *testing.T) {
	f := func(typ, code string, keys, vals []string, ver uint64) bool {
		o := New(urn.MustParse("urn:rover:h/obj"), typ)
		o.Code = code
		o.Version = ver
		for i, k := range keys {
			if i < len(vals) {
				o.Set(k, vals[i])
			}
		}
		back, err := Decode(o.Encode())
		return err == nil && Equal(o, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
