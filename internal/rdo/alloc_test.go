package rdo_test

import (
	"testing"

	"rover"
	"rover/internal/apps/calendar"
	"rover/internal/apps/mail"
	"rover/internal/rdo"
	"rover/internal/rscript"
	"rover/internal/wire"
)

// TestNewEnvAllocs: binding an environment to an object whose code has
// been loaded before is one object — the Env, its interpreter inside it —
// however many methods the code defines: on the three suites the
// repository ships, in the sandbox each party uses (the client Trusted,
// the server Restricted with its host commands, which it shares).
func TestNewEnvAllocs(t *testing.T) {
	srv, err := rover.NewServer(rover.ServerOptions{ServerID: "alloc"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := (&mail.Seeder{Authority: "alloc"}).SeedFolder(srv, "inbox", 5); err != nil {
		t.Fatal(err)
	}
	folder, err := srv.Store().Get(rover.MustParseURN("urn:rover:alloc/mail/inbox"))
	if err != nil {
		t.Fatal(err)
	}
	counter := rover.NewObject(rover.MustParseURN("urn:rover:alloc/counter"), "counter")
	counter.Code = `
		proc add {n} { state set count [expr {[state get count 0] + $n}] }
		proc get {} { state get count 0 }
	`
	host := map[string]rscript.CmdFunc{
		"rover.getstate": func(*rscript.Interp, []string) (string, error) { return "", nil },
	}
	for name, obj := range map[string]*rdo.Object{
		"counter":    counter,
		"mailfolder": folder,
		"calendar":   calendar.NewObject(calendar.URNFor("alloc", "group")),
	} {
		for _, opts := range []rdo.EnvOptions{
			{Sandbox: rdo.Trusted},
			{Sandbox: rdo.Restricted, StepBudget: 50_000, HostCommands: host},
		} {
			var env *rdo.Env
			n := testing.AllocsPerRun(100, func() {
				if env, err = rdo.NewEnv(obj, opts); err != nil {
					t.Fatal(err)
				}
			})
			if n > 1 {
				t.Errorf("%s, sandbox %d: NewEnv allocates %v objects, want 1", name, opts.Sandbox, n)
			}
			if len(env.Methods()) < 2 {
				t.Errorf("%s: methods %v", name, env.Methods())
			}
		}
	}
}

// TestObjectCopyAllocs pins what moving an object costs: a Clone is the new
// Object alone, re-sending a decoded object it has not written is one copy
// of the bytes it arrived as, and a Decode is the one copy of its input,
// the Object, its URN and Type (one string), and the state map. A written
// object is encoded with its keys sorted on the stack: into a pooled
// buffer that costs nothing, and Encode is the one exact-size copy.
func TestObjectCopyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts, so allocation counts mean nothing")
	}
	o := rover.NewObject(rover.MustParseURN("urn:rover:alloc/counter"), "counter")
	o.Code = `proc get {} { state get count 0 }`
	o.Version = 4
	o.Set("count", "41")
	o.Set("owner", "adj")
	enc := o.Encode()
	d, err := rdo.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		want float64
		f    func()
	}{
		{"Clone", 1, func() { objSink = d.Clone() }},
		{"Encode of a decoded object", 1, func() { bytesSink = d.Encode() }},
		{"Decode", 5, func() { objSink, _ = rdo.Decode(enc) }},
		{"MarshalWire of a written object into a pooled buffer", 0, func() {
			b := wire.GetBuffer()
			o.MarshalWire(b)
			wire.PutBuffer(b)
		}},
		{"Encode of a written object", 1, func() { bytesSink = o.Encode() }},
	} {
		if n := testing.AllocsPerRun(200, c.f); n != c.want {
			t.Errorf("%s allocates %v objects, want %v", c.name, n, c.want)
		}
	}
}

// Sinks make what a measured call returns escape, as it does for callers.
var (
	objSink   *rdo.Object
	bytesSink []byte
)
