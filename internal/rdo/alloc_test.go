package rdo_test

import (
	"testing"

	"rover"
	"rover/internal/apps/calendar"
	"rover/internal/apps/mail"
	"rover/internal/rdo"
	"rover/internal/rscript"
)

// TestNewEnvAllocs: binding an environment to an object whose code has
// been loaded before costs the same few objects however many methods the
// code defines — on the three suites the repository ships, in the sandbox
// each party uses (the client Trusted, the server Restricted with its host
// commands).
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
			if n > 6 {
				t.Errorf("%s, sandbox %d: NewEnv allocates %v objects, want at most 6", name, opts.Sandbox, n)
			}
			if len(env.Methods()) < 2 {
				t.Errorf("%s: methods %v", name, env.Methods())
			}
		}
	}
}
