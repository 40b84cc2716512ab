package access

import (
	"testing"

	"rover/internal/urn"
)

// TestImportCloneIsolation: Import hands out clones that share the cached
// object's state until one side writes. A caller writing its copy must not
// reach the cache, and a local Invoke on the cached object must not reach
// a copy handed out before it.
func TestImportCloneIsolation(t *testing.T) {
	engine, srv := newServerRig(t)
	u := urn.MustParse("urn:rover:home/iso")
	if err := srv.Store().Create(counterObj("iso")); err != nil {
		t.Fatal(err)
	}
	r := newRig(t, "cli-1", engine, srv, func(c *Config) { c.AutoExport = false })
	mine := wait(t, r.am.Import(u, ImportOptions{}))
	held := wait(t, r.am.Import(u, ImportOptions{})) // served from the cache
	mine.Set("count", "100")
	if again := wait(t, r.am.Import(u, ImportOptions{})); again.State["count"] != "" {
		t.Fatalf("a caller's write reached the cache: count=%q", again.State["count"])
	}
	if _, err := r.am.Invoke(u, "add", "5"); err != nil {
		t.Fatal(err)
	}
	if got := held.State["count"]; got != "" {
		t.Fatalf("a local invoke reached a copy handed out before it: count=%q", got)
	}
	if got := wait(t, r.am.Import(u, ImportOptions{})).State["count"]; got != "5" {
		t.Fatalf("cached object after invoke: count=%q, want 5", got)
	}
}
