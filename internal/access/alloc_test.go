package access

import (
	"testing"

	"rover/internal/proto"
	"rover/internal/qrpc"
	"rover/internal/urn"
)

// TestImportRoundTripAllocs pins what a full import costs both parties over
// a Pipe: the client's log record, which the request is a view of, and its
// promise; the server's store clone, the copy of the object's kept encoding
// and the reply around it; and the client's one copy of the object it
// decodes, its cache entry and the clone handed to the caller. The client cache holds one object and
// the imports alternate between two, so every import fetches the whole
// object, as import_read does; the server's objects come from a snapshot,
// decoded as a disk store faults them in.
func TestImportRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts, so allocation counts mean nothing")
	}
	engine, srv := newServerRig(t)
	us := []urn.URN{urn.MustParse("urn:rover:home/a"), urn.MustParse("urn:rover:home/b")}
	size := 0
	for _, u := range us {
		o := counterObj(u.Path)
		o.Set("count", "7")
		if err := srv.Store().Create(o); err != nil {
			t.Fatal(err)
		}
		size = max(size, o.SizeEstimate())
	}
	if err := srv.Store().LoadSnapshot(srv.Store().Snapshot()); err != nil {
		t.Fatal(err)
	}
	r := newRig(t, "cli-1", engine, srv, func(c *Config) { c.CacheBytes = size + size/2 })
	i := 0
	imp := func() {
		f := r.am.Import(us[i%2], ImportOptions{})
		i++
		<-f.Done()
		if obj, err, _ := f.Result(); err != nil || obj.State["count"] != "7" {
			t.Fatalf("import: %v, %v", obj, err)
		}
	}
	for range 100 { // scratch arrays, maps and pools reach their steady state
		imp()
	}
	before := r.am.Stats().ImportsSent
	n := testing.AllocsPerRun(1000, imp)
	if sent := r.am.Stats().ImportsSent - before; sent < 1000 {
		t.Fatalf("%d of 1001 imports reached the server: the cache served the rest", sent)
	}
	if n != 25 {
		t.Errorf("one import round trip allocates %v objects, want 25", n)
	}
}

// TestExportRoundTripAllocs pins what a committed write costs both parties
// over a Pipe: `add 1` run in the client's cached environment, its export
// queued and sent, the server's replay of it in a restricted environment
// and the commit, and the lean reply that lets the client keep the object
// and the environment it has. The export is encoded once, into the client's
// log record, and its reply once, into the server's; the store commits the
// replayed object itself, encoded straight into its segment record.
func TestExportRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts, so allocation counts mean nothing")
	}
	engine, srv := newServerRig(t)
	u := urn.MustParse("urn:rover:home/w")
	if err := srv.Store().Create(counterObj("w")); err != nil {
		t.Fatal(err)
	}
	r := newRig(t, "cli-1", engine, srv, func(c *Config) { c.AutoExport = false })
	wait(t, r.am.Import(u, ImportOptions{}))
	write := func() {
		if _, err := r.am.Invoke(u, "add", "1"); err != nil {
			t.Fatal(err)
		}
		f, err := r.am.Export(u, qrpc.PriorityNormal)
		if err != nil {
			t.Fatal(err)
		}
		<-f.Done()
		if res, err, _ := f.Result(); err != nil || res.Outcome != proto.OutcomeCommitted {
			t.Fatalf("export: %+v, %v", res, err)
		}
	}
	for range 100 { // scratch arrays, maps and pools reach their steady state
		write()
	}
	n := testing.AllocsPerRun(1000, write)
	if refetches := r.am.Stats().ExportRefetches; refetches != 0 {
		t.Fatalf("%d export replies carried the object", refetches)
	}
	if n != 34 {
		t.Errorf("one committed write allocates %v objects, want 34", n)
	}
}
