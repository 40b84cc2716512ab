package access

import (
	"context"
	"testing"

	"rover/internal/proto"
	"rover/internal/qrpc"
	"rover/internal/rdo"
	"rover/internal/urn"
)

// TestImportRoundTripAllocs pins what a full import costs both parties over
// a Pipe, 18 objects. The client's 13: the log record the request is a view
// of, the pending request with its promise inline, the import op that holds
// the caller's future and is the hook the promise completes, that future's
// channel (the caller takes Done before the reply is in), and the batch the
// request rides in with the last reply's ack; then, from the reply, the one
// copy of the object's bytes Decode makes, the object, its state map and
// the map's storage, its URN and type, the cache entry and its LRU element,
// and the clone handed to the caller. The server's 5: the URN string of the
// arguments, the store's clone, the reply the object is encoded straight
// into, the reply frame's encoding, and its output frame list. The client
// cache holds one object and the imports alternate between two, so every
// import fetches the whole object, as import_read does; the server's
// objects come from a snapshot, decoded as a disk store faults them in.
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
	if n != 18 {
		t.Errorf("one import round trip allocates %v objects, want 18", n)
	}
}

// TestExportRoundTripAllocs pins what a committed write costs both parties
// over a Pipe: `add 1` run in the client's cached environment, its export
// queued and sent, the server's replay of it in a restricted environment
// and the commit, and the lean reply that lets the client keep the object
// and the environment it has. The export is encoded once, into the client's
// log record, and its reply once, into the server's; the in-memory store
// commits the replayed object itself and, with no commit observer, does
// not encode it. The export's completion costs the client two objects: the
// export op, which holds the caller's future and is the hook its promise
// completes, and the channel the caller's Done makes before the reply is
// in. Its arguments are encoded from the pending operations themselves,
// under the manager's lock.
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
	if n != 28 {
		t.Errorf("one committed write allocates %v objects, want 28", n)
	}
}

// TestResolvedFutureAllocs pins what a future that is complete when it is
// made costs, as a cache-served import returns one: the future alone. Its
// Done, Wait and a callback on it make no channel and no slice.
func TestResolvedFutureAllocs(t *testing.T) {
	obj := counterObj("resolved")
	ctx := context.Background()
	fired := 0
	ready := func(*rdo.Object, error) { fired++ }
	n := testing.AllocsPerRun(1000, func() {
		f := resolvedFuture(obj, nil)
		<-f.Done()
		if got, err := f.Wait(ctx); got != obj || err != nil {
			t.Fatalf("Wait = %v, %v", got, err)
		}
		f.OnReady(ready)
	})
	if fired == 0 {
		t.Fatal("the callback never ran")
	}
	if n != 1 {
		t.Errorf("a resolved future allocates %v objects, want 1", n)
	}
}
