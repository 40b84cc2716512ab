package access

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rover/internal/proto"
	"rover/internal/qrpc"
	"rover/internal/rdo"
	"rover/internal/server"
	"rover/internal/session"
	"rover/internal/stable"
	"rover/internal/transport"
	"rover/internal/urn"
)

// rig is a full client/server stack over an in-process pipe.
type rig struct {
	t      *testing.T
	am     *AccessManager
	srv    *server.Server
	engine *qrpc.Server
	pipe   *transport.Pipe

	mu        sync.Mutex
	conflicts []string
	invalids  []urn.URN
}

func newRig(t *testing.T, clientID string, srvEngine *qrpc.Server, srv *server.Server, cfgTweak func(*Config)) *rig {
	t.Helper()
	r := &rig{t: t, srv: srv, engine: srvEngine}
	var am *AccessManager
	cli, err := qrpc.NewClient(qrpc.ClientConfig{
		ClientID: clientID,
		Log:      stable.NewMemLog(stable.Options{}),
		OnCallback: func(topic string, payload []byte) {
			if am != nil {
				am.HandleCallback(topic, payload)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	pipe := transport.NewPipe(cli, srvEngine, nil)
	t.Cleanup(func() { pipe.Close() })
	cfg := Config{
		Engine:     cli,
		Kick:       pipe.Kick,
		AutoExport: true,
		Guarantees: session.All,
		OnConflict: func(u urn.URN, msg string) {
			r.mu.Lock()
			r.conflicts = append(r.conflicts, u.String()+": "+msg)
			r.mu.Unlock()
		},
		OnInvalidate: func(u urn.URN, ver uint64) {
			r.mu.Lock()
			r.invalids = append(r.invalids, u)
			r.mu.Unlock()
		},
	}
	if cfgTweak != nil {
		cfgTweak(&cfg)
	}
	am, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.am = am
	r.pipe = pipe
	pipe.SetConnected(true)
	return r
}

func newServerRig(t *testing.T) (*qrpc.Server, *server.Server) {
	t.Helper()
	engine := qrpc.NewServer(qrpc.ServerConfig{ServerID: "home"})
	srv, err := server.New(server.Config{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	return engine, srv
}

func counterObj(path string) *rdo.Object {
	o := rdo.New(urn.MustParse("urn:rover:home/"+path), "counter")
	o.Code = `
		proc get {} { state get count 0 }
		proc add {n} {
			state set count [expr {[state get count 0] + $n}]
		}
		proc failing {} {
			state set junk leftovers
			error "deliberate failure"
		}
	`
	return o
}

func wait[T any](t *testing.T, f *Future[T]) T {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	v, err := f.Wait(ctx)
	if err != nil {
		t.Fatalf("future: %v", err)
	}
	return v
}

func waitErr[T any](t *testing.T, f *Future[T]) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := f.Wait(ctx)
	return err
}

func TestImportCachesAndServesLocally(t *testing.T) {
	engine, srv := newServerRig(t)
	srv.Store().Create(counterObj("c1"))
	r := newRig(t, "cli-1", engine, srv, nil)
	u := urn.MustParse("urn:rover:home/c1")

	obj := wait(t, r.am.Import(u, ImportOptions{}))
	if obj.Version != 1 || obj.Type != "counter" {
		t.Fatalf("imported %+v", obj)
	}
	// Second import: cache hit, no new QRPC.
	before := r.am.Stats().ImportsSent
	obj2 := wait(t, r.am.Import(u, ImportOptions{}))
	if obj2.Version != 1 {
		t.Fatal("cache serve wrong version")
	}
	st := r.am.Stats()
	if st.ImportsSent != before || st.CacheServes != 1 {
		t.Errorf("stats %+v", st)
	}
	// The returned clone must not alias the cache.
	obj2.Set("count", "tampered")
	obj3 := wait(t, r.am.Import(u, ImportOptions{}))
	if v, ok := obj3.Get("count"); ok && v == "tampered" {
		t.Error("import returned live cache reference")
	}
}

func TestImportMissingObject(t *testing.T) {
	engine, srv := newServerRig(t)
	r := newRig(t, "cli-1", engine, srv, nil)
	err := waitErr(t, r.am.Import(urn.MustParse("urn:rover:home/ghost"), ImportOptions{}))
	if err == nil || !strings.Contains(err.Error(), "no such object") {
		t.Errorf("error: %v", err)
	}
}

func TestRevalidateNotModified(t *testing.T) {
	engine, srv := newServerRig(t)
	srv.Store().Create(counterObj("c1"))
	r := newRig(t, "cli-1", engine, srv, nil)
	u := urn.MustParse("urn:rover:home/c1")
	wait(t, r.am.Import(u, ImportOptions{}))
	wait(t, r.am.Import(u, ImportOptions{Revalidate: true}))
	if r.am.Stats().NotModified != 1 {
		t.Errorf("stats %+v", r.am.Stats())
	}
}

func TestLocalInvokeTentativeThenCommit(t *testing.T) {
	engine, srv := newServerRig(t)
	srv.Store().Create(counterObj("c1"))
	r := newRig(t, "cli-1", engine, srv, nil)
	u := urn.MustParse("urn:rover:home/c1")
	wait(t, r.am.Import(u, ImportOptions{}))

	if res, err := r.am.Invoke(u, "add", "5"); err != nil || res != "5" {
		t.Fatalf("Invoke: %q, %v", res, err)
	}
	// AutoExport runs async; wait for commit by polling tentative state.
	deadline := time.Now().Add(5 * time.Second)
	for r.am.Tentative(u) {
		if time.Now().After(deadline) {
			t.Fatal("tentative never committed")
		}
		time.Sleep(time.Millisecond)
	}
	got, err := srv.Store().Get(u)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Get("count"); v != "5" || got.Version != 2 {
		t.Errorf("server state %q v%d", v, got.Version)
	}
	// Read-your-writes: the local cache reflects the committed version.
	obj := wait(t, r.am.Import(u, ImportOptions{}))
	if obj.Version != 2 {
		t.Errorf("post-commit import version %d", obj.Version)
	}
}

func TestDisconnectedOperation(t *testing.T) {
	engine, srv := newServerRig(t)
	srv.Store().Create(counterObj("c1"))
	r := newRig(t, "cli-1", engine, srv, nil)
	u := urn.MustParse("urn:rover:home/c1")
	wait(t, r.am.Import(u, ImportOptions{}))

	r.pipe.SetConnected(false)
	// Work offline: local reads and writes keep functioning.
	for i := 0; i < 3; i++ {
		if _, err := r.am.Invoke(u, "add", "10"); err != nil {
			t.Fatalf("offline invoke %d: %v", i, err)
		}
	}
	if res, _ := r.am.Invoke(u, "get"); res != "30" {
		t.Errorf("offline read %q", res)
	}
	if !r.am.Tentative(u) {
		t.Fatal("not tentative while offline")
	}
	st := r.am.Status()
	if st.Connected || st.TentativeObjects != 1 || st.Queued == 0 {
		t.Errorf("status %+v", st)
	}
	// Server saw nothing.
	if got, _ := srv.Store().Get(u); got.Version != 1 {
		t.Fatal("server changed while offline")
	}
	// Reconnect: queued exports drain and commit.
	r.pipe.SetConnected(true)
	deadline := time.Now().Add(5 * time.Second)
	for r.am.Tentative(u) {
		if time.Now().After(deadline) {
			t.Fatal("reconnect did not drain")
		}
		time.Sleep(time.Millisecond)
	}
	got, _ := srv.Store().Get(u)
	if v, _ := got.Get("count"); v != "30" {
		t.Errorf("server count %q", v)
	}
}

func TestConflictResolutionBetweenClients(t *testing.T) {
	engine, srv := newServerRig(t)
	srv.Store().Create(counterObj("shared"))
	u := urn.MustParse("urn:rover:home/shared")

	r1 := newRig(t, "cli-1", engine, srv, nil)
	r2 := newRig(t, "cli-2", engine, srv, nil)
	wait(t, r1.am.Import(u, ImportOptions{}))
	wait(t, r2.am.Import(u, ImportOptions{}))

	// Client 2 goes offline and updates; client 1 commits first.
	r2.pipe.SetConnected(false)
	if _, err := r2.am.Invoke(u, "add", "7"); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.am.Invoke(u, "add", "3"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return !r1.am.Tentative(u) })

	// Client 2 reconnects: its export has a stale base version; the
	// default Replay resolver merges the commuting add.
	r2.pipe.SetConnected(true)
	waitUntil(t, func() bool { return !r2.am.Tentative(u) })

	got, _ := srv.Store().Get(u)
	if v, _ := got.Get("count"); v != "10" {
		t.Errorf("merged count %q, want 10", v)
	}
	if got.Version != 3 {
		t.Errorf("version %d, want 3", got.Version)
	}
	if len(srv.Conflicts()) != 0 {
		t.Errorf("repair queue: %+v", srv.Conflicts())
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestUnresolvableConflictGoesToRepairQueue(t *testing.T) {
	engine, srv := newServerRig(t)
	// Calendar-style object: slot taken is a hard conflict.
	o := rdo.New(urn.MustParse("urn:rover:home/cal"), "calendar")
	o.Code = `
		proc book {slot what} {
			if {[state exists $slot]} { error "slot taken: [state get $slot]" }
			state set $slot $what
		}
	`
	srv.Store().Create(o)
	u := o.URN

	r1 := newRig(t, "cli-1", engine, srv, nil)
	r2 := newRig(t, "cli-2", engine, srv, nil)
	wait(t, r1.am.Import(u, ImportOptions{}))
	wait(t, r2.am.Import(u, ImportOptions{}))

	r2.pipe.SetConnected(false)
	if _, err := r2.am.Invoke(u, "book", "mon-9", "dentist"); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.am.Invoke(u, "book", "mon-9", "standup"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return !r1.am.Tentative(u) })
	r2.pipe.SetConnected(true)
	waitUntil(t, func() bool { return !r2.am.Tentative(u) })

	// Server kept client 1's booking; client 2's op is in the repair queue.
	got, _ := srv.Store().Get(u)
	if v, _ := got.Get("mon-9"); v != "standup" {
		t.Errorf("slot holds %q", v)
	}
	cs := srv.Conflicts()
	if len(cs) != 1 || cs[0].ClientID != "cli-2" {
		t.Fatalf("repair queue: %+v", cs)
	}
	r2.mu.Lock()
	nConf := len(r2.conflicts)
	r2.mu.Unlock()
	if nConf == 0 {
		t.Error("client 2 not notified of conflict")
	}
	// Client 2's cache converged to the server's state.
	obj := wait(t, r2.am.Import(u, ImportOptions{}))
	if v, _ := obj.Get("mon-9"); v != "standup" {
		t.Errorf("client 2 sees %q", v)
	}
	// The repair queue is visible through the admin service.
	confs := wait(t, r1.am.Conflicts(qrpc.PriorityNormal))
	if len(confs) != 1 || confs[0].ClientID != "cli-2" {
		t.Errorf("Conflicts service: %+v", confs)
	}
}

func TestInvokeRemote(t *testing.T) {
	engine, srv := newServerRig(t)
	srv.Store().Create(counterObj("c1"))
	r := newRig(t, "cli-1", engine, srv, nil)
	u := urn.MustParse("urn:rover:home/c1")

	res := wait(t, r.am.InvokeRemote(u, "add", []string{"9"}, qrpc.PriorityNormal))
	if !res.Mutated || res.NewVersion != 2 {
		t.Fatalf("remote invoke: %+v", res)
	}
	got, _ := srv.Store().Get(u)
	if v, _ := got.Get("count"); v != "9" {
		t.Errorf("server count %q", v)
	}
	// Read-only remote invoke does not bump the version.
	res2 := wait(t, r.am.InvokeRemote(u, "get", nil, qrpc.PriorityNormal))
	if res2.Mutated || res2.Result != "9" || res2.NewVersion != 2 {
		t.Errorf("read-only remote: %+v", res2)
	}
}

func TestFailedInvokeLeavesNoPhantomState(t *testing.T) {
	engine, srv := newServerRig(t)
	srv.Store().Create(counterObj("c1"))
	r := newRig(t, "cli-1", engine, srv, nil)
	u := urn.MustParse("urn:rover:home/c1")
	wait(t, r.am.Import(u, ImportOptions{}))
	r.am.Invoke(u, "add", "5")

	if _, err := r.am.Invoke(u, "failing"); err == nil {
		t.Fatal("failing method succeeded")
	}
	// The partial mutation ("junk") must be rolled back; the prior
	// tentative add must survive.
	if res, err := r.am.Invoke(u, "get"); err != nil || res != "5" {
		t.Errorf("get after failure: %q, %v", res, err)
	}
	obj := wait(t, r.am.Import(u, ImportOptions{}))
	if _, ok := obj.Get("junk"); ok {
		t.Error("phantom state survived failed method")
	}
}

func TestRejectTentativePolicyForcesRemote(t *testing.T) {
	engine, srv := newServerRig(t)
	srv.Store().Create(counterObj("c1"))
	r := newRig(t, "cli-1", engine, srv, func(c *Config) { c.AutoExport = false })
	u := urn.MustParse("urn:rover:home/c1")
	wait(t, r.am.Import(u, ImportOptions{}))
	r.am.Invoke(u, "add", "5") // tentative, unexported

	// Accepting policy sees the tentative value via cache.
	obj := wait(t, r.am.Import(u, ImportOptions{}))
	if v, _ := obj.Get("count"); v != "5" {
		t.Errorf("tentative-accepting import: %q", v)
	}
	// Rejecting policy refetches committed state from the server; the
	// pending op then rebases on it (count stays 5 locally, but the
	// committed copy fetched was version 1).
	obj2 := wait(t, r.am.Import(u, ImportOptions{Tentative: RejectTentative}))
	if obj2.Version != 1 {
		t.Errorf("rejecting import version %d", obj2.Version)
	}
}

func TestCreateStatList(t *testing.T) {
	engine, srv := newServerRig(t)
	r := newRig(t, "cli-1", engine, srv, nil)
	o := counterObj("fresh/one")
	if v := wait(t, r.am.Create(o, qrpc.PriorityNormal)); v != 1 {
		t.Fatalf("Create version %d", v)
	}
	if srv.Store().Occupancy().Objects != 1 {
		t.Fatal("not created at server")
	}
	st := wait(t, r.am.Stat(o.URN, qrpc.PriorityNormal))
	if !st.Exists || st.Version != 1 || st.Type != "counter" {
		t.Errorf("Stat %+v", st)
	}
	ghost := wait(t, r.am.Stat(urn.MustParse("urn:rover:home/ghost"), qrpc.PriorityNormal))
	if ghost.Exists {
		t.Error("ghost exists")
	}
	wait(t, r.am.Create(counterObj("fresh/two"), qrpc.PriorityNormal))
	entries := wait(t, r.am.List(urn.MustParse("urn:rover:home/fresh"), qrpc.PriorityNormal))
	if len(entries) != 2 {
		t.Errorf("List: %+v", entries)
	}
	// Created object is cached locally and invocable immediately.
	if res, err := r.am.Invoke(o.URN, "get"); err != nil || res != "0" {
		t.Errorf("invoke on created: %q, %v", res, err)
	}
}

func TestPrefetchPrefix(t *testing.T) {
	engine, srv := newServerRig(t)
	for _, p := range []string{"mail/1", "mail/2", "mail/3"} {
		srv.Store().Create(counterObj(p))
	}
	r := newRig(t, "cli-1", engine, srv, nil)
	started := wait(t, r.am.PrefetchPrefix(urn.MustParse("urn:rover:home/mail")))
	if started != 3 {
		t.Fatalf("started %d prefetches", started)
	}
	waitUntil(t, func() bool {
		return r.am.Cached(urn.MustParse("urn:rover:home/mail/1")) &&
			r.am.Cached(urn.MustParse("urn:rover:home/mail/2")) &&
			r.am.Cached(urn.MustParse("urn:rover:home/mail/3"))
	})
	// A second prefetch starts nothing: everything is fresh.
	if n := wait(t, r.am.PrefetchPrefix(urn.MustParse("urn:rover:home/mail"))); n != 0 {
		t.Errorf("re-prefetch started %d", n)
	}
	// Disconnected reads now work.
	r.pipe.SetConnected(false)
	if res, err := r.am.Invoke(urn.MustParse("urn:rover:home/mail/2"), "get"); err != nil || res != "0" {
		t.Errorf("offline read of prefetched object: %q, %v", res, err)
	}
}

func TestSubscriptionInvalidation(t *testing.T) {
	engine, srv := newServerRig(t)
	srv.Store().Create(counterObj("shared"))
	u := urn.MustParse("urn:rover:home/shared")
	r1 := newRig(t, "cli-1", engine, srv, nil)
	r2 := newRig(t, "cli-2", engine, srv, nil)

	wait(t, r2.am.Import(u, ImportOptions{}))
	wait(t, r2.am.Subscribe(urn.MustParse("urn:rover:home/shared"), qrpc.PriorityNormal))

	// Client 1 updates; client 2's cache entry must be invalidated.
	wait(t, r1.am.InvokeRemote(u, "add", []string{"1"}, qrpc.PriorityNormal))
	waitUntil(t, func() bool { return !r2.am.Cached(u) })
	r2.mu.Lock()
	n := len(r2.invalids)
	r2.mu.Unlock()
	if n != 1 {
		t.Errorf("invalidation callbacks: %d", n)
	}
	// Next import refetches the new version.
	obj := wait(t, r2.am.Import(u, ImportOptions{}))
	if obj.Version != 2 {
		t.Errorf("refetched version %d", obj.Version)
	}
}

func TestExportValidation(t *testing.T) {
	engine, srv := newServerRig(t)
	srv.Store().Create(counterObj("c1"))
	r := newRig(t, "cli-1", engine, srv, func(c *Config) { c.AutoExport = false })
	u := urn.MustParse("urn:rover:home/c1")

	if _, err := r.am.Export(u, 0); !errors.Is(err, ErrNotCached) {
		t.Errorf("export uncached: %v", err)
	}
	wait(t, r.am.Import(u, ImportOptions{}))
	if _, err := r.am.Export(u, 0); !errors.Is(err, ErrNothingToExport) {
		t.Errorf("export clean: %v", err)
	}
	r.am.Invoke(u, "add", "1")
	f, err := r.am.Export(u, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := wait(t, f)
	if res.Outcome != proto.OutcomeCommitted || res.NewVersion != 2 {
		t.Errorf("export result %+v", res)
	}
}

func TestManualExportBatchesOps(t *testing.T) {
	engine, srv := newServerRig(t)
	srv.Store().Create(counterObj("c1"))
	r := newRig(t, "cli-1", engine, srv, func(c *Config) { c.AutoExport = false })
	u := urn.MustParse("urn:rover:home/c1")
	wait(t, r.am.Import(u, ImportOptions{}))
	for i := 0; i < 10; i++ {
		r.am.Invoke(u, "add", "1")
	}
	f, err := r.am.Export(u, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := wait(t, f)
	if res.Outcome != proto.OutcomeCommitted {
		t.Fatalf("%+v", res)
	}
	// One export, one version bump, ten ops applied.
	got, _ := srv.Store().Get(u)
	if v, _ := got.Get("count"); v != "10" || got.Version != 2 {
		t.Errorf("server %q v%d", v, got.Version)
	}
}

func TestUncache(t *testing.T) {
	engine, srv := newServerRig(t)
	srv.Store().Create(counterObj("c1"))
	r := newRig(t, "cli-1", engine, srv, func(c *Config) { c.AutoExport = false })
	u := urn.MustParse("urn:rover:home/c1")
	wait(t, r.am.Import(u, ImportOptions{}))
	r.am.Invoke(u, "add", "1")
	if err := r.am.Uncache(u); !errors.Is(err, ErrTentativePinned) {
		t.Errorf("uncache tentative: %v", err)
	}
	f, _ := r.am.Export(u, 0)
	wait(t, f)
	if err := r.am.Uncache(u); err != nil {
		t.Errorf("uncache clean: %v", err)
	}
	if r.am.Cached(u) {
		t.Error("still cached")
	}
	if err := r.am.Uncache(u); !errors.Is(err, ErrNotCached) {
		t.Errorf("double uncache: %v", err)
	}
}

func TestServerSideRDOComposition(t *testing.T) {
	// A server-side invocation reads another object's state via the
	// rover.getstate host command.
	engine, srv := newServerRig(t)
	cfgObj := rdo.New(urn.MustParse("urn:rover:home/config"), "config")
	cfgObj.Set("limit", "99")
	srv.Store().Create(cfgObj)

	o := rdo.New(urn.MustParse("urn:rover:home/worker"), "worker")
	o.Code = `
		proc readlimit {} {
			rover.getstate urn:rover:home/config limit 0
		}
	`
	srv.Store().Create(o)
	r := newRig(t, "cli-1", engine, srv, nil)
	res := wait(t, r.am.InvokeRemote(o.URN, "readlimit", nil, qrpc.PriorityNormal))
	if res.Result != "99" {
		t.Errorf("composed read: %+v", res)
	}
}

func TestExportAllCoversEveryTentativeObject(t *testing.T) {
	engine, srv := newServerRig(t)
	srv.Store().Create(counterObj("a"))
	srv.Store().Create(counterObj("b"))
	srv.Store().Create(counterObj("c"))
	r := newRig(t, "cli-1", engine, srv, func(c *Config) { c.AutoExport = false })
	for _, p := range []string{"a", "b", "c"} {
		u := urn.MustParse("urn:rover:home/" + p)
		wait(t, r.am.Import(u, ImportOptions{}))
		r.am.Invoke(u, "add", "1")
	}
	futures := r.am.ExportAll(qrpc.PriorityNormal)
	if len(futures) != 3 {
		t.Fatalf("ExportAll started %d exports", len(futures))
	}
	for _, f := range futures {
		if res := wait(t, f); res.Outcome != proto.OutcomeCommitted {
			t.Errorf("outcome %v", res.Outcome)
		}
	}
	if st := r.am.Stats(); st.ExportsSent != 3 {
		t.Errorf("stats %+v", st)
	}
	if cs := r.am.CacheStats(); cs.Inserts != 3 {
		t.Errorf("cache stats %+v", cs)
	}
	if r.am.Session().Guarantees() == 0 {
		t.Error("session guarantees unset")
	}
}

func TestCacheEvictionUnderPressure(t *testing.T) {
	engine, srv := newServerRig(t)
	for i := 0; i < 10; i++ {
		o := counterObj(fmt.Sprintf("big/%d", i))
		o.Set("fill", strings.Repeat("x", 4096))
		srv.Store().Create(o)
	}
	r := newRig(t, "cli-1", engine, srv, func(c *Config) {
		c.CacheBytes = 3 * 4500 // room for ~3 objects
		c.AutoExport = false
	})
	for i := 0; i < 10; i++ {
		u := urn.MustParse(fmt.Sprintf("urn:rover:home/big/%d", i))
		wait(t, r.am.Import(u, ImportOptions{}))
	}
	cs := r.am.CacheStats()
	if cs.Evictions == 0 {
		t.Fatalf("no evictions under pressure: %+v", cs)
	}
	// Tentative entries survive pressure.
	u0 := urn.MustParse("urn:rover:home/big/0")
	wait(t, r.am.Import(u0, ImportOptions{}))
	r.am.Invoke(u0, "add", "1")
	for i := 1; i < 10; i++ {
		u := urn.MustParse(fmt.Sprintf("urn:rover:home/big/%d", i))
		wait(t, r.am.Import(u, ImportOptions{Revalidate: true}))
	}
	if !r.am.Cached(u0) {
		t.Fatal("tentative entry evicted")
	}
	// Evicted entries simply refetch on next import.
	u5 := urn.MustParse("urn:rover:home/big/5")
	if obj := wait(t, r.am.Import(u5, ImportOptions{})); obj.Version != 1 {
		t.Errorf("refetch version %d", obj.Version)
	}
}

// TestImportLargerThanCache: an object bigger than the whole cache budget
// is evicted by its own insertion. The import still resolves with the
// object (the completion callback used to dereference the missing entry),
// a delta import that grows an object past the budget does too, and the
// cache accounts for exactly what it holds.
func TestImportLargerThanCache(t *testing.T) {
	engine, srv := newServerRig(t)
	big := counterObj("big")
	big.Set("fill", strings.Repeat("x", 4096))
	srv.Store().Create(big)
	small := rdo.New(urn.MustParse("urn:rover:home/small"), "note")
	small.Code = `proc put {v} { state set v $v }`
	srv.Store().Create(small)
	r := newRig(t, "cli-1", engine, srv, func(c *Config) {
		c.CacheBytes = 1024
		c.AutoExport = false
	})
	u := urn.MustParse("urn:rover:home/big")
	for round := 1; round <= 2; round++ {
		obj := wait(t, r.am.Import(u, ImportOptions{}))
		if v, _ := obj.Get("fill"); len(v) != 4096 {
			t.Fatalf("round %d: imported fill of %d bytes", round, len(v))
		}
		if r.am.Cached(u) {
			t.Fatalf("round %d: a 4 KiB object sits in a 1 KiB cache", round)
		}
		if _, err := r.am.Invoke(u, "add", "1"); !errors.Is(err, ErrNotCached) {
			t.Fatalf("round %d: Invoke on the evicted object: %v", round, err)
		}
		cs, st := r.am.CacheStats(), r.am.Stats()
		if n := int64(round); cs.Inserts != n || cs.Evictions != n || st.ImportsSent != n || st.CacheServes != 0 {
			t.Fatalf("round %d: cache stats %+v, stats %+v", round, cs, st)
		}
		if n, b := r.am.cache.Len(), r.am.cache.Bytes(); n != 0 || b != 0 {
			t.Fatalf("round %d: cache holds %d entries, %d bytes", round, n, b)
		}
	}

	// A delta that grows a cached object past the budget.
	us := urn.MustParse("urn:rover:home/small")
	wait(t, r.am.Import(us, ImportOptions{}))
	if !r.am.Cached(us) {
		t.Fatal("small object not cached")
	}
	other := newRig(t, "cli-2", engine, srv, func(c *Config) { c.AutoExport = false })
	wait(t, other.am.Import(us, ImportOptions{}))
	if _, err := other.am.Invoke(us, "put", strings.Repeat("y", 2048)); err != nil {
		t.Fatal(err)
	}
	f, err := other.am.Export(us, qrpc.PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	wait(t, f)
	obj := wait(t, r.am.Import(us, ImportOptions{Revalidate: true}))
	if v, _ := obj.Get("v"); len(v) != 2048 || obj.Version != 2 {
		t.Fatalf("after delta: version %d, v of %d bytes", obj.Version, len(v))
	}
	if st := r.am.Stats(); st.DeltaImports != 1 {
		t.Errorf("delta imports %d, want 1 (stats %+v)", st.DeltaImports, st)
	}
	if r.am.Cached(us) || r.am.cache.Bytes() != 0 {
		t.Errorf("grown object still cached: %d bytes held", r.am.cache.Bytes())
	}
}

func TestSessionGuaranteeForcesRevalidation(t *testing.T) {
	// After a remote invoke bumps the version, read-your-writes must not
	// serve the stale cached copy.
	engine, srv := newServerRig(t)
	srv.Store().Create(counterObj("ryw"))
	u := urn.MustParse("urn:rover:home/ryw")
	r := newRig(t, "cli-1", engine, srv, func(c *Config) { c.AutoExport = false })
	wait(t, r.am.Import(u, ImportOptions{}))

	res := wait(t, r.am.InvokeRemote(u, "add", []string{"5"}, qrpc.PriorityNormal))
	if !res.Mutated || res.NewVersion != 2 {
		t.Fatalf("remote invoke %+v", res)
	}
	// The remote invoke removed the clean cached copy; import must fetch
	// version 2, never serve version 1.
	obj := wait(t, r.am.Import(u, ImportOptions{}))
	if obj.Version != 2 {
		t.Fatalf("RYW violated: got version %d", obj.Version)
	}
	if v, _ := obj.Get("count"); v != "5" {
		t.Errorf("count %q", v)
	}
}

func TestInvokeBestPlacement(t *testing.T) {
	engine, srv := newServerRig(t)
	srv.Store().Create(counterObj("placed"))
	u := urn.MustParse("urn:rover:home/placed")
	r := newRig(t, "cli-1", engine, srv, func(c *Config) { c.AutoExport = false })

	// Uncached: ships the invocation (server executes, version bumps).
	res := wait(t, r.am.InvokeBest(u, "add", []string{"2"}, qrpc.PriorityNormal))
	if !res.Mutated || res.NewVersion != 2 {
		t.Fatalf("remote placement: %+v", res)
	}
	if r.am.Stats().RemoteInvokes != 1 {
		t.Errorf("stats %+v", r.am.Stats())
	}
	// Cached: runs locally, tentative.
	wait(t, r.am.Import(u, ImportOptions{}))
	res = wait(t, r.am.InvokeBest(u, "add", []string{"3"}, qrpc.PriorityNormal))
	if res.Result != "5" {
		t.Fatalf("local placement: %+v", res)
	}
	if !r.am.Tentative(u) {
		t.Error("local placement not tentative")
	}
	if st := r.am.Stats(); st.LocalInvokes != 1 || st.RemoteInvokes != 1 {
		t.Errorf("stats %+v", st)
	}
	// Errors propagate on the local path too.
	if err := waitErr(t, r.am.InvokeBest(u, "nosuch", nil, qrpc.PriorityNormal)); err == nil {
		t.Error("unknown method succeeded")
	}
}
