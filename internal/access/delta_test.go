package access

import (
	"strings"
	"sync"
	"testing"

	"rover/internal/proto"
	"rover/internal/qrpc"
	"rover/internal/rdo"
	"rover/internal/store"
	"rover/internal/urn"
)

// paddedCounter is a counter whose full encoding dwarfs a few-op delta,
// so the server's smaller-on-the-wire check picks the delta form.
func paddedCounter(path string) *rdo.Object {
	o := counterObj(path)
	o.Set("pad", strings.Repeat("bulk state a delta need not resend ", 40))
	return o
}

func TestDeltaImportEndToEnd(t *testing.T) {
	engine, srv := newServerRig(t)
	srv.Store().Create(paddedCounter("d1"))
	u := urn.MustParse("urn:rover:home/d1")
	r1 := newRig(t, "cli-1", engine, srv, nil)
	r2 := newRig(t, "cli-2", engine, srv, nil)

	if obj := wait(t, r1.am.Import(u, ImportOptions{})); obj.Version != 1 {
		t.Fatalf("warm import at version %d", obj.Version)
	}
	// Another client advances the object; r1 never subscribed, so its
	// cache goes stale silently.
	for _, n := range []string{"2", "3", "4"} {
		wait(t, r2.am.InvokeRemote(u, "add", []string{n}, qrpc.PriorityNormal))
	}
	obj := wait(t, r1.am.Import(u, ImportOptions{Revalidate: true}))
	if obj.Version != 4 {
		t.Fatalf("revalidated to version %d, want 4", obj.Version)
	}
	if v, _ := obj.Get("count"); v != "9" {
		t.Fatalf("replayed count = %q, want 9", v)
	}
	st := r1.am.Stats()
	if st.DeltaImports != 1 || st.DeltaFallbacks != 0 {
		t.Fatalf("stats %+v: want exactly one delta import, no fallbacks", st)
	}
	// The adopted state is committed, not tentative.
	if r1.am.Tentative(u) {
		t.Error("delta application left the entry tentative")
	}
}

func TestDeltaFallbackWhenHistoryPruned(t *testing.T) {
	engine, srv := newServerRig(t)
	srv.Store().(*store.Store).SetHistoryLimit(2)
	srv.Store().Create(paddedCounter("d2"))
	u := urn.MustParse("urn:rover:home/d2")
	r1 := newRig(t, "cli-1", engine, srv, nil)
	r2 := newRig(t, "cli-2", engine, srv, nil)

	wait(t, r1.am.Import(u, ImportOptions{}))
	for i := 0; i < 5; i++ {
		wait(t, r2.am.InvokeRemote(u, "add", []string{"1"}, qrpc.PriorityNormal))
	}
	// The server's retained window no longer reaches version 1: it ships
	// the full object and the client adopts it without a delta.
	obj := wait(t, r1.am.Import(u, ImportOptions{Revalidate: true}))
	if obj.Version != 6 {
		t.Fatalf("revalidated to version %d, want 6", obj.Version)
	}
	if v, _ := obj.Get("count"); v != "5" {
		t.Fatalf("count = %q, want 5", v)
	}
	st := r1.am.Stats()
	if st.DeltaImports != 0 || st.DeltaFallbacks != 0 {
		t.Fatalf("stats %+v: pruned history is a server-side full reply, not a client fallback", st)
	}
}

func TestDeltaFallbackWhenReplayNeedsServerEnv(t *testing.T) {
	// The delta's ops replay in the client's sandbox. A method that uses a
	// server-only host command (rover.getstate) executes fine at the
	// server but fails on replay — the client must fall back to a full
	// import, transparently.
	engine, srv := newServerRig(t)
	o := rdo.New(urn.MustParse("urn:rover:home/d3"), "peeker")
	o.Code = `
		proc bump {} {
			state set seen [rover.getstate urn:rover:home/d3 count 0]
			state set count [expr {[state get count 0] + 1}]
		}
		proc get {} { state get count 0 }
	`
	o.Set("pad", strings.Repeat("bulk state a delta need not resend ", 40))
	srv.Store().Create(o)
	u := o.URN
	r1 := newRig(t, "cli-1", engine, srv, nil)
	r2 := newRig(t, "cli-2", engine, srv, nil)

	wait(t, r1.am.Import(u, ImportOptions{}))
	wait(t, r2.am.InvokeRemote(u, "bump", nil, qrpc.PriorityNormal))
	obj := wait(t, r1.am.Import(u, ImportOptions{Revalidate: true}))
	if obj.Version != 2 {
		t.Fatalf("revalidated to version %d, want 2", obj.Version)
	}
	if v, _ := obj.Get("count"); v != "1" {
		t.Fatalf("count = %q, want 1", v)
	}
	st := r1.am.Stats()
	if st.DeltaImports != 0 || st.DeltaFallbacks != 1 {
		t.Fatalf("stats %+v: want one transparent fallback to a full import", st)
	}
}

// TestFutureDeltaFallbackResolvesOnce drives the client-side delta fallback
// through Import: the server answers a revalidation with a delta the cache
// cannot replay, the client re-imports with HaveVersion 0 for the same
// future, and that future resolves once, with the full object, after two
// imports went out.
func TestFutureDeltaFallbackResolvesOnce(t *testing.T) {
	engine, srv := newServerRig(t)
	o := rdo.New(urn.MustParse("urn:rover:home/d4"), "peeker")
	o.Code = `
		proc bump {} {
			state set seen [rover.getstate urn:rover:home/d4 count 0]
			state set count [expr {[state get count 0] + 1}]
		}
	`
	o.Set("pad", strings.Repeat("bulk state a delta need not resend ", 40))
	srv.Store().Create(o)
	u := o.URN
	r1 := newRig(t, "cli-1", engine, srv, nil)
	r2 := newRig(t, "cli-2", engine, srv, nil)
	wait(t, r1.am.Import(u, ImportOptions{}))
	wait(t, r2.am.InvokeRemote(u, "bump", nil, qrpc.PriorityNormal))

	sent, replies := r1.am.Stats().ImportsSent, r1.am.cfg.Engine.Stats().Replies
	f := r1.am.Import(u, ImportOptions{Revalidate: true})
	var mu sync.Mutex
	fired := 0
	f.OnReady(func(*rdo.Object, error) {
		mu.Lock()
		fired++
		mu.Unlock()
	})
	obj := wait(t, f)
	if obj.Version != 2 {
		t.Fatalf("resolved at version %d, want the full object at 2", obj.Version)
	}
	if v, _ := obj.Get("count"); v != "1" {
		t.Fatalf("count = %q, want 1", v)
	}
	st := r1.am.Stats()
	if st.DeltaFallbacks != 1 || st.ImportsSent-sent != 2 {
		t.Fatalf("stats %+v: want one fallback and two imports sent", st)
	}
	if got := r1.am.cfg.Engine.Stats().Replies - replies; got != 2 {
		t.Fatalf("%d import replies arrived, want the delta and the full object", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if fired != 1 {
		t.Fatalf("the import's callback fired %d times, want once", fired)
	}
}

func TestApplyDeltaRejectsBaseMismatch(t *testing.T) {
	engine, srv := newServerRig(t)
	srv.Store().Create(paddedCounter("d4"))
	u := urn.MustParse("urn:rover:home/d4")
	r := newRig(t, "cli-1", engine, srv, nil)
	wait(t, r.am.Import(u, ImportOptions{})) // CommittedVersion 1

	op := rdo.Invocation{Object: u, Method: "add", Args: []string{"1"}}
	// FromVersion does not match the cached committed version.
	if _, ok := r.am.applyDelta(u, &proto.ImportReply{
		Delta: true, FromVersion: 3, NewVersion: 4, Ops: []rdo.Invocation{op},
	}); ok {
		t.Fatal("delta with mismatched base applied")
	}
	// Non-advancing delta.
	if _, ok := r.am.applyDelta(u, &proto.ImportReply{
		Delta: true, FromVersion: 1, NewVersion: 1, Ops: []rdo.Invocation{op},
	}); ok {
		t.Fatal("non-advancing delta applied")
	}
	// Matching base but wrong checksum: replay succeeds, adoption must not.
	if _, ok := r.am.applyDelta(u, &proto.ImportReply{
		Delta: true, FromVersion: 1, NewVersion: 2, Ops: []rdo.Invocation{op}, Check: 0xDEADBEEF,
	}); ok {
		t.Fatal("delta with wrong checksum applied")
	}
	// No cache entry at all.
	ghost := urn.MustParse("urn:rover:home/ghost")
	if _, ok := r.am.applyDelta(ghost, &proto.ImportReply{
		Delta: true, FromVersion: 1, NewVersion: 2, Ops: []rdo.Invocation{op},
	}); ok {
		t.Fatal("delta for an uncached object applied")
	}
	// None of the rejections should have moved the cache.
	obj := wait(t, r.am.Import(u, ImportOptions{}))
	if obj.Version != 1 {
		t.Fatalf("cache moved to version %d by rejected deltas", obj.Version)
	}
}

func TestDeltaRebasesTentativeOps(t *testing.T) {
	// A delta adoption must behave exactly like a full-object adoption for
	// local tentative state: pending invocations rebase onto the new
	// committed copy.
	engine, srv := newServerRig(t)
	srv.Store().Create(paddedCounter("d5"))
	u := urn.MustParse("urn:rover:home/d5")
	r1 := newRig(t, "cli-1", engine, srv, func(c *Config) { c.AutoExport = false })
	r2 := newRig(t, "cli-2", engine, srv, nil)

	wait(t, r1.am.Import(u, ImportOptions{}))
	// Local tentative op (AutoExport off keeps it pending).
	if _, err := r1.am.Invoke(u, "add", "100"); err != nil {
		t.Fatal(err)
	}
	// Remote commit advances the server.
	wait(t, r2.am.InvokeRemote(u, "add", []string{"5"}, qrpc.PriorityNormal))
	obj := wait(t, r1.am.Import(u, ImportOptions{Revalidate: true, Tentative: AcceptTentative}))
	if st := r1.am.Stats(); st.DeltaImports != 1 {
		t.Fatalf("stats %+v: want a delta import", st)
	}
	// Committed 5 + rebased tentative 100.
	if v, _ := obj.Get("count"); v != "105" {
		t.Fatalf("count = %q, want tentative 100 rebased over committed 5", v)
	}
	if !r1.am.Tentative(u) {
		t.Error("tentative flag lost across delta adoption")
	}
}
