package access

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rover/internal/cache"
	"rover/internal/proto"
	"rover/internal/qrpc"
	"rover/internal/rdo"
	"rover/internal/urn"
	"rover/internal/wire"
)

// folderObj and calendarObj carry the method suites of the mail and
// calendar applications (internal/apps, which this package cannot import).
func folderObj(path string) *rdo.Object {
	o := rdo.New(urn.MustParse("urn:rover:home/"+path), "mailfolder")
	o.Code = `
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
		proc ids {} { state get order {} }
	`
	return o
}

func calendarObj(path string) *rdo.Object {
	o := rdo.New(urn.MustParse("urn:rover:home/"+path), "calendar")
	o.Code = `
		proc schedule {slot owner title} {
			if {[state exists s$slot]} { error "slot $slot taken: [state get s$slot]" }
			state set s$slot "$owner\x1f$title"
		}
		proc cancel {slot owner} {
			if {![state exists s$slot]} { error "slot $slot is free" }
			state unset s$slot
		}
		proc count {} { state size }
	`
	return o
}

// entryOf snapshots u's cache entry under the manager lock.
func entryOf(t *testing.T, am *AccessManager, u urn.URN) cache.Entry {
	t.Helper()
	am.mu.Lock()
	defer am.mu.Unlock()
	e, ok := am.cache.Peek(u)
	if !ok {
		t.Fatalf("%s not cached", u)
	}
	return *e
}

// requireCacheIsStore: the cached object is the store's, byte for byte.
func requireCacheIsStore(t *testing.T, r *rig, u urn.URN) {
	t.Helper()
	cached := wait(t, r.am.Import(u, ImportOptions{}))
	stored, err := r.srv.Store().Get(u)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cached.Encode(), stored.Encode()) {
		t.Fatalf("cache and store disagree on %s:\n cache v%d %v\n store v%d %v",
			u, cached.Version, cached.State, stored.Version, stored.State)
	}
}

// TestLeanExportFastPath: a clean export is answered without the object,
// and the client promotes the working copy it holds — same object, same
// interpreter — for counter, mail-folder and calendar objects alike.
func TestLeanExportFastPath(t *testing.T) {
	engine, srv := newServerRig(t)
	r := newRig(t, "cli-1", engine, srv, func(c *Config) { c.AutoExport = false })
	const rounds = 8
	cases := []struct {
		obj  *rdo.Object
		op   func(i int) (string, []string)
		read string
	}{
		{counterObj("lean/ctr"), func(i int) (string, []string) { return "add", []string{fmt.Sprint(i + 1)} }, "get"},
		{folderObj("lean/inbox"), func(i int) (string, []string) {
			if i%2 == 0 {
				return "addmsg", []string{fmt.Sprint(i), "alice|lunch " + fmt.Sprint(i)}
			}
			return "setflag", []string{fmt.Sprint(i - 1), "S"}
		}, "ids"},
		{calendarObj("lean/cal"), func(i int) (string, []string) {
			if i%3 == 2 {
				return "cancel", []string{fmt.Sprint(i - 1), "me"}
			}
			return "schedule", []string{fmt.Sprint(i), "me", "standup"}
		}, "count"},
	}
	for _, c := range cases {
		srv.Store().Create(c.obj)
		u := c.obj.URN
		wait(t, r.am.Import(u, ImportOptions{}))
		if _, err := r.am.Invoke(u, c.read); err != nil {
			t.Fatal(err)
		}
		first := entryOf(t, r.am, u)
		if first.Env == nil {
			t.Fatal("no env after an Invoke")
		}
		for i := 0; i < rounds; i++ {
			method, args := c.op(i)
			if _, err := r.am.Invoke(u, method, args...); err != nil {
				t.Fatalf("%s %v: %v", method, args, err)
			}
			f, err := r.am.Export(u, qrpc.PriorityNormal)
			if err != nil {
				t.Fatal(err)
			}
			if res := wait(t, f); res.Outcome != proto.OutcomeCommitted || res.NewVersion != uint64(i+2) {
				t.Fatalf("export %d of %s: %+v", i, u, res)
			}
			e := entryOf(t, r.am, u)
			if e.Obj != first.Obj || e.Env != first.Env {
				t.Fatalf("export %d of %s rebuilt the entry: obj %p→%p env %p→%p", i, u, first.Obj, e.Obj, first.Env, e.Env)
			}
			if e.Tentative || e.Committed != nil || len(e.PendingOps) != 0 || e.ExportInFlight ||
				e.CommittedVersion != uint64(i+2) || e.Obj.Version != uint64(i+2) {
				t.Fatalf("export %d of %s left %+v", i, u, e)
			}
			requireCacheIsStore(t, r, u)
		}
	}
	want := int64(rounds * len(cases))
	if st := r.am.Stats(); st.LeanExports != want || st.ExportRefetches != 0 {
		t.Fatalf("client stats %+v, want %d lean exports", st, want)
	}
	if st := srv.Stats(); st.LeanReplies != want {
		t.Fatalf("server stats %+v, want %d lean replies", st, want)
	}
	if got, wantBytes := r.am.CacheStats().Bytes, cachedBytes(t, r.am, cases[0].obj.URN, cases[1].obj.URN, cases[2].obj.URN); got != wantBytes {
		t.Fatalf("cache accounts %d bytes, its objects estimate to %d", got, wantBytes)
	}
}

func cachedBytes(t *testing.T, am *AccessManager, us ...urn.URN) int64 {
	t.Helper()
	var n int64
	for _, u := range us {
		n += int64(entryOf(t, am, u).Obj.SizeEstimate())
	}
	return n
}

// TestLeanExportHandlerAllocs: settling a lean reply on the fast path
// costs less than building the interpreter it keeps.
func TestLeanExportHandlerAllocs(t *testing.T) {
	engine, srv := newServerRig(t)
	srv.Store().Create(counterObj("allocs"))
	u := urn.MustParse("urn:rover:home/allocs")
	r := newRig(t, "cli-1", engine, srv, func(c *Config) { c.AutoExport = false })
	obj := wait(t, r.am.Import(u, ImportOptions{}))
	if _, err := r.am.Invoke(u, "add", "1"); err != nil {
		t.Fatal(err)
	}
	r.am.mu.Lock()
	e, _ := r.am.cache.Peek(u)
	r.am.mu.Unlock()
	pending, pristine, env := e.PendingOps, e.Committed, e.Env
	lean := wire.Marshal(&proto.ExportReply{Outcome: proto.OutcomeCommitted, NewVersion: 2})
	fut := new(Future[ExportResult])

	handler := testing.AllocsPerRun(100, func() {
		// The state Export leaves behind, restored by hand so that only
		// the handler is measured.
		e.Obj.Version, e.CommittedVersion = 1, 1
		e.PendingOps, e.Committed, e.Tentative = pending, pristine, true
		e.ExportInFlight, e.InFlightCount, e.ExportBase = true, 1, 1
		r.am.onExportReply(u, fut, lean, nil)
	})
	if e.Env != env || e.Tentative || e.CommittedVersion != 2 {
		t.Fatalf("fast path did not run: %+v", e)
	}
	newEnv := testing.AllocsPerRun(100, func() {
		if _, err := r.am.newEnvLocked(obj); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("handler %.1f allocs, NewEnv %.1f", handler, newEnv)
	if handler >= newEnv/2 {
		t.Fatalf("lean reply handler allocates %.1f objects; NewEnv alone is %.1f", handler, newEnv)
	}
}

// TestLeanExportReplayPath: operations invoked while an export is in
// flight — by hand and by an AutoExport chain — take the replay path: the
// committed copy is rebuilt from the pristine one plus the in-flight
// operations, verified, and the rest rebased on top.
func TestLeanExportReplayPath(t *testing.T) {
	for _, auto := range []bool{false, true} {
		t.Run(fmt.Sprintf("auto=%v", auto), func(t *testing.T) {
			engine, srv := newServerRig(t)
			srv.Store().Create(counterObj("replay"))
			u := urn.MustParse("urn:rover:home/replay")
			r := newRig(t, "cli-1", engine, srv, func(c *Config) { c.AutoExport = auto })
			wait(t, r.am.Import(u, ImportOptions{}))

			r.pipe.SetConnected(false)
			if _, err := r.am.Invoke(u, "add", "1"); err != nil {
				t.Fatal(err)
			}
			if !auto {
				if _, err := r.am.Export(u, qrpc.PriorityNormal); err != nil {
					t.Fatal(err)
				}
			}
			before := entryOf(t, r.am, u)
			if !before.ExportInFlight || before.InFlightCount != 1 || before.ExportBase != 1 {
				t.Fatalf("export not in flight: %+v", before)
			}
			// Two more land behind the in-flight export.
			for _, n := range []string{"10", "100"} {
				if _, err := r.am.Invoke(u, "add", n); err != nil {
					t.Fatal(err)
				}
			}
			r.pipe.SetConnected(true)
			waitUntil(t, func() bool { return !entryOf(t, r.am, u).ExportInFlight })
			if !auto {
				mid := entryOf(t, r.am, u)
				if mid.Obj == before.Obj {
					t.Fatal("replay path kept the old working copy")
				}
				if mid.CommittedVersion != 2 || !mid.Tentative || len(mid.PendingOps) != 2 || mid.Committed == nil {
					t.Fatalf("after the first commit: %+v", mid)
				}
				if v, _ := mid.Committed.Get("count"); v != "1" {
					t.Fatalf("committed copy count %q, want 1", v)
				}
				if v, _ := mid.Obj.Get("count"); v != "111" {
					t.Fatalf("working copy count %q, want 111", v)
				}
				f, err := r.am.Export(u, qrpc.PriorityNormal)
				if err != nil {
					t.Fatal(err)
				}
				wait(t, f)
			}
			waitUntil(t, func() bool { return !r.am.Tentative(u) })
			requireCacheIsStore(t, r, u)
			got, _ := srv.Store().Get(u)
			if v, _ := got.Get("count"); v != "111" || got.Version != 3 {
				t.Fatalf("server count %q v%d", v, got.Version)
			}
			if st := r.am.Stats(); st.LeanExports != 2 || st.ExportRefetches != 0 || st.ImportsSent != 1 {
				t.Fatalf("client stats %+v", st)
			}
			if st := srv.Stats(); st.LeanReplies != 2 {
				t.Fatalf("server stats %+v", st)
			}
		})
	}
}

// TestLeanExportDivergedReplay: a method that behaves differently at the
// server (it reads server-only state behind a catch) commits there to a
// state the client did not predict. The checksum catches it: the reply
// carries the object and the client adopts the server's state.
func TestLeanExportDivergedReplay(t *testing.T) {
	engine, srv := newServerRig(t)
	other := rdo.New(urn.MustParse("urn:rover:home/rate"), "config")
	other.Set("rate", "42")
	srv.Store().Create(other)
	o := rdo.New(urn.MustParse("urn:rover:home/peeker"), "peeker")
	o.Code = `
		proc bump {} {
			set rate 0
			catch {set rate [rover.getstate urn:rover:home/rate rate]}
			state set rate $rate
			state set count [expr {[state get count 0] + 1}]
		}
	`
	srv.Store().Create(o)
	u := o.URN
	r := newRig(t, "cli-1", engine, srv, func(c *Config) { c.AutoExport = false })
	wait(t, r.am.Import(u, ImportOptions{}))
	if _, err := r.am.Invoke(u, "bump"); err != nil {
		t.Fatal(err)
	}
	if v, _ := entryOf(t, r.am, u).Obj.Get("rate"); v != "0" {
		t.Fatalf("client-side rate %q, want 0", v)
	}
	f, err := r.am.Export(u, qrpc.PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	if res := wait(t, f); res.Outcome != proto.OutcomeCommitted || res.NewVersion != 2 {
		t.Fatalf("export: %+v", res)
	}
	requireCacheIsStore(t, r, u)
	if v, _ := entryOf(t, r.am, u).Obj.Get("rate"); v != "42" {
		t.Fatalf("rate %q after the export, want the server's 42", v)
	}
	if st := r.am.Stats(); st.LeanExports != 0 || st.ExportRefetches != 0 || st.ImportsSent != 1 {
		t.Fatalf("client stats %+v", st)
	}
	if st := srv.Stats(); st.LeanReplies != 0 {
		t.Fatalf("server stats %+v", st)
	}
}

// TestLeanExportResolvedCarriesObject: an export on a stale base is merged
// by the resolver; the reply carries the object however good the guess.
func TestLeanExportResolvedCarriesObject(t *testing.T) {
	engine, srv := newServerRig(t)
	srv.Store().Create(counterObj("res"))
	u := urn.MustParse("urn:rover:home/res")
	r1 := newRig(t, "cli-1", engine, srv, nil)
	r2 := newRig(t, "cli-2", engine, srv, nil)
	wait(t, r1.am.Import(u, ImportOptions{}))
	wait(t, r2.am.Import(u, ImportOptions{}))
	r2.pipe.SetConnected(false)
	if _, err := r2.am.Invoke(u, "add", "7"); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.am.Invoke(u, "add", "3"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return !r1.am.Tentative(u) })
	r2.pipe.SetConnected(true)
	waitUntil(t, func() bool { return !r2.am.Tentative(u) })
	requireCacheIsStore(t, r2, u)
	if st := r2.am.Stats(); st.LeanExports != 0 || st.ExportRefetches != 0 {
		t.Fatalf("resolved export counted lean: %+v", st)
	}
	if st := srv.Stats(); st.LeanReplies != 1 { // r1's clean commit only
		t.Fatalf("server stats %+v", st)
	}
}

// TestLeanExportUnusableReplyRefetches: replies the cache cannot use are
// counted and answered with a revalidating import — never a cache left
// silently at the old version with nothing queued.
func TestLeanExportUnusableReplyRefetches(t *testing.T) {
	setup := func(t *testing.T) (*rig, urn.URN) {
		engine, srv := newServerRig(t)
		srv.Store().Create(counterObj("unusable"))
		u := urn.MustParse("urn:rover:home/unusable")
		r := newRig(t, "cli-1", engine, srv, func(c *Config) { c.AutoExport = false })
		wait(t, r.am.Import(u, ImportOptions{}))
		if _, err := r.am.Invoke(u, "add", "5"); err != nil {
			t.Fatal(err)
		}
		return r, u
	}
	// settle puts the export in flight without sending it, commits the
	// operation at the server behind the client's back (as if the real
	// reply were lost) and hands the reply handler `reply` instead.
	settle := func(t *testing.T, r *rig, u urn.URN, tamper func(e *cache.Entry), reply *proto.ExportReply) {
		t.Helper()
		r.am.mu.Lock()
		e, _ := r.am.cache.Peek(u)
		r.am.beginExportLocked(u, e, new(wire.Buffer))
		if tamper != nil {
			tamper(e)
		}
		r.am.mu.Unlock()
		w, _ := r.srv.Store().Get(u)
		w.Set("count", "5")
		if _, err := r.srv.Store().Commit(w, 1); err != nil {
			t.Fatal(err)
		}
		r.am.onExportReply(u, new(Future[ExportResult]), wire.Marshal(reply), nil)
	}
	check := func(t *testing.T, r *rig, u urn.URN) {
		t.Helper()
		if st := r.am.Stats(); st.ExportRefetches != 1 || st.LeanExports != 0 {
			t.Fatalf("stats %+v, want one counted refetch", st)
		}
		waitUntil(t, func() bool {
			e := entryOf(t, r.am, u)
			return e.CommittedVersion >= 2 && !e.Tentative
		})
	}

	t.Run("undecodable object", func(t *testing.T) {
		r, u := setup(t)
		settle(t, r, u, nil, &proto.ExportReply{Outcome: proto.OutcomeCommitted, NewVersion: 2, Object: []byte{0xff, 0xff, 0xff}})
		check(t, r, u)
	})
	t.Run("version mismatch", func(t *testing.T) {
		r, u := setup(t)
		settle(t, r, u, nil, &proto.ExportReply{Outcome: proto.OutcomeCommitted, NewVersion: 7})
		check(t, r, u)
	})
	t.Run("entry re-imported mid-flight", func(t *testing.T) {
		r, u := setup(t)
		settle(t, r, u, func(e *cache.Entry) {
			// What adopting a fresh committed copy does to the entry.
			r.am.adoptCommittedLocked(e.Committed.Clone())
		}, &proto.ExportReply{Outcome: proto.OutcomeCommitted, NewVersion: 2})
		check(t, r, u)
	})
	t.Run("empty reply for a resolved outcome", func(t *testing.T) {
		r, u := setup(t)
		settle(t, r, u, nil, &proto.ExportReply{Outcome: proto.OutcomeResolved, NewVersion: 2})
		check(t, r, u)
	})
	t.Run("replay disagrees with the checksum", func(t *testing.T) {
		r, u := setup(t)
		r.am.mu.Lock()
		r.am.cfg.AutoExport = true
		r.am.mu.Unlock()
		// A second op queued behind the export forces the replay path; a
		// wrong remembered checksum makes its verification fail.
		settle(t, r, u, func(e *cache.Entry) {
			e.ExportCheck++
			e.PendingOps = append(e.PendingOps, rdo.Invocation{Object: u, Method: "add", Args: []string{"1"}, BaseVer: 1})
		}, &proto.ExportReply{Outcome: proto.OutcomeCommitted, NewVersion: 2})
		if st := r.am.Stats(); st.ExportRefetches != 1 || st.LeanExports != 0 {
			t.Fatalf("stats %+v", st)
		}
		// The op behind the export survives the refetch and is exported
		// once the committed copy is current — on version 2, so cleanly.
		waitUntil(t, func() bool { return entryOf(t, r.am, u).CommittedVersion == 3 && !r.am.Tentative(u) })
		requireCacheIsStore(t, r, u)
		got, _ := r.srv.Store().Get(u)
		if v, _ := got.Get("count"); v != "6" {
			t.Fatalf("server count %q, want 6", v)
		}
		if st := r.am.Stats(); st.LeanExports != 1 || st.Conflicts != 0 {
			t.Fatalf("stats %+v: the chained export should have committed cleanly", st)
		}
	})
}

// TestLeanExportInFlightOpDroppedByRebase: a committed copy adopted while
// an export is in flight can invalidate one of the operations riding it.
// The entry keeps counting the operations that are still there, so the
// reply trims exactly those — it used to slice past the end.
func TestLeanExportInFlightOpDroppedByRebase(t *testing.T) {
	engine, srv := newServerRig(t)
	srv.Store().Create(calendarObj("rebase/cal"))
	u := urn.MustParse("urn:rover:home/rebase/cal")
	r := newRig(t, "cli-1", engine, srv, func(c *Config) { c.AutoExport = false })
	wait(t, r.am.Import(u, ImportOptions{}))
	for _, slot := range []string{"mon-9", "tue-9"} {
		if _, err := r.am.Invoke(u, "schedule", slot, "me", "dentist"); err != nil {
			t.Fatal(err)
		}
	}
	r.am.mu.Lock()
	e, _ := r.am.cache.Peek(u)
	r.am.beginExportLocked(u, e, new(wire.Buffer))
	r.am.mu.Unlock()
	// Behind the in-flight export: one more booking.
	if _, err := r.am.Invoke(u, "schedule", "wed-9", "me", "dentist"); err != nil {
		t.Fatal(err)
	}
	// Somebody else took mon-9; a revalidation brings that state in.
	theirs, _ := srv.Store().Get(u)
	theirs.Set("smon-9", "them\x1fstandup")
	if _, err := srv.Store().Commit(theirs, 1); err != nil {
		t.Fatal(err)
	}
	wait(t, r.am.Import(u, ImportOptions{Revalidate: true}))
	mid := entryOf(t, r.am, u)
	if mid.InFlightCount != 1 || len(mid.PendingOps) != 2 || mid.ExportBase != 0 {
		t.Fatalf("after the rebase: %+v", mid)
	}
	// The export's verdict arrives: rejected, with the server's object.
	cur, _ := srv.Store().Get(u)
	r.am.onExportReply(u, new(Future[ExportResult]), wire.Marshal(&proto.ExportReply{
		Outcome: proto.OutcomeConflict, NewVersion: cur.Version, Object: cur.Encode(), Message: "slot taken",
	}), nil)
	after := entryOf(t, r.am, u)
	if len(after.PendingOps) != 1 || after.PendingOps[0].Args[0] != "wed-9" || !after.Tentative {
		t.Fatalf("after the reply: %+v", after)
	}
}

// TestEnvEvictCollectable: an environment lives on its cache entry, so an
// evicted object — interpreter included — becomes garbage. (It used to
// stay reachable forever through a map eviction never told.)
func TestEnvEvictCollectable(t *testing.T) {
	engine, srv := newServerRig(t)
	const n = 24
	pad := strings.Repeat("x", 2000)
	for i := 0; i < n; i++ {
		o := counterObj(fmt.Sprintf("evict/%d", i))
		o.Set("pad", pad)
		srv.Store().Create(o)
	}
	// Room for about three objects.
	r := newRig(t, "cli-1", engine, srv, func(c *Config) { c.CacheBytes = 8000; c.AutoExport = false })
	var freed atomic.Int64
	for i := 0; i < n; i++ {
		u := urn.MustParse(fmt.Sprintf("urn:rover:home/evict/%d", i))
		wait(t, r.am.Import(u, ImportOptions{}))
		// Alternate a read-only call and a committed write: both leave an
		// env behind on a clean entry.
		if i%2 == 0 {
			if _, err := r.am.Invoke(u, "get"); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := r.am.Invoke(u, "add", "1"); err != nil {
				t.Fatal(err)
			}
			f, err := r.am.Export(u, qrpc.PriorityNormal)
			if err != nil {
				t.Fatal(err)
			}
			wait(t, f)
		}
		r.am.mu.Lock()
		e, _ := r.am.cache.Peek(u)
		if e.Env == nil {
			t.Fatal("no env on the entry")
		}
		runtime.SetFinalizer(e.Obj, func(*rdo.Object) { freed.Add(1) })
		r.am.mu.Unlock()
	}
	evicted := r.am.CacheStats().Evictions
	if evicted < n-4 {
		t.Fatalf("only %d of %d objects evicted; the test needs a small cache", evicted, n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for freed.Load() < evicted && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got < evicted {
		t.Fatalf("%d objects evicted, only %d collected", evicted, got)
	}
}
