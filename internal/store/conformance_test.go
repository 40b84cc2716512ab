package store_test

// Backend conformance: every store.Backend implementation must pass the
// same behavioral suite, so the QRPC server, replication, and gateway can
// treat the in-memory map and the disk-backed segment store as
// interchangeable. The suite runs each check against both backends.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"rover/internal/rdo"
	"rover/internal/store"
	"rover/internal/store/disk"
	"rover/internal/urn"
)

// backends returns one factory per Backend implementation.
func backends(t *testing.T) map[string]func() store.Backend {
	return map[string]func() store.Backend{
		"memory": func() store.Backend { return store.New() },
		"disk": func() store.Backend {
			s, err := disk.Open(disk.Options{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		},
	}
}

func forEachBackend(t *testing.T, run func(t *testing.T, st store.Backend)) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) { run(t, mk()) })
	}
}

// wasCommitted is st.WasCommitted for a history that must read back.
func wasCommitted(t *testing.T, st store.Backend, u urn.URN, base uint64, invs []rdo.Invocation, src string) bool {
	t.Helper()
	seen, err := st.WasCommitted(u, base, invs, src)
	if err != nil {
		t.Fatal(err)
	}
	return seen
}

func confObj(path string) *rdo.Object {
	o := rdo.New(urn.MustParse("urn:rover:conf/"+path), "t")
	o.Set("k", path)
	return o
}

func TestConformanceCreateGetClone(t *testing.T) {
	forEachBackend(t, func(t *testing.T, st store.Backend) {
		o := confObj("a")
		if err := st.Create(o); err != nil {
			t.Fatal(err)
		}
		if err := st.Create(confObj("a")); !errors.Is(err, store.ErrExists) {
			t.Fatalf("double create: %v", err)
		}
		got, err := st.Get(o.URN)
		if err != nil {
			t.Fatal(err)
		}
		if got.Version != 1 {
			t.Fatalf("created at v%d", got.Version)
		}
		// Returned objects are clones: mutating one must not leak back.
		got.Set("k", "mutated")
		again, _ := st.Get(o.URN)
		if v, _ := again.Get("k"); v != "a" {
			t.Fatalf("clone leak: %q", v)
		}
		if _, err := st.Get(urn.MustParse("urn:rover:conf/absent")); !errors.Is(err, store.ErrNotFound) {
			t.Fatalf("absent get: %v", err)
		}
	})
}

func TestConformanceCommitVersionDiscipline(t *testing.T) {
	forEachBackend(t, func(t *testing.T, st store.Backend) {
		o := confObj("a")
		st.Create(o)
		cur, _ := st.Get(o.URN)
		cur.Set("k", "v2")
		ver, err := st.Commit(cur, 1)
		if err != nil || ver != 2 {
			t.Fatalf("commit: v%d, %v", ver, err)
		}
		// Stale expect fails; state is untouched.
		if _, err := st.Commit(cur, 1); err == nil {
			t.Fatal("stale commit accepted")
		}
		if v, _ := st.Version(o.URN); v != 2 {
			t.Fatalf("version %d after failed commit", v)
		}
		if _, err := st.Commit(confObj("absent"), 1); !errors.Is(err, store.ErrNotFound) {
			t.Fatalf("commit absent: %v", err)
		}
	})
}

func TestConformanceOpsHistoryAndDeltas(t *testing.T) {
	forEachBackend(t, func(t *testing.T, st store.Backend) {
		o := confObj("a")
		st.Create(o)
		var invs []rdo.Invocation
		for i := 0; i < 3; i++ {
			cur, _ := st.Get(o.URN)
			inv := rdo.Invocation{Object: o.URN, Method: "m", Args: []string{fmt.Sprint(i)}}
			invs = append(invs, inv)
			if _, err := st.CommitOpsBy(cur, cur.Version, []rdo.Invocation{inv}, "cli"); err != nil {
				t.Fatal(err)
			}
		}
		ops, newVer, _, ok := st.OpsSince(o.URN, 1)
		if !ok || newVer != 4 || len(ops) != 3 {
			t.Fatalf("OpsSince(1): %d ops to v%d ok=%v", len(ops), newVer, ok)
		}
		for i := range ops {
			if ops[i].Args[0] != fmt.Sprint(i) {
				t.Fatalf("ops out of order: %v", ops)
			}
		}
		// Redelivery detection.
		if !wasCommitted(t, st, o.URN, 1, invs[:1], "cli") {
			t.Fatal("WasCommitted missed a committed export")
		}
		if wasCommitted(t, st, o.URN, 1, invs[:1], "other") {
			t.Fatal("WasCommitted matched the wrong source")
		}
		// A plain Commit is an opaque jump: deltas over it must refuse.
		cur, _ := st.Get(o.URN)
		st.Commit(cur, cur.Version)
		if _, _, _, ok := st.OpsSince(o.URN, 1); ok {
			t.Fatal("delta served across an opaque jump")
		}
		// Current-version ask: nothing to serve, ok with zero ops.
		if ops, _, _, ok := st.OpsSince(o.URN, 5); ok && len(ops) != 0 {
			t.Fatalf("OpsSince(current) served %d ops", len(ops))
		}
	})
}

// TestConformanceHistoryLimitDisable runs on the in-memory store only: it
// alone keeps a history window it can be told to drop, while the disk
// store reads its window from the segment.
func TestConformanceHistoryLimitDisable(t *testing.T) {
	t.Run("memory", func(t *testing.T) {
		st := store.New()
		o := confObj("a")
		st.Create(o)
		st.SetHistoryLimit(-1)
		cur, _ := st.Get(o.URN)
		inv := rdo.Invocation{Object: o.URN, Method: "m"}
		if _, err := st.CommitOpsBy(cur, 1, []rdo.Invocation{inv}, "cli"); err != nil {
			t.Fatal(err)
		}
		if _, _, _, ok := st.OpsSince(o.URN, 1); ok {
			t.Fatal("delta served with history disabled")
		}
	})
}

func TestConformanceInstallFamily(t *testing.T) {
	forEachBackend(t, func(t *testing.T, st store.Backend) {
		var events int
		st.SetOnApply(func(store.ApplyEvent) { events++ })
		o := confObj("a")
		st.Create(o) // 1 event
		// InstallOps: same transition as CommitOpsBy, no observer echo.
		cur, _ := st.Get(o.URN)
		inv := rdo.Invocation{Object: o.URN, Method: "m"}
		if _, err := st.InstallOps(cur, 1, []rdo.Invocation{inv}, "peer-cli"); err != nil {
			t.Fatal(err)
		}
		if !wasCommitted(t, st, o.URN, 1, []rdo.Invocation{inv}, "peer-cli") {
			t.Fatal("installed ops not in history")
		}
		// InstallState: forward or equal versions land, regression refused.
		fresh := confObj("a")
		fresh.Version = 9
		if _, err := st.InstallState(fresh); err != nil {
			t.Fatal(err)
		}
		stale := confObj("a")
		stale.Version = 3
		if _, err := st.InstallState(stale); err == nil {
			t.Fatal("version regression installed")
		}
		if v, _ := st.Version(o.URN); v != 9 {
			t.Fatalf("version %d after installs", v)
		}
		if events != 1 {
			t.Fatalf("install family fired the observer: %d events", events)
		}
	})
}

func TestConformanceObserverOrder(t *testing.T) {
	forEachBackend(t, func(t *testing.T, st store.Backend) {
		var got []store.ApplyEvent
		st.SetOnApply(func(ev store.ApplyEvent) { got = append(got, ev) })
		o := confObj("a")
		st.Create(o)
		cur, _ := st.Get(o.URN)
		inv := rdo.Invocation{Object: o.URN, Method: "m"}
		st.CommitOpsBy(cur, 1, []rdo.Invocation{inv}, "cli")
		cur, _ = st.Get(o.URN)
		st.Commit(cur, 2)
		kinds := []store.ApplyKind{store.ApplyState, store.ApplyOps, store.ApplyState}
		if len(got) != len(kinds) {
			t.Fatalf("%d events, want %d", len(got), len(kinds))
		}
		for i, ev := range got {
			if ev.Kind != kinds[i] {
				t.Fatalf("event %d kind %v, want %v", i, ev.Kind, kinds[i])
			}
		}
		if got[1].Src != "cli" || len(got[1].Invs) != 1 {
			t.Fatalf("ops event %+v", got[1])
		}
		if got[2].PrevVersion != 2 || got[2].Version != 3 {
			t.Fatalf("state event versions %d->%d", got[2].PrevVersion, got[2].Version)
		}
	})
}

func TestConformanceListAndLen(t *testing.T) {
	forEachBackend(t, func(t *testing.T, st store.Backend) {
		for _, p := range []string{"m/1", "m/2", "n/1"} {
			if err := st.Create(confObj(p)); err != nil {
				t.Fatal(err)
			}
		}
		under := st.List(urn.MustParse("urn:rover:conf/m"))
		if len(under) != 2 || under[0].URN.String() > under[1].URN.String() {
			t.Fatalf("prefix list %v", under)
		}
		all := st.ListAll()
		if len(all) != 3 {
			t.Fatalf("list all %v", all)
		}
		for i := 1; i < len(all); i++ {
			if !all[i-1].URN.Less(all[i].URN) {
				t.Fatalf("unsorted list %v", all)
			}
		}
	})
}

func TestConformanceSnapshotParity(t *testing.T) {
	// Identical committed state must produce byte-identical snapshots on
	// every backend, and LoadSnapshot must transplant a population across
	// backends in both directions.
	mem := store.New()
	dsk, err := disk.Open(disk.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer dsk.Close()
	for i := 0; i < 10; i++ {
		o := confObj(fmt.Sprintf("p/%d", i))
		if err := mem.Create(o); err != nil {
			t.Fatal(err)
		}
		if err := dsk.Create(o); err != nil {
			t.Fatal(err)
		}
	}
	ms, ds := mem.Snapshot(), dsk.Snapshot()
	if !bytes.Equal(ms, ds) {
		t.Fatal("snapshot encodings diverge between backends")
	}
	mem2 := store.New()
	if err := mem2.LoadSnapshot(ds); err != nil {
		t.Fatal(err)
	}
	dsk2, err := disk.Open(disk.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer dsk2.Close()
	if err := dsk2.LoadSnapshot(ms); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mem2.Snapshot(), dsk2.Snapshot()) {
		t.Fatal("cross-backend load round-trip diverged")
	}
	// Loaded versions are opaque: no deltas across a snapshot load.
	u := urn.MustParse("urn:rover:conf/p/0")
	if _, _, _, ok := dsk2.OpsSince(u, 0); ok {
		t.Fatal("delta served across a snapshot load")
	}
}

func TestConformanceSnapshotAtomicUnderCommits(t *testing.T) {
	// The Snapshot contract: an atomic, canonical cut while commits run.
	// Every snapshot must decode, hold the full population, and repeated
	// snapshots of quiesced state must be byte-identical.
	forEachBackend(t, func(t *testing.T, st store.Backend) {
		const objects = 6
		for i := 0; i < objects; i++ {
			if err := st.Create(confObj(fmt.Sprintf("s/%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				u := urn.MustParse(fmt.Sprintf("urn:rover:conf/s/%d", n%objects))
				cur, err := st.Get(u)
				if err != nil {
					t.Error(err)
					return
				}
				cur.Set("n", fmt.Sprint(n))
				if _, err := st.Commit(cur, cur.Version); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for round := 0; round < 25; round++ {
			objs, err := store.DecodeSnapshot(st.Snapshot())
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if len(objs) != objects {
				t.Fatalf("round %d: %d objects in cut", round, len(objs))
			}
		}
		close(stop)
		<-done
		if !bytes.Equal(st.Snapshot(), st.Snapshot()) {
			t.Fatal("quiesced snapshots not deterministic")
		}
	})
}
