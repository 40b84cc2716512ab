package disk

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"rover/internal/rdo"
	"rover/internal/stable"
	"rover/internal/store"
	"rover/internal/urn"
	"rover/internal/wire"
)

func obj(path string) *rdo.Object {
	o := rdo.New(urn.MustParse("urn:rover:h/"+path), "t")
	o.Set("k", path)
	return o
}

// wasCommitted is s.WasCommitted for a history that must read back.
func wasCommitted(t testing.TB, s *Store, u urn.URN, base uint64, invs []rdo.Invocation, src string) bool {
	t.Helper()
	seen, err := s.WasCommitted(u, base, invs, src)
	if err != nil {
		t.Fatal(err)
	}
	return seen
}

func openStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	opts.Dir = dir
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRecoveryRebuildsIndexAndHistory(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	o := obj("a")
	if err := s.Create(o); err != nil {
		t.Fatal(err)
	}
	// Three ops commits (versions 2..4) and one plain commit on another URN.
	for i := 0; i < 3; i++ {
		cur, err := s.Get(o.URN)
		if err != nil {
			t.Fatal(err)
		}
		inv := rdo.Invocation{Object: o.URN, Method: "add", Args: []string{fmt.Sprint(i)}}
		if _, err := s.CommitOpsBy(cur, cur.Version, []rdo.Invocation{inv}, "cli"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Create(obj("b")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	if s2.Occupancy().Objects != 2 {
		t.Fatalf("recovered %d objects, want 2", s2.Occupancy().Objects)
	}
	got, err := s2.Get(o.URN)
	if err != nil || got.Version != 4 {
		t.Fatalf("recovered a at v%d, %v", got.Version, err)
	}
	if v, _ := got.Get("k"); v != "a" {
		t.Fatalf("state %q", v)
	}
	// History survived: deltas and redelivery detection still work.
	ops, newVer, _, ok := s2.OpsSince(o.URN, 1)
	if !ok || newVer != 4 || len(ops) != 3 {
		t.Fatalf("OpsSince after restart: %d ops to v%d ok=%v", len(ops), newVer, ok)
	}
	inv0 := rdo.Invocation{Object: o.URN, Method: "add", Args: []string{"0"}}
	if !wasCommitted(t, s2, o.URN, 1, []rdo.Invocation{inv0}, "cli") {
		t.Fatal("WasCommitted lost across restart")
	}
}

func TestColdGetFaultsInFromSegment(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{CacheBytes: 1}) // floor: nothing fits resident
	for i := 0; i < 10; i++ {
		if err := s.Create(obj(fmt.Sprintf("o/%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	occ := s.Occupancy()
	if occ.ResidentObjects != 0 || occ.ResidentBytes != 0 {
		t.Fatalf("cache over bound: %+v", occ)
	}
	for i := 0; i < 10; i++ {
		got, err := s.Get(urn.MustParse(fmt.Sprintf("urn:rover:h/o/%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := got.Get("k"); v != fmt.Sprintf("o/%d", i) {
			t.Fatalf("faulted state %q", v)
		}
	}
	if occ = s.Occupancy(); occ.ColdFaults != 10 {
		t.Fatalf("cold faults %d, want 10", occ.ColdFaults)
	}
}

func TestLRUBoundedAndHitsCounted(t *testing.T) {
	dir := t.TempDir()
	var one = obj("size-probe")
	perObj := int64(one.SizeEstimate())
	s := openStore(t, dir, Options{CacheBytes: 4 * perObj})
	for i := 0; i < 20; i++ {
		if err := s.Create(obj(fmt.Sprintf("s/%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	occ := s.Occupancy()
	if occ.ResidentBytes > 4*perObj {
		t.Fatalf("resident %d bytes over bound %d", occ.ResidentBytes, 4*perObj)
	}
	if occ.ResidentObjects == 0 {
		t.Fatal("nothing resident despite capacity")
	}
	// The most recently committed object must be a cache hit.
	if _, err := s.Get(urn.MustParse("urn:rover:h/s/19")); err != nil {
		t.Fatal(err)
	}
	if after := s.Occupancy(); after.CacheHits == 0 {
		t.Fatal("hot get did not count as a cache hit")
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	if err := s.Create(obj("keep")); err != nil {
		t.Fatal(err)
	}
	if err := s.Create(obj("torn")); err != nil {
		t.Fatal(err)
	}
	// A crash never writes Close's index footer, so simulate against the
	// segment as it stood at the last commit, not after the clean Close.
	preClose := s.Occupancy().SegmentBytes
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, SegmentName)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Chop into the final record: the crash-mid-commit signature.
	if err := os.WriteFile(seg, data[:preClose-5], 0o600); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	if !errors.Is(s2.TornTail(), stable.ErrTornTail) {
		t.Fatalf("TornTail = %v", s2.TornTail())
	}
	if s2.Occupancy().Objects != 1 {
		t.Fatalf("recovered %d objects, want 1 (torn create lost)", s2.Occupancy().Objects)
	}
	if _, err := s2.Get(urn.MustParse("urn:rover:h/keep")); err != nil {
		t.Fatal(err)
	}
	// The store keeps working after truncation.
	if err := s2.Create(obj("new")); err != nil {
		t.Fatal(err)
	}
}

func TestCompactionReclaimsAndPreservesState(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{CompactEvery: 8})
	o := obj("hot")
	if err := s.Create(o); err != nil {
		t.Fatal(err)
	}
	// Many updates to one object: mostly dead records → compaction fires.
	for i := 0; i < 100; i++ {
		cur, err := s.Get(o.URN)
		if err != nil {
			t.Fatal(err)
		}
		cur.Set("n", strconv.Itoa(i))
		inv := rdo.Invocation{Object: o.URN, Method: "set", Args: []string{strconv.Itoa(i)}}
		if _, err := s.CommitOpsBy(cur, cur.Version, []rdo.Invocation{inv}, "cli"); err != nil {
			t.Fatal(err)
		}
	}
	awaitCompaction(s)
	occ := s.Occupancy()
	if occ.Compactions == 0 {
		t.Fatalf("no compaction after 100 updates with CompactEvery=8: %+v", occ)
	}
	got, err := s.Get(o.URN)
	if err != nil || got.Version != 101 {
		t.Fatalf("post-compaction object v%d, %v", got.Version, err)
	}
	// History window survives compaction (persisted in the 'Z' record):
	// restart and ask for a recent delta.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	ops, newVer, _, ok := s2.OpsSince(o.URN, 95)
	if !ok || newVer != 101 || len(ops) != 6 {
		t.Fatalf("OpsSince(95) after compaction+restart: %d ops to v%d ok=%v", len(ops), newVer, ok)
	}
	// No compaction leftovers.
	if _, err := os.Stat(filepath.Join(dir, SegmentName+".compact")); !os.IsNotExist(err) {
		t.Fatal("orphaned .compact file left behind")
	}
}

func TestOrphanCompactFileRemovedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	if err := s.Create(obj("a")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	orphan := filepath.Join(dir, SegmentName+".compact")
	if err := os.WriteFile(orphan, []byte("junk from a crash mid-compaction"), 0o600); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan .compact not removed at open")
	}
	if s2.Occupancy().Objects != 1 {
		t.Fatalf("population damaged by orphan cleanup: %d", s2.Occupancy().Objects)
	}
}

func TestSnapshotMatchesMemoryBackend(t *testing.T) {
	dir := t.TempDir()
	ds := openStore(t, dir, Options{CacheBytes: 1}) // force the pread path
	ms := store.New()
	for i := 0; i < 25; i++ {
		o := obj(fmt.Sprintf("m/%02d", i))
		if err := ds.Create(o); err != nil {
			t.Fatal(err)
		}
		if err := ms.Create(o); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(ds.Snapshot(), ms.Snapshot()) {
		t.Fatal("disk snapshot diverges from memory snapshot for identical state")
	}
	// Round-trip into each other.
	ds2 := openStore(t, t.TempDir(), Options{})
	if err := ds2.LoadSnapshot(ms.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ds2.Snapshot(), ms.Snapshot()) {
		t.Fatal("LoadSnapshot round-trip diverged")
	}
	// The loaded population is durable: survive a reopen.
	ds2.Close()
	// ds2's Cleanup double-Close is fine; reopen its dir.
	dir2 := filepath.Dir(ds2.path)
	ds3 := openStore(t, dir2, Options{})
	if ds3.Occupancy().Objects != 25 {
		t.Fatalf("loaded snapshot not durable: %d objects after reopen", ds3.Occupancy().Objects)
	}
}

func TestUnpublishedDurableRecordReplaysAsCommitted(t *testing.T) {
	// A record that reached the segment but whose committer never returned
	// (crash between fsync and ack) is replayed by recovery; WasCommitted
	// must then recognize the redelivered export. Simulate by writing the
	// record straight into the segment with the store closed.
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	o := obj("x")
	if err := s.Create(o); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cur := o.Clone()
	cur.Version = 2
	inv := rdo.Invocation{Object: o.URN, Method: "book", Args: []string{"slot1"}, BaseVer: 1}
	seg, err := stable.OpenSegmentFile(filepath.Join(dir, SegmentName), stable.Options{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.AppendNoSync(recOf(encodeOps(new(wire.Buffer), o.URN, 1, 2, "client-9", []rdo.Invocation{inv}, cur, -1))); err != nil {
		t.Fatal(err)
	}
	seg.Close()

	s2 := openStore(t, dir, Options{})
	if v, _ := s2.Version(o.URN); v != 2 {
		t.Fatalf("replayed version %d, want 2", v)
	}
	if !wasCommitted(t, s2, o.URN, 1, []rdo.Invocation{inv}, "client-9") {
		t.Fatal("redelivered export not recognized after replay")
	}
}

func TestConcurrentCommitsSerializePerObject(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	o := obj("hot")
	o.Set("n", "0")
	if err := s.Create(o); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const per = 10
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < per; i++ {
				for {
					cur, err := s.Get(o.URN)
					if err != nil {
						done <- err
						return
					}
					v, _ := cur.Get("n")
					n, _ := strconv.Atoi(v)
					cur.Set("n", strconv.Itoa(n+1))
					if _, err := s.Commit(cur, cur.Version); err == nil {
						break
					}
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	got, _ := s.Get(o.URN)
	if v, _ := got.Get("n"); v != strconv.Itoa(workers*per) {
		t.Errorf("final n = %s, want %d", v, workers*per)
	}
	if got.Version != uint64(workers*per)+1 {
		t.Errorf("version %d", got.Version)
	}
}

func TestSnapshotConsistentUnderConcurrentCommits(t *testing.T) {
	// The Backend snapshot contract: an atomic, deterministic cut while
	// commits run. Each snapshot must decode cleanly and contain every
	// object at a self-consistent version.
	dir := t.TempDir()
	s := openStore(t, dir, Options{CacheBytes: 1 << 20, CompactEvery: 64})
	const objects = 8
	for i := 0; i < objects; i++ {
		if err := s.Create(obj(fmt.Sprintf("c/%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < objects; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u := urn.MustParse(fmt.Sprintf("urn:rover:h/c/%d", i))
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				cur, err := s.Get(u)
				if err != nil {
					t.Error(err)
					return
				}
				cur.Set("n", strconv.Itoa(n))
				if _, err := s.Commit(cur, cur.Version); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	for round := 0; round < 20; round++ {
		snap := s.Snapshot()
		objs, err := store.DecodeSnapshot(snap)
		if err != nil {
			t.Fatalf("round %d: snapshot did not decode: %v", round, err)
		}
		if len(objs) != objects {
			t.Fatalf("round %d: snapshot has %d objects, want %d", round, len(objs), objects)
		}
	}
	close(stop)
	wg.Wait()
}
