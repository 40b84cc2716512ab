package store

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"rover/internal/rdo"
	"rover/internal/urn"
	"rover/internal/wire"
)

func obj(path string) *rdo.Object {
	o := rdo.New(urn.MustParse("urn:rover:h/"+path), "t")
	o.Set("k", path)
	return o
}

func TestCreateGetVersion(t *testing.T) {
	s := New()
	o := obj("a")
	if err := s.Create(o); err != nil {
		t.Fatal(err)
	}
	if err := s.Create(o); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create: %v", err)
	}
	got, err := s.Get(o.URN)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 1 {
		t.Errorf("version %d", got.Version)
	}
	if v, _ := s.Version(o.URN); v != 1 {
		t.Errorf("Version() = %d", v)
	}
	// Mutating the returned clone must not affect the store.
	got.Set("k", "mutated")
	again, _ := s.Get(o.URN)
	if v, _ := again.Get("k"); v != "a" {
		t.Error("Get returned a live reference")
	}
	if _, err := s.Get(urn.MustParse("urn:rover:h/none")); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing get: %v", err)
	}
}

func TestCommitAdvancesVersion(t *testing.T) {
	s := New()
	o := obj("a")
	s.Create(o)
	work, _ := s.Get(o.URN)
	work.Set("k", "v2")
	v2, err := s.Commit(work, 1)
	if err != nil || v2 != 2 {
		t.Fatalf("Commit: %d, %v", v2, err)
	}
	got, _ := s.Get(o.URN)
	if val, _ := got.Get("k"); val != "v2" || got.Version != 2 {
		t.Errorf("after commit: %v %d", val, got.Version)
	}
}

func TestCommitDetectsRace(t *testing.T) {
	s := New()
	o := obj("a")
	s.Create(o)
	w1, _ := s.Get(o.URN)
	w2, _ := s.Get(o.URN)
	if _, err := s.Commit(w1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(w2, 1); err == nil {
		t.Fatal("stale commit succeeded")
	}
	if _, err := s.Commit(obj("ghost"), 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("commit of missing object: %v", err)
	}
}

func TestListPrefix(t *testing.T) {
	s := New()
	for _, p := range []string{"mail/inbox/1", "mail/inbox/2", "mail/sent/1", "cal/day1"} {
		if err := s.Create(obj(p)); err != nil {
			t.Fatal(err)
		}
	}
	got := s.List(urn.MustParse("urn:rover:h/mail/inbox"))
	if len(got) != 2 {
		t.Fatalf("List = %+v", got)
	}
	if got[0].URN.Path != "mail/inbox/1" || got[1].URN.Path != "mail/inbox/2" {
		t.Errorf("ordering: %+v", got)
	}
	all := s.List(urn.MustParse("urn:rover:h/mail"))
	if len(all) != 3 {
		t.Errorf("prefix mail: %d entries", len(all))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := New()
	for i := 0; i < 20; i++ {
		o := obj(fmt.Sprintf("obj/%d", i))
		o.Code = "proc get {} { state get k }"
		s.Create(o)
	}
	// Advance a version.
	w, _ := s.Get(urn.MustParse("urn:rover:h/obj/3"))
	w.Set("k", "modified")
	s.Commit(w, 1)

	snap := s.Snapshot()
	s2 := New()
	if err := s2.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if n := len(s2.ListAll()); n != 20 {
		t.Fatalf("loaded %d objects", n)
	}
	got, err := s2.Get(urn.MustParse("urn:rover:h/obj/3"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 2 {
		t.Errorf("version %d survived snapshot", got.Version)
	}
	if v, _ := got.Get("k"); v != "modified" {
		t.Errorf("state %q", v)
	}
	// A corrupt snapshot is refused whole: the store keeps what it held.
	if err := s2.LoadSnapshot(snap[:len(snap)-1]); err == nil {
		t.Fatal("truncated snapshot loaded")
	}
	if !bytes.Equal(s2.Snapshot(), snap) {
		t.Error("a refused snapshot changed the store")
	}
}

func TestConcurrentCommitsSerialize(t *testing.T) {
	// Many goroutines read-modify-write the same object; optimistic Commit
	// with expect-version must serialize them without losing an update.
	s := New()
	o := obj("hot")
	o.Set("n", "0")
	s.Create(o)
	const workers = 8
	const perWorker = 25
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < perWorker; i++ {
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
						break // won the race
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
	if v, _ := got.Get("n"); v != strconv.Itoa(workers*perWorker) {
		t.Errorf("final n = %s, want %d", v, workers*perWorker)
	}
	if got.Version != uint64(workers*perWorker)+1 {
		t.Errorf("version %d", got.Version)
	}
}

// TestDecodeSnapshotCountCannotOutgrowInput: a snapshot whose count claims
// 2^20 objects, in a few bytes, is refused without sizing a map for the
// claim.
func TestDecodeSnapshotCountCannotOutgrowInput(t *testing.T) {
	var b wire.Buffer
	b.PutUvarint(wire.MaxSliceLen)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeSnapshot(b.Bytes())
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("a count with no objects behind it decoded")
	}
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 1<<20 {
		t.Errorf("%d input bytes allocated %d bytes", b.Len(), spent)
	}
}
