package disk

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"rover/internal/rdo"
	"rover/internal/urn"
)

// TestLRUOversizedObjectNeverCached: an object bigger than the whole budget
// is served straight from the segment every time — admitted it would evict
// everything and still overflow.
func TestLRUOversizedObjectNeverCached(t *testing.T) {
	dir := t.TempDir()
	small := obj("small")
	budget := 4 * int64(small.SizeEstimate())
	s := openStore(t, dir, Options{CacheBytes: budget})
	big := rdo.New(urn.MustParse("urn:rover:h/big"), "t")
	for i := 0; i < 64; i++ {
		big.Set(fmt.Sprintf("pad%02d", i), "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
	}
	if int64(big.SizeEstimate()) <= budget {
		t.Fatalf("test object too small: %d <= budget %d", big.SizeEstimate(), budget)
	}
	if err := s.Create(small); err != nil {
		t.Fatal(err)
	}
	if err := s.Create(big); err != nil {
		t.Fatal(err)
	}
	occ := s.Occupancy()
	if occ.ResidentBytes > budget {
		t.Fatalf("resident %d over budget %d after oversized create", occ.ResidentBytes, budget)
	}
	for i := 0; i < 3; i++ {
		got, err := s.Get(big.URN)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := got.Get("pad00"); v != "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx" {
			t.Fatalf("faulted oversized state %q", v)
		}
	}
	// Every one of those gets was a cold fault: the object never stuck.
	if occ = s.Occupancy(); occ.ColdFaults < 3 {
		t.Fatalf("cold faults %d, want >= 3 (oversized object was cached)", occ.ColdFaults)
	}
	// The small object still caches beside it.
	if _, err := s.Get(small.URN); err != nil {
		t.Fatal(err)
	}
	if occ = s.Occupancy(); occ.ResidentObjects == 0 {
		t.Fatal("oversized sibling starved the cache entirely")
	}
}

// TestLRUPutNeverRegressesVersion: fault-ins publish into the cache
// concurrently with commits; whatever interleaving happens, a Get must
// never observe an older version than one it (or a commit) already saw.
// The cache holds about one object, and a reader keeps faulting in a
// second one, so the raced object is evicted and re-admitted throughout.
func TestLRUPutNeverRegressesVersion(t *testing.T) {
	dir := t.TempDir()
	o := obj("race")
	o.Set("n", "0000")
	per := int64(o.SizeEstimate())
	s := openStore(t, dir, Options{CacheBytes: per + per/2})
	filler := obj("filler")
	for _, c := range []*rdo.Object{o, filler} {
		if err := s.Create(c); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Committer: advances the version as fast as it can.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cur, err := s.Get(o.URN)
			if err != nil {
				t.Error(err)
				return
			}
			cur.Set("n", strconv.Itoa(i))
			if _, err := s.Commit(cur, cur.Version); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Readers: each must see a monotonically non-decreasing version, with
	// the filler evicting the raced object underneath to force fault-in/put
	// races.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var last uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if r == 0 && i%4 == 0 {
					if _, err := s.Get(filler.URN); err != nil {
						t.Error(err)
						return
					}
				}
				got, err := s.Get(o.URN)
				if err != nil {
					t.Error(err)
					return
				}
				if got.Version < last {
					t.Errorf("version regressed: %d after %d", got.Version, last)
					return
				}
				last = got.Version
			}
		}(r)
	}
	for i := 0; i < 400; i++ {
		if _, err := s.Get(o.URN); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if s.Occupancy().ColdFaults == 0 {
		t.Fatal("no cold faults: nothing was evicted under the race")
	}
	// Final read agrees with the index.
	ver, err := s.Version(o.URN)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(o.URN)
	if err != nil || got.Version != ver {
		t.Fatalf("final get v%d vs index v%d (%v)", got.Version, ver, err)
	}
}

// TestLRUEvictionDuringInFlightFault: a cache so small that concurrent
// readers perpetually evict each other's fault-ins mid-flight. Every read
// must still return the correct object.
func TestLRUEvictionDuringInFlightFault(t *testing.T) {
	dir := t.TempDir()
	per := int64(obj("probe").SizeEstimate())
	s := openStore(t, dir, Options{CacheBytes: per + per/2}) // room for ~1
	const objects = 16
	for i := 0; i < objects; i++ {
		if err := s.Create(obj(fmt.Sprintf("t/%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				path := fmt.Sprintf("t/%02d", (w+i)%objects)
				got, err := s.Get(urn.MustParse("urn:rover:h/" + path))
				if err != nil {
					t.Error(err)
					return
				}
				if v, _ := got.Get("k"); v != path {
					t.Errorf("got %q for %q", v, path)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	occ := s.Occupancy()
	if occ.ResidentBytes > per+per/2 {
		t.Fatalf("resident %d bytes over the %d bound after the stampede", occ.ResidentBytes, per+per/2)
	}
	if occ.ColdFaults == 0 {
		t.Fatal("no cold faults despite a one-object cache")
	}
}
