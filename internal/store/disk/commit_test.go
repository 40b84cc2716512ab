package disk

import (
	"bytes"
	"strconv"
	"sync"
	"testing"

	"rover/internal/proto"
	"rover/internal/rdo"
	"rover/internal/store"
)

// TestCommitOpsAllocs pins what an ops commit costs the disk store: the copy
// of the object's encoding its observer's event gets, and nothing else. The
// store publishes the object it is handed and keeps the invocations
// uncopied, and the object is encoded straight into the record, in a pooled
// buffer the segment copies.
func TestCommitOpsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts, so allocation counts mean nothing")
	}
	s := openStore(t, t.TempDir(), Options{CompactEvery: 1 << 30})
	o := obj("alloc")
	if err := s.Create(o); err != nil {
		t.Fatal(err)
	}
	var ev store.ApplyEvent
	s.SetOnApply(func(e store.ApplyEvent) { ev = e })
	base, err := s.Get(o.URN)
	if err != nil {
		t.Fatal(err)
	}
	// Written copies made up front, so the measured call is the commit
	// alone; the first 100 let the segment's buffers grow.
	const warm, runs = 100, 200
	objs := make([]*rdo.Object, warm+runs+1)
	for i := range objs {
		objs[i] = base.Clone()
		objs[i].Set("k", strconv.Itoa(i))
	}
	invs := []rdo.Invocation{{Object: o.URN, Method: "set", Args: []string{"x"}, BaseVer: 1}}
	i := 0
	commit := func() {
		if _, err := s.CommitOps(objs[i], base.Version+uint64(i), invs); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range warm {
		commit()
	}
	if n := testing.AllocsPerRun(runs, commit); n != 1 {
		t.Errorf("an ops commit allocates %v objects, want 1", n)
	}
	last := objs[i-1]
	if got, err := s.Get(o.URN); err != nil || got.Version != last.Version || !bytes.Equal(got.Encode(), ev.Object) {
		t.Fatalf("stored %v (%v), last event's object % x", got, err, ev.Object)
	}
}

// TestCommitTakesObject: a commit publishes the very object it is handed,
// and the committer goes on reading it — the server encodes its export
// reply from it — while readers clone it out of the cache with no lock
// held. Run under -race this checks that nobody writes a published object:
// not the store, which stamps the version before publishing, and not the
// committer.
func TestCommitTakesObject(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	o := obj("taken")
	if err := s.Create(o); err != nil {
		t.Fatal(err)
	}
	const commits = 200
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c, err := s.Get(o.URN)
				if err != nil {
					t.Error(err)
					return
				}
				if v, _ := c.Get("k"); v != "taken" && v != strconv.FormatUint(c.Version, 10) {
					t.Errorf("version %d reads k=%q", c.Version, v)
					return
				}
				proto.CheckOf(c.Clone())
			}
		}()
	}
	for i := 0; i < commits; i++ {
		w, err := s.Get(o.URN)
		if err != nil {
			t.Fatal(err)
		}
		cur := w.Version
		w.Set("k", strconv.FormatUint(cur+1, 10))
		inv := rdo.Invocation{Object: o.URN, Method: "set", Args: []string{"k"}, BaseVer: cur}
		ver, err := s.CommitOpsBy(w, cur, []rdo.Invocation{inv}, "cli")
		if err != nil {
			t.Fatal(err)
		}
		if w.Version != ver || ver != cur+1 {
			t.Fatalf("committed version %d, object stamped %d, want %d", ver, w.Version, cur+1)
		}
		proto.CheckOf(w) // the committer reads its object after publishing it
	}
	close(stop)
	readers.Wait()
}
