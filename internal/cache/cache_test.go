package cache

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rover/internal/rdo"
	"rover/internal/urn"
)

func obj(path string, size int) *rdo.Object {
	o := rdo.New(urn.MustParse("urn:rover:h/"+path), "t")
	o.Version = 1
	o.Set("data", strings.Repeat("x", size))
	return o
}

func TestPutGet(t *testing.T) {
	c := New(0)
	o := obj("a", 10)
	e := c.Put(o, 100)
	if e.CommittedVersion != 1 || e.ImportedAt != 100 {
		t.Errorf("entry: %+v", e)
	}
	got, ok := c.Get(o.URN)
	if !ok || got != e {
		t.Fatal("Get mismatch")
	}
	if _, ok := c.Get(urn.MustParse("urn:rover:h/none")); ok {
		t.Error("hit on missing")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestPutReplaceUpdatesAccounting(t *testing.T) {
	c := New(0)
	small := obj("a", 10)
	c.Put(small, 0)
	b1 := c.Bytes()
	big := obj("a", 10000)
	big.Version = 2
	e := c.Put(big, 5)
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
	if c.Bytes() <= b1 {
		t.Error("bytes not re-accounted")
	}
	if e.CommittedVersion != 2 {
		t.Errorf("version %d", e.CommittedVersion)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(3000)
	for i := 0; i < 10; i++ {
		c.Put(obj(fmt.Sprintf("o%d", i), 500), 0)
	}
	if c.Bytes() > 3000 {
		t.Errorf("over budget: %d", c.Bytes())
	}
	if c.Stats().Evictions == 0 {
		t.Error("no evictions")
	}
	// Most recent should remain; oldest gone.
	if _, ok := c.Peek(urn.MustParse("urn:rover:h/o9")); !ok {
		t.Error("most recent evicted")
	}
	if _, ok := c.Peek(urn.MustParse("urn:rover:h/o0")); ok {
		t.Error("oldest survived")
	}
}

func TestGetRefreshesRecency(t *testing.T) {
	c := New(2300)
	a := obj("a", 500)
	c.Put(a, 0)
	for i := 0; i < 3; i++ {
		c.Put(obj(fmt.Sprintf("f%d", i), 500), 0)
		c.Get(a.URN) // keep a hot
	}
	if _, ok := c.Peek(a.URN); !ok {
		t.Error("hot entry evicted")
	}
}

func TestTentativePinned(t *testing.T) {
	c := New(1200)
	a := obj("a", 500)
	e := c.Put(a, 0)
	e.Tentative = true
	for i := 0; i < 5; i++ {
		c.Put(obj(fmt.Sprintf("f%d", i), 500), 0)
	}
	if _, ok := c.Peek(a.URN); !ok {
		t.Fatal("tentative entry evicted")
	}
	tu := c.TentativeURNs()
	if len(tu) != 1 || tu[0] != a.URN {
		t.Errorf("TentativeURNs = %v", tu)
	}
	if c.Stats().TentativeCount != 1 {
		t.Errorf("TentativeCount = %d", c.Stats().TentativeCount)
	}
	// Unpin: becomes evictable again.
	e.Tentative = false
	c.Put(obj("big", 2000), 0)
	if _, ok := c.Peek(a.URN); ok {
		t.Error("unpinned entry survived pressure")
	}
}

func TestExportInFlightPinned(t *testing.T) {
	c := New(1200)
	a := obj("a", 500)
	e := c.Put(a, 0)
	e.ExportInFlight = true
	for i := 0; i < 5; i++ {
		c.Put(obj(fmt.Sprintf("f%d", i), 500), 0)
	}
	if _, ok := c.Peek(a.URN); !ok {
		t.Error("in-flight entry evicted")
	}
}

func TestTouchReaccounts(t *testing.T) {
	c := New(0)
	a := obj("a", 10)
	e := c.Put(a, 0)
	before := c.Bytes()
	e.Obj.Set("data", strings.Repeat("y", 5000))
	c.Touch(a.URN)
	if c.Bytes() <= before {
		t.Error("Touch did not grow accounting")
	}
	c.Touch(urn.MustParse("urn:rover:h/none")) // no panic on missing
}

func TestRemove(t *testing.T) {
	c := New(0)
	a := obj("a", 10)
	c.Put(a, 0)
	if !c.Remove(a.URN) {
		t.Fatal("Remove failed")
	}
	if c.Remove(a.URN) {
		t.Error("double remove succeeded")
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Errorf("Len=%d Bytes=%d", c.Len(), c.Bytes())
	}
}

func TestURNs(t *testing.T) {
	c := New(0)
	c.Put(obj("a", 1), 0)
	c.Put(obj("b", 1), 0)
	if got := c.URNs(); len(got) != 2 {
		t.Errorf("URNs = %v", got)
	}
}

func TestUnboundedNeverEvicts(t *testing.T) {
	c := New(0)
	for i := 0; i < 100; i++ {
		c.Put(obj(fmt.Sprintf("o%d", i), 1000), 0)
	}
	if c.Len() != 100 || c.Stats().Evictions != 0 {
		t.Errorf("Len=%d evictions=%d", c.Len(), c.Stats().Evictions)
	}
}

// TestEnvEvictedWithEntry: what the access manager ties to an entry goes
// where the entry goes. Eviction leaves the cache holding no path to the
// object or its environment, and replacing the committed copy drops the
// environment and the export expectation bound to the old one.
func TestEnvEvictedWithEntry(t *testing.T) {
	c := New(3000)
	var freed atomic.Int64
	for i := 0; i < 10; i++ {
		e := c.Put(obj(fmt.Sprintf("o%d", i), 1000), 0)
		env, err := rdo.NewEnv(e.Obj, rdo.EnvOptions{})
		if err != nil {
			t.Fatal(err)
		}
		e.Env = env
		runtime.SetFinalizer(e.Obj, func(*rdo.Object) { freed.Add(1) })
	}
	evicted := c.Stats().Evictions
	if evicted < 7 {
		t.Fatalf("%d evictions from a cache with room for two", evicted)
	}
	deadline := time.Now().Add(5 * time.Second)
	for freed.Load() < evicted && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got < evicted {
		t.Fatalf("%d entries evicted, %d objects collected", evicted, got)
	}

	survivor := urn.MustParse("urn:rover:h/o9")
	e, ok := c.Peek(survivor)
	if !ok || e.Env == nil {
		t.Fatalf("most recent entry: %+v, %v", e, ok)
	}
	e.ExportBase, e.ExportCheck = 1, 0xABCD
	next := obj("o9", 1000)
	next.Version = 2
	if e2 := c.Put(next, 0); e2 != e || e.Env != nil || e.ExportBase != 0 || e.Obj != next {
		t.Fatalf("replace kept state of the old copy: %+v", e)
	}
}
