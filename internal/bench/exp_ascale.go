package bench

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"rover/internal/rdo"
	"rover/internal/store/disk"
	"rover/internal/urn"
)

// ExpAScale is the disk-store capacity experiment: load a million small
// RDOs into the segment-backed store and show that (a) resident memory is
// bounded by the configured hot-object cache plus a small per-object index,
// not by the payload, (b) the group commit keeps the load's fsync count far
// below one per object, (c) cold Gets — objects that long ago fell out of
// the cache — fault in from the segment at pread latency, and (d) a
// restarted store recovers the whole population by a streaming scan. The
// in-memory backend simply cannot hold this population alongside the
// payloads; the disk backend's heap grows only with the index.
func ExpAScale(o Options) (*Table, error) {
	objects := o.scale(1_000_000, 20_000)
	cacheBytes := int64(o.scale(32<<20, 1<<20))
	loaders := o.scale(128, 16)
	coldGets := o.scale(20_000, 2_000)

	dir, err := os.MkdirTemp("", "rover-ascale")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	st, err := disk.Open(disk.Options{Dir: dir, CacheBytes: cacheBytes})
	if err != nil {
		return nil, err
	}
	defer st.Close()

	// Load phase: `loaders` goroutines create disjoint slices of the
	// population; each commit is durable before it returns, and concurrent
	// committers coalesce onto shared fsyncs (pipelined group commit).
	t0 := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, loaders)
	per := objects / loaders
	for w := 0; w < loaders; w++ {
		lo, hi := w*per, (w+1)*per
		if w == loaders-1 {
			hi = objects
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if err := st.Create(ascaleObj(i)); err != nil {
					errs <- err
					return
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	loadSecs := time.Since(t0).Seconds()
	segStats := st.SegmentStats()

	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	heapDelta := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	if heapDelta < 0 {
		heapDelta = 0
	}

	occ := st.Occupancy()
	if occ.Objects != objects {
		return nil, fmt.Errorf("population: %d objects, want %d", occ.Objects, objects)
	}
	if occ.ResidentBytes > cacheBytes {
		return nil, fmt.Errorf("cache over bound: %d resident bytes > %d", occ.ResidentBytes, cacheBytes)
	}

	// Cold-get phase: uniform random Gets across the whole population. At
	// 1M objects and a 32 MiB cache almost every Get misses and faults in
	// from the segment.
	rng := rand.New(rand.NewSource(42))
	lats := make([]time.Duration, 0, coldGets)
	g0 := time.Now()
	for i := 0; i < coldGets; i++ {
		u := ascaleURN(rng.Intn(objects))
		s := time.Now()
		if _, err := st.Get(u); err != nil {
			return nil, fmt.Errorf("cold get %s: %w", u, err)
		}
		lats = append(lats, time.Since(s))
	}
	getSecs := time.Since(g0).Seconds()
	after := st.Occupancy()

	// Recovery phase: reopen the directory and time the streaming scan that
	// rebuilds the index.
	if err := st.Close(); err != nil {
		return nil, err
	}
	r0 := time.Now()
	st2, err := disk.Open(disk.Options{Dir: dir, CacheBytes: cacheBytes})
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	defer st2.Close()
	reopen := time.Since(r0)
	if st2.Len() != objects {
		return nil, fmt.Errorf("recovery lost objects: %d of %d", st2.Len(), objects)
	}

	t := &Table{
		ID:      "ASCALE",
		Title:   fmt.Sprintf("disk store at %d RDOs, %s hot cache", objects, kb(cacheBytes)),
		Columns: []string{"phase", "objects", "secs", "ops/sec", "fsyncs/op", "heap B/obj", "resident", "seg size", "cold p99"},
		Rows: [][]string{
			{
				"load", fmt.Sprintf("%d", objects), fmt.Sprintf("%.1f", loadSecs),
				fmt.Sprintf("%.0f", float64(objects)/loadSecs),
				fmt.Sprintf("%.4f", ratio(segStats.Syncs, int64(objects))),
				fmt.Sprintf("%d", heapDelta/int64(objects)),
				kb(occ.ResidentBytes), kb(occ.SegmentBytes), "-",
			},
			{
				"cold-get", fmt.Sprintf("%d", coldGets), fmt.Sprintf("%.1f", getSecs),
				fmt.Sprintf("%.0f", float64(coldGets)/getSecs), "-", "-",
				kb(after.ResidentBytes), "-", ms(p99(lats)),
			},
			{
				"reopen", fmt.Sprintf("%d", objects), fmt.Sprintf("%.1f", reopen.Seconds()),
				fmt.Sprintf("%.0f", float64(objects)/reopen.Seconds()), "-", "-", "-", "-", "-",
			},
		},
		Notes: []string{
			fmt.Sprintf("cold faults %d / cache hits %d over the cold-get phase (population %dx the cache)",
				after.ColdFaults-occ.ColdFaults, after.CacheHits-occ.CacheHits, objects/max(1, int(after.ResidentObjects))),
			"heap B/obj is the post-load heap delta divided by the population: the resident index + cache, not the payload",
			"the experiment fails unless the population is complete, the cache honors its byte bound, and recovery finds every object",
		},
	}
	return t, nil
}

func ascaleURN(i int) urn.URN {
	return urn.MustParse(fmt.Sprintf("urn:rover:scale/o/%07d", i))
}

// ascaleObj is one small RDO: a URN, a type, and a handful of state bytes —
// the shape of a mail header or calendar slot, the paper's unit of
// replication.
func ascaleObj(i int) *rdo.Object {
	o := rdo.New(ascaleURN(i), "scale")
	o.Set("n", fmt.Sprintf("%d", i))
	o.Set("p", "payload-0123456789abcdef")
	return o
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
