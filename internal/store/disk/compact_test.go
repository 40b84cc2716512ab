package disk

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"rover/internal/rdo"
	"rover/internal/store"
	"rover/internal/urn"
	"rover/internal/yield"
)

// awaitCompaction waits for a compaction in flight to finish, as Close does.
func awaitCompaction(s *Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.awaitCompactionLocked()
}

// padded is an object the shape of the benchmark module's counters: a
// method, a count and a 256-byte pad.
func padded(i int) *rdo.Object {
	o := rdo.New(urn.MustParse(fmt.Sprintf("urn:rover:bench/obj/%06d", i)), "counter")
	o.Code = "proc add {n} { state set count [expr {[state get count 0] + $n}] }"
	o.Set("pad", strings.Repeat(fmt.Sprintf("%08x", uint32(i)*2654435761), 32))
	return o
}

// loadCold fills s with n padded objects at version 1 through one snapshot
// load, so every one of them is cold and written as an 'S' record.
func loadCold(tb testing.TB, s *Store, n int) {
	tb.Helper()
	src := store.New()
	for i := range n {
		if err := src.Create(padded(i)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.LoadSnapshot(src.Snapshot()); err != nil {
		tb.Fatal(err)
	}
}

// addOne commits one "add 1" to u as an ops commit.
func addOne(tb testing.TB, s *Store, u urn.URN) {
	cur, err := s.Get(u)
	if err != nil {
		tb.Error(err)
		return
	}
	n, _ := strconv.Atoi(cur.State["count"])
	cur.Set("count", strconv.Itoa(n+1))
	inv := rdo.Invocation{Object: u, Method: "add", Args: []string{"1"}, BaseVer: cur.Version}
	if _, err := s.CommitOpsBy(cur, cur.Version, []rdo.Invocation{inv}, "cli"); err != nil {
		tb.Error(err)
	}
}

// BenchmarkCommitDuringCompaction times commits that meet a compaction: a
// store of 10,000 objects seeded cold through a snapshot load, 1,024 of them
// holding 32-entry history windows, is made to compact by the first of 64
// ops commits to those objects, made by 4 goroutines. One op runs from the
// trigger until the last of the 64 commits returns; a compaction still in
// flight then is finished outside the timer.
func BenchmarkCommitDuringCompaction(b *testing.B) {
	const objects, hot, window, committers, commits = 10_000, 1024, 32, 4, 64
	s, err := Open(Options{Dir: b.TempDir(), CompactEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	loadCold(b, s, objects)
	hots := make([]urn.URN, hot)
	for h := range hots {
		hots[h] = padded(h * (objects / hot)).URN
	}
	var wg sync.WaitGroup
	for g := range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for h := g; h < hot; h += 16 {
				for range window {
					addOne(b, s, hots[h])
				}
			}
		}()
	}
	wg.Wait()
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		before := s.Occupancy().Compactions
		s.mu.Lock()
		// The next commit crosses the trigger, and the dead-weight test
		// passes whatever the segment holds.
		s.mutsSinceCompact = s.opts.CompactEvery - 1
		s.liveBytes = 0
		s.mu.Unlock()
		b.StartTimer()
		for g := range committers {
			wg.Add(1)
			go func(first int) {
				defer wg.Done()
				for i := range commits / committers {
					addOne(b, s, hots[(first+i*committers)%hot])
				}
			}(next + g)
		}
		wg.Wait()
		b.StopTimer()
		next += commits
		for s.Occupancy().Compactions == before {
			if err := s.CompactErr(); err != nil {
				b.Fatal(err)
			}
			runtime.Gosched()
		}
		b.StartTimer()
	}
}

// startCompaction starts a compaction of s whatever its dead weight: the
// trigger's counter is met, and the live bytes it weighs the segment
// against are cleared (the swap sets them again).
func startCompaction(s *Store) {
	s.mu.Lock()
	s.mutsSinceCompact = s.opts.CompactEvery
	s.liveBytes = 0
	s.mu.Unlock()
	s.maybeCompact()
}

// forceCompaction compacts s whatever its dead weight, and waits for it.
func forceCompaction(t *testing.T, s *Store) {
	t.Helper()
	before := s.Occupancy().Compactions
	startCompaction(s)
	awaitCompaction(s)
	if s.Occupancy().Compactions != before+1 {
		t.Fatalf("the segment was not rewritten: %v", s.CompactErr())
	}
}

// TestCompactionAllocs pins the copy at no allocation per object: a
// compaction of 4,000 cold objects allocates no more than one of 1,000 plus
// a constant. Each record is read into the segment's pooled buffer, decoded
// in place and appended into one reused buffer; what remains grows with the
// population only by the doubling of the index map and of the footer.
func TestCompactionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts, so allocation counts mean nothing")
	}
	// The fewest of three, because a collection may empty the read-buffer
	// pool in the middle of one.
	allocs := func(n int) uint64 {
		s := openStore(t, t.TempDir(), Options{CompactEvery: 1 << 20})
		loadCold(t, s, n)
		forceCompaction(t, s) // grows the pooled buffers
		least := uint64(math.MaxUint64)
		for range 3 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			forceCompaction(t, s)
			runtime.ReadMemStats(&m1)
			least = min(least, m1.Mallocs-m0.Mallocs)
		}
		return least
	}
	small, large := allocs(1000), allocs(4000)
	t.Logf("a compaction of 1,000 cold objects allocates %d objects, of 4,000 %d", small, large)
	if large > small+compactAllocSlack {
		t.Errorf("a compaction of 4,000 cold objects allocates %d objects, of 1,000 %d: more than %d apart", large, small, compactAllocSlack)
	}
}

const compactAllocSlack = 32

// export is an ops commit as the export that made it.
type export struct {
	u    urn.URN
	base uint64
	invs []rdo.Invocation
	src  string
}

// exportLog is every ops commit a test made.
type exportLog []export

// add commits one "add" to u as src and logs it.
func (l *exportLog) add(t *testing.T, s *Store, u urn.URN, src string) {
	t.Helper()
	cur, err := s.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := strconv.Atoi(cur.State["count"])
	cur.Set("count", strconv.Itoa(n+1))
	invs := []rdo.Invocation{{Object: u, Method: "add", Args: []string{strconv.Itoa(len(*l))}, BaseVer: cur.Version}}
	if _, err := s.CommitOpsBy(cur, cur.Version, invs, src); err != nil {
		t.Fatal(err)
	}
	*l = append(*l, export{u, cur.Version - 1, invs, src})
}

// sameAnswers fails unless got answers every question the way want does: the
// snapshot (every object's Get), a delta from each version of each object's
// window and before it, and the redelivery check of every logged export.
func sameAnswers(t *testing.T, where string, got, want *Store, log exportLog) {
	t.Helper()
	if !bytes.Equal(got.Snapshot(), want.Snapshot()) {
		t.Fatalf("%s: the snapshot differs", where)
	}
	for _, e := range want.ListAll() {
		for from := e.Version - min(e.Version, store.DefaultHistoryLimit+1); from <= e.Version; from++ {
			ops, ver, src, ok := got.OpsSince(e.URN, from)
			wops, wver, wsrc, wok := want.OpsSince(e.URN, from)
			if ok != wok || ver != wver || src != wsrc || !reflect.DeepEqual(ops, wops) {
				t.Fatalf("%s: OpsSince(%s, %d) = %d ops to v%d ok=%v, want %d ops to v%d ok=%v",
					where, e.URN.Path, from, len(ops), ver, ok, len(wops), wver, wok)
			}
		}
	}
	for _, x := range log {
		seen, err := got.WasCommitted(x.u, x.base, x.invs, x.src)
		wseen, werr := want.WasCommitted(x.u, x.base, x.invs, x.src)
		if seen != wseen || (err == nil) != (werr == nil) {
			t.Fatalf("%s: WasCommitted(%s, %d) = %v, %v; want %v, %v", where, x.u.Path, x.base, seen, err, wseen, werr)
		}
	}
}

// pauseAtCopied holds a compaction each time it reaches the yield point
// past its copy: reached receives once it is there, and it goes on when
// resume does.
func pauseAtCopied(t *testing.T) (reached, resume chan struct{}) {
	reached, resume = make(chan struct{}), make(chan struct{})
	t.Cleanup(yield.Set(func(site string) {
		if site == yieldCompactCopied {
			reached <- struct{}{}
			<-resume
		}
	}))
	return reached, resume
}

// TestCompactionCatchesUpCommitsAfterTheCut: commits made while the copy runs
// reach the fresh segment. The yield point past the copy is reached twice:
// before the second cut, whose records are caught up with no lock held, and
// before the gate goes up for the rest. At each, ops commits to objects
// already copied, to an object whose copy is an 'S' record, a Create
// followed by ops commits, and a plain Commit must leave Get, OpsSince
// across the cut and WasCommitted of exports from before and after it
// answering as the uncompacted segment does: after the swap, and again from
// the abandoned directory reopened by footer and by full scan. Copies of the
// directory taken at the yield point (old segment, a .compact file) and one
// as a crash after the rename but before the sidecar write leaves it (fresh
// segment, old sidecar) reopen with every acknowledged commit, and the
// .compact file is gone.
func TestCompactionCatchesUpCommitsAfterTheCut(t *testing.T) {
	dir := t.TempDir()
	opts := Options{CompactEvery: 1 << 20}
	s := openStore(t, dir, opts)
	loadCold(t, s, 64)
	u := func(i int) urn.URN { return padded(i).URN }
	var log exportLog
	for range 40 {
		log.add(t, s, u(0), "a") // a window that fills and trims
	}
	for i := range 6 {
		log.add(t, s, u(1), "b")
		log.add(t, s, u(2), []string{"a", "b"}[i%2])
	}
	forceCompaction(t, s) // later windows start in a 'Z' record
	for range 5 {
		log.add(t, s, u(0), "a")
		log.add(t, s, u(1), "c")
	}

	reached, resume := pauseAtCopied(t)
	startCompaction(s)
	var atSite []string
	for pass := range 2 {
		<-reached
		for range 3 {
			log.add(t, s, u(0), "a")      // copied as a 'Z' record
			log.add(t, s, u(3+pass), "d") // copied as an 'S' record
		}
		fresh := padded(100 + pass)
		if err := s.Create(fresh); err != nil {
			t.Fatal(err)
		}
		log.add(t, s, fresh.URN, "e")
		log.add(t, s, fresh.URN, "e")
		cur, err := s.Get(u(2))
		if err != nil {
			t.Fatal(err)
		}
		cur.Set("count", "plain")
		if _, err := s.Commit(cur, cur.Version); err != nil {
			t.Fatal(err)
		}
		log.add(t, s, u(2), "b")
		log.add(t, s, u(1), "b")
		atSite = append(atSite, copyDir(t, dir))
		resume <- struct{}{}
	}
	awaitCompaction(s)
	if err := s.CompactErr(); err != nil || s.Occupancy().Compactions != 2 {
		t.Fatalf("compaction: %v, %d compactions", err, s.Occupancy().Compactions)
	}

	// The uncompacted segment, as it stood at the second pause, is the
	// reference: opening it also removes the .compact file.
	var ref *Store
	for _, d := range atSite {
		if _, err := os.Stat(filepath.Join(d, SegmentName+".compact")); err != nil {
			t.Fatalf("no .compact file at the yield point: %v", err)
		}
		ref = openStore(t, d, opts)
		if _, err := os.Stat(filepath.Join(d, SegmentName+".compact")); !os.IsNotExist(err) {
			t.Fatal("the .compact leftover was not removed at open")
		}
	}
	oldSidecar, err := os.ReadFile(filepath.Join(atSite[1], FooterName))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ref.ListAll() {
		if v, _ := s.Version(e.URN); v != e.Version {
			t.Fatalf("%s at v%d after the swap, v%d acknowledged", e.URN.Path, v, e.Version)
		}
	}
	sameAnswers(t, "after the swap", s, ref, log)

	for _, mode := range []string{"footer", "scan", "renamed"} {
		d := copyDir(t, dir) // abandoned: no Close
		switch mode {
		case "scan":
			os.Remove(filepath.Join(d, FooterName))
		case "renamed":
			if err := os.WriteFile(filepath.Join(d, FooterName), oldSidecar, 0o600); err != nil {
				t.Fatal(err)
			}
		}
		r := openStore(t, d, opts)
		if r.RecoveredByFooter() != (mode == "footer") {
			t.Fatalf("%s: RecoveredByFooter = %v", mode, r.RecoveredByFooter())
		}
		sameAnswers(t, "reopened by "+mode, r, ref, log)
	}
}

// TestCloseDuringCompaction: Close while a compaction is paused past its copy
// returns without finishing the rewrite, the .compact file is gone, and a
// reopen holds every acknowledged commit, including one made during the
// pause.
func TestCloseDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{CompactEvery: 1 << 20})
	loadCold(t, s, 64)
	hot := padded(7).URN
	var log exportLog
	for range 10 {
		log.add(t, s, hot, "a")
	}
	reached, resume := pauseAtCopied(t)
	startCompaction(s)
	<-reached
	log.add(t, s, hot, "a")
	want := s.Snapshot()
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	for !s.closed.Load() {
		runtime.Gosched()
	}
	resume <- struct{}{}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if n := s.Occupancy().Compactions; n != 0 {
		t.Fatalf("Close finished the rewrite: %d compactions", n)
	}
	if _, err := os.Stat(filepath.Join(dir, SegmentName+".compact")); !os.IsNotExist(err) {
		t.Fatal("the .compact file outlived Close")
	}
	r := openStore(t, dir, Options{})
	if !bytes.Equal(r.Snapshot(), want) {
		t.Fatal("the reopened store lost an acknowledged commit")
	}
	if v, _ := r.Version(hot); v != 12 {
		t.Fatalf("%s at v%d after the reopen, want v12", hot.Path, v)
	}
}
