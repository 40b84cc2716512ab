package disk

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"rover/internal/rdo"
	"rover/internal/stable"
	"rover/internal/store"
	"rover/internal/urn"
)

// eagerHistory is the reference lazy windows are held to: every object
// record of the segment in dir replayed in order into a fresh History with
// Record, Clear and Restore, the windows Open used to rebuild before it left
// them on disk.
func eagerHistory(t *testing.T, dir string) *store.History {
	t.Helper()
	h := store.NewHistory()
	seg, err := stable.OpenSegmentFile(filepath.Join(dir, SegmentName), stable.Options{},
		func(off int64, p []byte) error {
			if len(p) > 0 && p[0] == recFooter {
				return nil
			}
			rec, err := decodeRecord(p, nil, true)
			if err != nil {
				return err
			}
			switch rec.kind {
			case recState:
				h.Clear(rec.urn)
			case recOps:
				if !h.Record(rec.urn, rec.ver, rec.invs, rec.src) {
					h.Clear(rec.urn)
				}
			case recSnap:
				h.Clear(rec.urn)
				h.Restore(rec.urn, rec.hist)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	seg.Close()
	return h
}

// commitLog remembers what produced each version of each object, so every
// base a WasCommitted may be asked about has the export that committed it.
type commitLog map[urn.URN]map[uint64]store.OpsRec

// windowModel drives a store and the eager reference through the same
// random mutations: ops commits from several sources, plain commits,
// installs, snapshot loads and history-limit changes. Compactions happen on
// their own (CompactEvery is small) and leave the reference untouched, as
// they left the eager windows.
type windowModel struct {
	t    *testing.T
	rng  *rand.Rand
	urns []urn.URN
	log  commitLog
}

var windowSources = []string{"", "a", "b", "c"}

func (m *windowModel) step(s *Store, ref *store.History) {
	t := m.t
	u := m.urns[m.rng.Intn(len(m.urns))]
	cur, err := s.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	switch r := m.rng.Intn(20); {
	case r < 14:
		src := windowSources[m.rng.Intn(len(windowSources))]
		invs := make([]rdo.Invocation, 1+m.rng.Intn(2))
		for i := range invs {
			invs[i] = rdo.Invocation{Object: u, Method: "set", Args: []string{strconv.Itoa(m.rng.Intn(4))}, BaseVer: cur.Version}
		}
		cur.Set("n", invs[0].Args[0])
		ver, err := s.CommitOpsBy(cur, cur.Version, invs, src)
		if err != nil {
			t.Fatal(err)
		}
		m.log[u][ver] = store.OpsRec{Ver: ver, Invs: invs, Src: src}
		if !ref.Record(u, ver, invs, src) {
			ref.Clear(u)
		}
	case r < 16:
		cur.Set("n", "plain")
		if _, err := s.Commit(cur, cur.Version); err != nil {
			t.Fatal(err)
		}
		ref.Clear(u)
	case r < 17:
		cur.Version += uint64(1 + m.rng.Intn(3))
		if _, err := s.InstallState(cur); err != nil {
			t.Fatal(err)
		}
		ref.Clear(u)
	case r < 18 && m.rng.Intn(4) == 0:
		if err := s.LoadSnapshot(s.Snapshot()); err != nil {
			t.Fatal(err)
		}
		ref.ClearAll()
	default:
		m.setLimit(s, ref)
	}
}

func (m *windowModel) setLimit(s *Store, ref *store.History) {
	n := []int{-1, 0, 0, 2, 5, 40}[m.rng.Intn(6)]
	s.SetHistoryLimit(n)
	ref.SetLimit(n)
}

// opsSince is the delta the commit log holds from version from to ver, if
// every version in between was made by an ops commit.
func (m *windowModel) opsSince(u urn.URN, from, ver uint64) ([]rdo.Invocation, uint64, bool) {
	var ops []rdo.Invocation
	for v := from + 1; v <= ver; v++ {
		c, ok := m.log[u][v]
		if !ok {
			return nil, 0, false
		}
		ops = append(ops, c.Invs...)
	}
	return ops, ver, len(ops) > 0
}

// check asks s and ref the same questions: OpsSince from every version an
// object has had, and WasCommitted for every export that made a version,
// under every source, and for an export that never happened. s must answer
// as ref does, with one allowance: a window loaded after a lower limit
// pruned the eager one may reach further back, so where s serves a delta or
// recognizes an export that ref does not, the answer must be the commit
// log's.
func (m *windowModel) check(s *Store, ref *store.History, where string) {
	t := m.t
	t.Helper()
	for _, u := range m.urns {
		ver, err := s.Version(u)
		if err != nil {
			t.Fatal(err)
		}
		for from := uint64(0); from <= ver; from++ {
			gotOps, gotVer, gotOK := s.OpsSince(u, from)
			wantOps, wantVer, wantOK := ref.OpsSince(u, from, ver)
			if gotOK && !wantOK {
				wantOps, wantVer, wantOK = m.opsSince(u, from, ver)
			}
			if gotOK != wantOK || gotVer != wantVer || !reflect.DeepEqual(gotOps, wantOps) {
				t.Fatalf("%s: OpsSince(%s, %d) = %d ops to v%d ok=%v, want %d ops to v%d ok=%v",
					where, u.Path, from, len(gotOps), gotVer, gotOK, len(wantOps), wantVer, wantOK)
			}
			c, ok := m.log[u][from+1]
			if !ok {
				continue
			}
			never := []rdo.Invocation{{Object: u, Method: "never", BaseVer: from}}
			for _, src := range windowSources {
				for i, invs := range [][]rdo.Invocation{c.Invs, never} {
					got, want := s.WasCommitted(u, from, invs, src), ref.WasCommitted(u, from, invs, src)
					if got && !want {
						want = i == 0 && src != "" && src == c.Src
					}
					if got != want {
						t.Fatalf("%s: WasCommitted(%s, %d, %s, %q) = %v, want %v", where, u.Path, from, invs[0].Method, src, got, want)
					}
				}
			}
		}
	}
}

// TestLazyWindowsMatchEagerReplay: windows loaded from the record chain on
// first use answer OpsSince and WasCommitted as the windows a full replay of
// the segment rebuilds (or, after a lower history limit, with more true
// history, see check). Each seeded history lives through several
// reopens (clean, by full scan, and abandoned without Close) so that commits,
// compactions and limit changes meet windows that are still on disk; the
// last segment is then reopened by footer and by full scan, and checked
// straight away and after limit changes and more mutations. Odd seeds
// compact every few mutations, even ones never, so windows stay on disk
// until a commit or a question loads them.
func TestLazyWindowsMatchEagerReplay(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			m := &windowModel{t: t, rng: rand.New(rand.NewSource(seed)), log: commitLog{}}
			opts := Options{CompactEvery: 4}
			if seed%2 == 0 {
				opts.CompactEvery = 1 << 20
			}
			dir := t.TempDir()
			s := openStore(t, dir, opts)
			ref := store.NewHistory()
			for i := 0; i < 8; i++ {
				o := obj(fmt.Sprintf("w/%d", i))
				if err := s.Create(o); err != nil {
					t.Fatal(err)
				}
				m.urns = append(m.urns, o.URN)
				m.log[o.URN] = map[uint64]store.OpsRec{}
			}
			for phase := 0; phase < 4; phase++ {
				for range 30 + m.rng.Intn(30) {
					m.step(s, ref)
				}
				if m.rng.Intn(2) == 0 {
					m.check(s, ref, fmt.Sprintf("phase %d", phase))
				}
				// Reopen after a clean close (by footer), a clean close whose
				// sidecar is gone (by full scan), or an abandonment (by the
				// last compaction's footer and a tail, or a full scan).
				mode := m.rng.Intn(3)
				if mode == 2 {
					dir = copyDir(t, dir)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if mode == 1 {
					os.Remove(filepath.Join(dir, FooterName))
				}
				s = openStore(t, dir, opts)
				ref = eagerHistory(t, dir)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			for _, footer := range []bool{true, false} {
				for _, mutate := range []bool{false, true} {
					d := copyDir(t, dir)
					if !footer {
						os.Remove(filepath.Join(d, FooterName))
					}
					s := openStore(t, d, opts)
					if s.RecoveredByFooter() != footer {
						t.Fatalf("RecoveredByFooter = %v, want %v", !footer, footer)
					}
					ref := eagerHistory(t, d)
					if mutate {
						for range 3 {
							m.setLimit(s, ref)
						}
						for range 20 {
							m.step(s, ref)
						}
					}
					m.check(s, ref, fmt.Sprintf("footer=%v mutate=%v", footer, mutate))
				}
			}
		})
	}
}

// compactNow rewrites s as its next compaction check would.
func compactNow(t *testing.T, s *Store) {
	t.Helper()
	before := s.Occupancy().Compactions
	s.mu.Lock()
	s.mutsSinceCompact = s.opts.CompactEvery
	s.mu.Unlock()
	s.maybeCompact()
	if s.Occupancy().Compactions != before+1 {
		t.Fatal("the segment was not rewritten")
	}
}

// TestCompactionKeepsUnloadedWindows: a compaction right after a reopen
// meets windows still on disk. It must load them before writing each
// object's snapshot record, or the rewrite drops a window nobody asked for
// and the next reopen forgets the exports it held.
func TestCompactionKeepsUnloadedWindows(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	a := obj("keep")
	if err := s.Create(a); err != nil {
		t.Fatal(err)
	}
	bumpOps(t, s, a.URN, 20) // versions 2..21, dead weight enough to rewrite
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	compactNow(t, s2) // no object touched: a's window is still on disk
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3 := openStore(t, dir, Options{})
	last := rdo.Invocation{Object: a.URN, Method: "set", Args: []string{"19"}, BaseVer: 20}
	if !s3.WasCommitted(a.URN, 20, []rdo.Invocation{last}, "cli") {
		t.Fatal("WasCommitted lost an export committed before the first reopen")
	}
	ops, ver, ok := s3.OpsSince(a.URN, 18)
	if !ok || ver != 21 || len(ops) != 3 || ops[2].Args[0] != "19" {
		t.Fatalf("OpsSince(18) after compaction = %d ops to v%d ok=%v, want 3 to v21", len(ops), ver, ok)
	}
}

// TestLazyWindowLoadsOnce: right after a reopen, readers and a committer of
// one object whose window is still on disk race to load it. Several may read
// the chain, but the window must be installed exactly once, before the
// commit is published, and every answer must be one the same calls give run
// one after another, before or after the commit.
func TestLazyWindowLoadsOnce(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	o := obj("race")
	if err := s.Create(o); err != nil {
		t.Fatal(err)
	}
	bumpOps(t, s, o.URN, 10) // versions 2..11 by "cli", args 0..9
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	u := o.URN
	inv := func(i int) []rdo.Invocation {
		return []rdo.Invocation{{Object: u, Method: "set", Args: []string{strconv.Itoa(i)}, BaseVer: uint64(i + 1)}}
	}
	commit := func(s *Store) {
		cur, err := s.Get(u)
		if err != nil {
			t.Error(err)
			return
		}
		cur.Set("n", "10")
		if _, err := s.CommitOpsBy(cur, 11, inv(10), "cli"); err != nil {
			t.Error(err)
		}
	}
	type answers struct {
		ops  [12]int // len of OpsSince(from), -1 when not served
		seen [11]bool
	}
	ask := func(s *Store) (a answers) {
		for from := range a.ops {
			ops, _, ok := s.OpsSince(u, uint64(from))
			a.ops[from] = -1
			if ok {
				a.ops[from] = len(ops)
			}
		}
		for i := range a.seen {
			a.seen[i] = s.WasCommitted(u, uint64(i+1), inv(i), "cli")
		}
		return a
	}

	serial := openStore(t, copyDir(t, dir), Options{})
	before := ask(serial)
	commit(serial)
	after := ask(serial)
	if serial.windowLoads != 1 || after.ops[1] != 11 || !after.seen[10] {
		t.Fatalf("serial run: %d loads, %+v", serial.windowLoads, after)
	}

	for trial := 0; trial < 20; trial++ {
		s := openStore(t, copyDir(t, dir), Options{})
		start := make(chan struct{})
		var wg sync.WaitGroup
		got := make([]answers, 4)
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[g] = ask(s)
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			commit(s)
		}()
		close(start)
		wg.Wait()
		for _, a := range got {
			for from, n := range a.ops {
				if n != before.ops[from] && n != after.ops[from] {
					t.Fatalf("trial %d: OpsSince(%d) served %d ops, want %d or %d", trial, from, n, before.ops[from], after.ops[from])
				}
			}
			for i, seen := range a.seen {
				if seen != before.seen[i] && seen != after.seen[i] {
					t.Fatalf("trial %d: WasCommitted(%d) = %v", trial, i+1, seen)
				}
			}
		}
		if final := ask(s); final != after {
			t.Fatalf("trial %d: after the race %+v, want %+v", trial, final, after)
		}
		s.mu.RLock()
		loads := s.windowLoads
		s.mu.RUnlock()
		if loads != 1 {
			t.Fatalf("trial %d: the window loaded %d times, want once", trial, loads)
		}
	}
}

// TestCorruptChainRecordAfterFooterReopen: a reopen by footer reads no
// history record, so a damaged 'O' record behind an object's latest one
// surfaces only when its window is first needed. The window then reads as
// empty: OpsSince ships the whole object and WasCommitted answers false,
// while an ops commit to the object fails instead of recording over the
// window it cannot read. Compaction fails too, is reported by CompactErr and
// waits for as many mutations again before it retries; a plain commit
// replaces the window and lets the next compaction drop the damaged record.
// A full scan checks every record and refuses the segment.
func TestCorruptChainRecordAfterFooterReopen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	a, b := obj("bad"), obj("good")
	for _, o := range []*rdo.Object{a, b} {
		if err := s.Create(o); err != nil {
			t.Fatal(err)
		}
	}
	bumpOps(t, s, a.URN, 20) // versions 2..21
	s.mu.RLock()
	rec, err := readRecordAt(s.seg, s.idx[a.URN].off, false)
	s.mu.RUnlock()
	if err != nil || rec.prevOff < 0 {
		t.Fatalf("latest record: prevOff %d, %v", rec.prevOff, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, SegmentName)
	raw, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[rec.prevOff+12] ^= 0xff // inside version 20's record
	if err := os.WriteFile(segPath, raw, 0o600); err != nil {
		t.Fatal(err)
	}

	scan := copyDir(t, dir)
	os.Remove(filepath.Join(scan, FooterName))
	if s, err := Open(Options{Dir: scan}); !errors.Is(err, stable.ErrCorrupt) {
		if err == nil {
			s.Close()
		}
		t.Fatalf("full scan of a damaged segment: %v, want ErrCorrupt", err)
	}

	s2 := openStore(t, dir, Options{CompactEvery: 4})
	if !s2.RecoveredByFooter() {
		t.Fatal("not recovered by footer")
	}
	cur, err := s2.Get(a.URN)
	if err != nil || cur.Version != 21 {
		t.Fatalf("Get = v%d, %v; want v21", cur.Version, err)
	}
	if _, _, ok := s2.OpsSince(a.URN, 19); ok {
		t.Fatal("OpsSince served a delta from a window that did not load")
	}
	last := rdo.Invocation{Object: a.URN, Method: "set", Args: []string{"19"}, BaseVer: 20}
	if s2.WasCommitted(a.URN, 20, []rdo.Invocation{last}, "cli") {
		t.Fatal("WasCommitted answered from a window that did not load")
	}
	next := rdo.Invocation{Object: a.URN, Method: "set", Args: []string{"x"}, BaseVer: 21}
	if _, err := s2.CommitOpsBy(cur, 21, []rdo.Invocation{next}, "cli"); !errors.Is(err, stable.ErrCorrupt) {
		t.Fatalf("ops commit over an unreadable window: %v, want ErrCorrupt", err)
	}

	s2.mu.Lock()
	s2.mutsSinceCompact = s2.opts.CompactEvery
	s2.mu.Unlock()
	s2.maybeCompact()
	if err := s2.CompactErr(); !errors.Is(err, stable.ErrCorrupt) {
		t.Fatalf("CompactErr = %v, want ErrCorrupt", err)
	}
	s2.mu.RLock()
	rearmed := s2.mutsSinceCompact == 0
	s2.mu.RUnlock()
	if !rearmed || s2.Occupancy().Compactions != 0 {
		t.Fatalf("failed compaction: rearmed %v, %d compactions", rearmed, s2.Occupancy().Compactions)
	}

	cur.Set("n", "plain")
	if _, err := s2.Commit(cur, 21); err != nil {
		t.Fatal(err)
	}
	compactNow(t, s2)
	if err := s2.CompactErr(); err != nil {
		t.Fatalf("CompactErr after a clean compaction = %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := openStore(t, copyDir(t, dir), Options{})
	os.Remove(filepath.Join(dir, FooterName))
	s4 := openStore(t, dir, Options{})
	if !bytes.Equal(s3.Snapshot(), s4.Snapshot()) {
		t.Fatal("footer and scan reopen differ after the damaged record was compacted away")
	}
}

// BenchmarkReopenThenDelta measures both sides of leaving history windows on
// disk at Open: a store of 1,000 objects abandoned with a tail of 9,984 ops
// commits to 128 of them is reopened by footer ("open"), and reopened then
// asked one OpsSince per touched object ("open+delta"), which reads each
// touched object's window from its record chain.
func BenchmarkReopenThenDelta(b *testing.B) {
	const objects, hot, perHot = 1000, 128, 78
	src := store.New()
	for i := range objects {
		if err := src.Create(obj(fmt.Sprintf("pop/%04d", i))); err != nil {
			b.Fatal(err)
		}
	}
	dir := b.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.LoadSnapshot(src.Snapshot()); err != nil {
		b.Fatal(err)
	}
	var wg sync.WaitGroup
	hots := make([]urn.URN, hot)
	for h := range hots {
		hots[h] = urn.MustParse(fmt.Sprintf("urn:rover:h/pop/%04d", h*7))
		wg.Add(1)
		go func(u urn.URN) {
			defer wg.Done()
			for i := range perHot {
				cur, err := s.Get(u)
				if err != nil {
					b.Error(err)
					return
				}
				cur.Set("n", strconv.Itoa(i))
				inv := rdo.Invocation{Object: u, Method: "set", Args: []string{strconv.Itoa(i)}, BaseVer: cur.Version}
				if _, err := s.CommitOpsBy(cur, cur.Version, []rdo.Invocation{inv}, "cli"); err != nil {
					b.Error(err)
					return
				}
			}
		}(hots[h])
	}
	wg.Wait()
	abandoned := filepath.Join(b.TempDir(), "abandoned")
	if err := os.CopyFS(abandoned, os.DirFS(dir)); err != nil {
		b.Fatal(err)
	}
	s.Close()

	for _, c := range []struct {
		name   string
		deltas int
	}{{"open", 0}, {"open+delta", hot}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := filepath.Join(b.TempDir(), strconv.Itoa(i))
				if err := os.CopyFS(d, os.DirFS(abandoned)); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				s, err := Open(Options{Dir: d})
				if err != nil {
					b.Fatal(err)
				}
				for _, u := range hots[:c.deltas] {
					if _, _, ok := s.OpsSince(u, perHot); !ok {
						b.Fatal("no delta after the reopen")
					}
				}
				b.StopTimer()
				if !s.RecoveredByFooter() {
					b.Fatal("not recovered by footer")
				}
				s.Close()
				b.StartTimer()
			}
		})
	}
}
