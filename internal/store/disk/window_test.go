package disk

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"rover/internal/rdo"
	"rover/internal/stable"
	"rover/internal/store"
	"rover/internal/urn"
)

// eagerHistory is the reference chain reads are held to: every object record
// of the segment in dir replayed in order into a fresh History, a 'Z'
// record's window recorded entry by entry, as a store that kept its windows
// in memory would have them.
func eagerHistory(t *testing.T, dir string) *store.History {
	t.Helper()
	h := store.NewHistory()
	seg, err := stable.OpenSegmentFile(filepath.Join(dir, SegmentName), stable.Options{}, 0,
		func(off int64, p []byte) error {
			if len(p) > 0 && p[0] == recFooter {
				return nil
			}
			rec, err := decodeRecord(p, newNames())
			if err != nil {
				return err
			}
			switch rec.kind {
			case recState:
				h.Clear(rec.urn)
			case recOps:
				e := opsOf(t, rec.ops)
				h.Record(rec.urn, rec.ver, e.Invs, e.Src)
			case recSnap:
				h.Clear(rec.urn)
				for _, e := range snapWindow(t, rec) {
					h.Record(rec.urn, e.Ver, e.Invs, e.Src)
				}
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
// installs and snapshot loads. Compactions happen on their own (CompactEvery
// is small) and leave the reference untouched, as they leave the history.
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
	case r < 2:
		cur.Set("n", "plain")
		if _, err := s.Commit(cur, cur.Version); err != nil {
			t.Fatal(err)
		}
		ref.Clear(u)
	case r < 3:
		cur.Version += uint64(1 + m.rng.Intn(3))
		if _, err := s.InstallState(cur); err != nil {
			t.Fatal(err)
		}
		ref.Clear(u)
	case r < 4 && m.rng.Intn(4) == 0:
		if err := s.LoadSnapshot(s.Snapshot()); err != nil {
			t.Fatal(err)
		}
		ref.ClearAll()
	default:
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
		ref.Record(u, ver, invs, src)
	}
}

// check asks s and ref the same questions, and s must answer as ref does:
// OpsSince from every version an object has had, and WasCommitted for every
// export that made a version, under every source, and for an export that
// never happened.
func (m *windowModel) check(s *Store, ref *store.History, where string) {
	t := m.t
	t.Helper()
	for _, u := range m.urns {
		ver, err := s.Version(u)
		if err != nil {
			t.Fatal(err)
		}
		for from := uint64(0); from <= ver; from++ {
			gotOps, gotVer, gotSrc, gotOK := s.OpsSince(u, from)
			wantOps, wantVer, wantSrc, wantOK := ref.OpsSince(u, from, ver)
			if gotOK != wantOK || gotVer != wantVer || gotSrc != wantSrc || !reflect.DeepEqual(gotOps, wantOps) {
				t.Fatalf("%s: OpsSince(%s, %d) = %d ops to v%d from %q ok=%v, want %d ops to v%d from %q ok=%v",
					where, u.Path, from, len(gotOps), gotVer, gotSrc, gotOK, len(wantOps), wantVer, wantSrc, wantOK)
			}
			c, ok := m.log[u][from+1]
			if !ok {
				continue
			}
			never := []rdo.Invocation{{Object: u, Method: "never", BaseVer: from}}
			for _, src := range windowSources {
				for _, invs := range [][]rdo.Invocation{c.Invs, never} {
					got, want := wasCommitted(t, s, u, from, invs, src), ref.WasCommitted(u, from, invs, src)
					if got != want {
						t.Fatalf("%s: WasCommitted(%s, %d, %s, %q) = %v, want %v", where, u.Path, from, invs[0].Method, src, got, want)
					}
				}
			}
		}
	}
}

// TestLazyWindowsMatchEagerReplay: history read from the record chain when a
// question needs it answers OpsSince and WasCommitted as the windows a full
// replay of the segment builds. Each seeded history lives through several
// reopens (clean, by full scan, and abandoned without Close), so that
// commits and compactions meet chains written by earlier incarnations; the
// last segment is then reopened by footer and by full scan, and checked
// straight away and after more mutations. Odd seeds compact every few
// mutations, so windows pass through 'Z' records and are carried on by
// later 'O' records; even ones never compact.
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
	awaitCompaction(s)
	if s.Occupancy().Compactions != before+1 {
		t.Fatalf("the segment was not rewritten: %v", s.CompactErr())
	}
}

// TestCompactionKeepsUnloadedWindows: a compaction right after a reopen
// meets windows nobody has read since. It must copy each from its record
// chain into the object's snapshot record, or the rewrite drops a window and
// the next reopen forgets the exports it held.
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
	compactNow(t, s2) // no object touched since the reopen
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3 := openStore(t, dir, Options{})
	last := rdo.Invocation{Object: a.URN, Method: "set", Args: []string{"19"}, BaseVer: 20}
	if !wasCommitted(t, s3, a.URN, 20, []rdo.Invocation{last}, "cli") {
		t.Fatal("WasCommitted lost an export committed before the first reopen")
	}
	ops, ver, _, ok := s3.OpsSince(a.URN, 18)
	if !ok || ver != 21 || len(ops) != 3 || ops[2].Args[0] != "19" {
		t.Fatalf("OpsSince(18) after compaction = %d ops to v%d ok=%v, want 3 to v21", len(ops), ver, ok)
	}
}

// setInv is the invocation bumpOps and the tests below commit to make
// version ver of u.
func setInv(u urn.URN, ver uint64) []rdo.Invocation {
	return []rdo.Invocation{{Object: u, Method: "set", Args: []string{strconv.FormatUint(ver-2, 10)}, BaseVer: ver - 1}}
}

// TestChainReadsRaceCommits: readers walk an object's record chain while a
// committer extends it and compactions rewrite the segment under them.
// Every answer must be one the store gives asked alone at some version
// between the one it had before the question and the one after: a delta of
// exactly the ops that made its versions, and an export recognised exactly
// when its version is among the last store.DefaultHistoryLimit.
func TestChainReadsRaceCommits(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{CompactEvery: 8})
	o := obj("race")
	if err := s.Create(o); err != nil {
		t.Fatal(err)
	}
	u := o.URN
	const commits = 120
	ask := func(t *testing.T) {
		v0, _ := s.Version(u)
		from := uint64(1 + rand.Intn(int(v0)+1))
		ops, ver, _, ok := s.OpsSince(u, from)
		base := uint64(1 + rand.Intn(int(v0)+1))
		seen, err := s.WasCommitted(u, base, setInv(u, base+1), "cli")
		v1, _ := s.Version(u)
		if err != nil {
			t.Errorf("WasCommitted(%d): %v", base, err)
			return
		}
		if ok {
			var want []rdo.Invocation
			for v := from + 1; v <= ver; v++ {
				want = append(want, setInv(u, v)...)
			}
			if ver < v0 || ver > v1 || !reflect.DeepEqual(ops, want) {
				t.Errorf("OpsSince(%d) = %d ops to v%d between v%d and v%d", from, len(ops), ver, v0, v1)
			}
		} else if from < v0 && v1-from <= store.DefaultHistoryLimit {
			t.Errorf("OpsSince(%d) served nothing between v%d and v%d", from, v0, v1)
		}
		inWindow := func(v uint64) bool { return base < v && v-base <= store.DefaultHistoryLimit }
		if seen && !inWindow(v0) && !inWindow(v1) || !seen && inWindow(v0) && inWindow(v1) {
			t.Errorf("WasCommitted(%d) = %v between v%d and v%d", base, seen, v0, v1)
		}
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					ask(t)
				}
			}
		}()
	}
	bumpOps(t, s, u, commits)
	close(done)
	wg.Wait()
	awaitCompaction(s)
	if s.Occupancy().Compactions == 0 {
		t.Fatal("no compaction ran under the readers")
	}
	for range 50 {
		ask(t) // and alone, once the commits are in
	}
}

// TestCorruptChainRecordAfterFooterReopen: a reopen by footer reads no
// history record, so a damaged 'O' record behind an object's latest one
// surfaces only when a question reaches it. OpsSince then ships the whole
// object, and WasCommitted fails, so the export it was asked about is
// refused rather than run again; questions that stop short of the damage
// are answered, and ops commits go on. Compaction fails too, is reported by
// CompactErr and waits for as many mutations again before it retries; a
// plain commit ends the history and lets the next compaction drop the
// damaged record. A full scan checks every record and refuses the segment.
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
	rec, err := readRecordAt(s.seg, s.idx[a.URN].off)
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
	if _, _, _, ok := s2.OpsSince(a.URN, 19); ok {
		t.Fatal("OpsSince served a delta across a record that does not read back")
	}
	if ops, _, _, ok := s2.OpsSince(a.URN, 20); !ok || len(ops) != 1 {
		t.Fatalf("OpsSince(20), short of the damage: %d ops ok=%v", len(ops), ok)
	}
	if seen, err := s2.WasCommitted(a.URN, 19, setInv(a.URN, 20), "cli"); !errors.Is(err, stable.ErrCorrupt) {
		t.Fatalf("WasCommitted over the damaged record = %v, %v; want ErrCorrupt", seen, err)
	}
	if !wasCommitted(t, s2, a.URN, 20, setInv(a.URN, 21), "cli") {
		t.Fatal("WasCommitted short of the damage missed the export")
	}
	bumpOps(t, s2, a.URN, 1) // version 22, linked to 21
	cur, err = s2.Get(a.URN)
	if err != nil {
		t.Fatal(err)
	}

	s2.mu.Lock()
	s2.mutsSinceCompact = s2.opts.CompactEvery
	s2.mu.Unlock()
	s2.maybeCompact()
	awaitCompaction(s2)
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
	if _, err := s2.Commit(cur, 22); err != nil {
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

// readPayload returns a copy of the segment record at off.
func readPayload(t *testing.T, s *Store, off int64) []byte {
	t.Helper()
	var p []byte
	if err := s.seg.ReadAtFunc(off, func(b []byte) error {
		p = bytes.Clone(b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCompactionSnapMatchesEncode: the 'Z' record compaction copies out of
// an object's record chain is byte for byte encodeSnap of the reference
// window — the object's last store.DefaultHistoryLimit ops commits since its
// last plain one, as they were made — including windows carried through an
// earlier 'Z' record and trimmed as the chain grows past them; an object
// whose history a plain commit ended gets an 'S' record.
func TestCompactionSnapMatchesEncode(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{CompactEvery: 1 << 20})
	rng := rand.New(rand.NewSource(7))
	var urns []urn.URN
	made := map[urn.URN][]store.OpsRec{} // ops commits since the last plain one
	for i := range 6 {
		o := obj(fmt.Sprintf("z/%d", i))
		if err := s.Create(o); err != nil {
			t.Fatal(err)
		}
		urns = append(urns, o.URN)
	}
	commit := func(u urn.URN, plain bool) {
		cur, err := s.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		cur.Set("n", strconv.Itoa(rng.Intn(100)))
		if plain {
			if _, err := s.Commit(cur, cur.Version); err != nil {
				t.Fatal(err)
			}
			made[u] = nil
			return
		}
		invs := make([]rdo.Invocation, 1+rng.Intn(2))
		for i := range invs {
			invs[i] = rdo.Invocation{Object: u, Method: "set", Args: []string{strconv.Itoa(rng.Intn(9)), "x"}, BaseVer: cur.Version}
		}
		src := windowSources[rng.Intn(len(windowSources))]
		ver, err := s.CommitOpsBy(cur, cur.Version, invs, src)
		if err != nil {
			t.Fatal(err)
		}
		made[u] = append(made[u], store.OpsRec{Ver: ver, Invs: invs, Src: src})
	}
	for round := range 3 {
		for i, u := range urns {
			for range 3 + 7*i {
				commit(u, false)
			}
			if i == 1 && round == 2 {
				commit(u, true)
			}
		}
		compactNow(t, s)
		for _, u := range urns {
			s.mu.RLock()
			ent := s.idx[u]
			s.mu.RUnlock()
			p := readPayload(t, s, ent.off)
			rec, err := decodeRecord(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			window := made[u][max(0, len(made[u])-store.DefaultHistoryLimit):]
			if len(window) == 0 {
				if rec.kind != recState {
					t.Fatalf("round %d, %s: record kind %c with no history, want S", round, u.Path, rec.kind)
				}
				continue
			}
			if want := encodeSnap(u, ent.ver, rec.obj, window); !bytes.Equal(p, want) {
				t.Fatalf("round %d, %s: the 'Z' record compaction wrote is not encodeSnap of the %d-entry window", round, u.Path, len(window))
			}
		}
	}
}

// TestCompactionWindowCopyAllocs pins compaction's copy of a history window
// at no allocation once its scratch has grown: the chain is read into the
// segment's pooled buffer and the entries copied out as bytes, none decoded.
// The window here spans an earlier 'Z' record and the 'O' records after it.
func TestCompactionWindowCopyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts, so allocation counts mean nothing")
	}
	s := openStore(t, t.TempDir(), Options{CompactEvery: 1 << 20})
	o := obj("copy")
	if err := s.Create(o); err != nil {
		t.Fatal(err)
	}
	bumpOps(t, s, o.URN, 40)
	compactNow(t, s)
	bumpOps(t, s, o.URN, 10)
	s.mu.RLock()
	ent := s.idx[o.URN]
	s.mu.RUnlock()
	var w windowCopy
	copyWindow := func() {
		s.mu.RLock()
		defer s.mu.RUnlock()
		if err := copyWindow(s.seg, &w, o.URN, ent, nil); err != nil {
			t.Fatal(err)
		}
	}
	copyWindow()
	if len(w.ents) != store.DefaultHistoryLimit {
		t.Fatalf("copied %d entries, want %d", len(w.ents), store.DefaultHistoryLimit)
	}
	if n := testing.AllocsPerRun(100, copyWindow); n != 0 {
		t.Errorf("copying a window allocates %v objects, want 0", n)
	}
}

// TestCachedHeadAllocs: while the LRU holds an object an ops commit wrote,
// a delta one version behind and a redelivery check of that commit read no
// record — OpsSince allocates only the slice it returns, WasCommitted
// nothing. In a store whose cache admits nothing (a one-byte budget leaves
// every object oversized), both read the chain and answer the same.
func TestCachedHeadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts, so allocation counts mean nothing")
	}
	for _, tc := range []struct {
		name       string
		cacheBytes int64
	}{{"cached", 0}, {"uncached", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			s := openStore(t, t.TempDir(), Options{CacheBytes: tc.cacheBytes})
			o := obj("head")
			if err := s.Create(o); err != nil {
				t.Fatal(err)
			}
			bumpOps(t, s, o.URN, 5) // versions 2..6
			last := setInv(o.URN, 6)
			ops, ver, _, ok := s.OpsSince(o.URN, 5)
			if !ok || ver != 6 || !reflect.DeepEqual(ops, last) {
				t.Fatalf("OpsSince(5) = %v to v%d ok=%v, want %v to v6", ops, ver, ok, last)
			}
			if !wasCommitted(t, s, o.URN, 5, last, "cli") || wasCommitted(t, s, o.URN, 5, last, "other") {
				t.Fatal("WasCommitted does not tell the latest export by its source")
			}
			if occ := s.Occupancy(); (occ.ResidentObjects == 0) != (tc.cacheBytes == 1) {
				t.Fatalf("%d objects resident under a budget of %d", occ.ResidentObjects, tc.cacheBytes)
			}
			n := testing.AllocsPerRun(100, func() {
				s.OpsSince(o.URN, 5)
				s.WasCommitted(o.URN, 5, last, "cli")
			})
			switch {
			case tc.cacheBytes == 0 && n != 1:
				t.Errorf("answering from the cached head allocates %v objects, want 1", n)
			case tc.cacheBytes == 1 && n <= 1:
				t.Errorf("answering from the chain allocates %v objects, want the decode's too", n)
			}
		})
	}
}

// BenchmarkReopenThenDelta measures both sides of leaving history windows on
// disk at Open: a store of 1,000 objects abandoned with a tail of 9,984 ops
// commits to 128 of them is reopened by footer ("open"), and reopened then
// asked one OpsSince per touched object ("open+delta"), which reads each
// touched object's window from its record chain.
func BenchmarkReopenThenDelta(b *testing.B) {
	abandoned, hots := abandonedHotStore(b)
	b.Run("open", func(b *testing.B) { benchReopen(b, abandoned, nil) })
	b.Run("open+delta", func(b *testing.B) {
		benchReopen(b, abandoned, func(s *Store) {
			for _, u := range hots {
				if _, _, _, ok := s.OpsSince(u, hotCommits); !ok {
					b.Fatal("no delta after the reopen")
				}
			}
		})
	})
}

// BenchmarkReopenThenRedeliver is BenchmarkReopenThenDelta's store reopened
// by footer and then asked, for each touched object, whether the export
// that made its latest version was committed: the redelivery check a
// client's resent export meets after a crash.
func BenchmarkReopenThenRedeliver(b *testing.B) {
	abandoned, hots := abandonedHotStore(b)
	last := make([][]rdo.Invocation, len(hots))
	for h, u := range hots {
		last[h] = []rdo.Invocation{{Object: u, Method: "set", Args: []string{strconv.Itoa(hotCommits - 1)}, BaseVer: hotCommits}}
	}
	benchReopen(b, abandoned, func(s *Store) {
		for h, u := range hots {
			if !wasCommitted(b, s, u, hotCommits, last[h], "cli") {
				b.Fatal("the last export was not recognised after the reopen")
			}
		}
	})
}

// hotCommits is how many ops commits abandonedHotStore makes to each of its
// touched objects, taking them from version 1 to hotCommits+1.
const hotCommits = 78

// abandonedHotStore builds a store of 1,000 objects, commits hotCommits ops
// to each of 128 of them concurrently, and returns a copy of its directory
// taken before Close (a footer from the snapshot load and the ops behind
// it) with the touched objects' URNs.
func abandonedHotStore(b *testing.B) (string, []urn.URN) {
	const objects, hot = 1000, 128
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
			for i := range hotCommits {
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
	return abandoned, hots
}

// benchReopen times reopening a fresh copy of the store in abandoned by
// footer, then running after on it (nil: the reopen alone). The caller's
// setup is not timed.
func benchReopen(b *testing.B, abandoned string, after func(*Store)) {
	b.ReportAllocs()
	b.ResetTimer()
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
		if after != nil {
			after(s)
		}
		b.StopTimer()
		if !s.RecoveredByFooter() {
			b.Fatal("not recovered by footer")
		}
		s.Close()
		// Collect the closed store's garbage here, or the next Open pays for it.
		runtime.GC()
		b.StartTimer()
	}
}
