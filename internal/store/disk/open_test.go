package disk

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"rover/internal/rdo"
	"rover/internal/stable"
	"rover/internal/store"
	"rover/internal/urn"
)

// copyDir copies the store files in src to a fresh directory, as a crash
// would leave them: whatever the open store had made durable. A file that
// is gone by the time it is read — a compaction in flight renamed its
// .compact file over the segment — is left out, as a crash just before the
// copy read it would have left the directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestOpenAllocs pins what rebuilding the index costs in allocations: a
// 10k-object store abandoned with a tail of 200 ops commits behind its
// footer reopens by footer in about 100 allocations and by full scan in
// about 120 (measured), none of them per record. The objects cost next to
// nothing: their URNs share blocks, their types are interned and the scan
// reads through one window. No record's invocations are decoded either:
// Open checks them in place and leaves each history window on disk until
// first use, so a jump here means something started keeping per record.
func TestOpenAllocs(t *testing.T) {
	const objects = 10_000
	src := store.New()
	for i := 0; i < objects; i++ {
		o := rdo.New(urn.MustParse(fmt.Sprintf("urn:rover:h/pop/%05d", i)), "t")
		o.Set("k", strconv.Itoa(i))
		if err := src.Create(o); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	if err := s.LoadSnapshot(src.Snapshot()); err != nil { // the rewrite leaves a footer
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		bumpOps(t, s, urn.MustParse(fmt.Sprintf("urn:rover:h/pop/%05d", i*997)), 20)
	}
	want := s.Snapshot()
	abandoned := copyDir(t, dir)

	for _, tc := range []struct {
		name   string
		footer bool
		max    uint64
	}{
		{"footer", true, 110},
		{"scan", false, 130},
	} {
		best := ^uint64(0)
		for run := 0; run < 3; run++ {
			d := copyDir(t, abandoned)
			if !tc.footer {
				os.Remove(filepath.Join(d, FooterName))
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s2, err := Open(Options{Dir: d})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if s2.RecoveredByFooter() != tc.footer {
				t.Fatalf("%s: RecoveredByFooter = %v", tc.name, !tc.footer)
			}
			if run == 0 && !bytes.Equal(s2.Snapshot(), want) {
				t.Fatalf("%s: reopened snapshot differs", tc.name)
			}
			s2.Close()
			best = min(best, after.Mallocs-before.Mallocs)
		}
		t.Logf("%s reopen of %d objects: %d allocations", tc.name, objects, best)
		if best > tc.max {
			t.Errorf("%s reopen of %d objects: %d allocations, want at most %d", tc.name, objects, best, tc.max)
		}
	}
}

// TestFooterListingAURNTwiceFallsBackToScan: the footer path builds its index
// without looking up each entry first, so a footer that lists one URN twice
// is caught by the count and must cost the fast path, not correctness.
func TestFooterListingAURNTwiceFallsBackToScan(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := s.Create(obj(fmt.Sprintf("d/%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	a := urn.MustParse("urn:rover:h/d/0")
	bumpOps(t, s, a, 3)
	want := s.Snapshot()
	var ents []footerEnt
	s.mu.RLock()
	for u, ent := range s.idx {
		ents = append(ents, footerEnt{u: u, ent: ent})
	}
	// The duplicate claims a's record is b's: trusted, a would read back as b.
	ents = append(ents, footerEnt{u: a, ent: s.idx[urn.MustParse("urn:rover:h/d/1")]})
	s.mu.RUnlock()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	seg, err := stable.OpenSegmentFile(filepath.Join(dir, SegmentName), stable.Options{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen := bytes.Repeat([]byte{0x5a}, footerGenLen)
	off, err := seg.AppendNoSync(encodeFooterChunk(gen, 0, ents))
	if err == nil {
		err = seg.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	side := encodeSidecar(footerInfo{gen: gen, off: off, parts: 1})
	if err := os.WriteFile(filepath.Join(dir, FooterName), side, 0o600); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	if s2.RecoveredByFooter() {
		t.Fatal("trusted a footer that lists a URN twice")
	}
	if !bytes.Equal(s2.Snapshot(), want) {
		t.Fatal("fallback scan diverged")
	}
	if v, err := s2.Version(a); err != nil || v != 4 {
		t.Fatalf("Version(a) = %d, %v; want 4", v, err)
	}
}

// TestColdGetSurvivesReadBufferReuse: a cold Get decodes the object straight
// off the segment's pooled read buffer, so the object it returns and the one
// it admits to the cache must own their bytes: later faults that reuse the
// buffer must not change them.
func TestColdGetSurvivesReadBufferReuse(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	for i := 0; i < 20; i++ {
		o := obj(fmt.Sprintf("g/%d", i))
		o.Set("body", string(bytes.Repeat([]byte{byte('a' + i)}, 100+i)))
		if err := s.Create(o); err != nil {
			t.Fatal(err)
		}
	}
	a := urn.MustParse("urn:rover:h/g/0")
	bumpOps(t, s, a, 2) // a's latest record is an ops record
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	first, err := s2.Get(a)
	if err != nil {
		t.Fatal(err)
	}
	want := first.Encode()
	for round := 0; round < 3; round++ {
		for i := 1; i < 20; i++ {
			u := urn.MustParse(fmt.Sprintf("urn:rover:h/g/%d", i))
			if _, err := s2.Get(u); err != nil {
				t.Fatal(err)
			}
		}
	}
	if occ := s2.Occupancy(); occ.ColdFaults != 20 {
		t.Fatalf("%d cold faults, want 20", occ.ColdFaults)
	}
	if got := first.Encode(); !bytes.Equal(got, want) {
		t.Fatal("the object a cold Get returned changed under later faults")
	}
	cached, err := s2.Get(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := cached.Encode(); !bytes.Equal(got, want) {
		t.Fatal("the cached copy of a faulted-in object changed under later faults")
	}
	if v, _ := cached.Get("k"); v != "g/0" || cached.URN != a || cached.Type != "t" {
		t.Fatalf("faulted-in object reads back as %s %q k=%q", cached.URN, cached.Type, v)
	}
}
