package disk

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"rover/internal/rdo"
	"rover/internal/stable"
	"rover/internal/urn"
)

// bumpOps commits n ops mutations on u, one version step each.
func bumpOps(t *testing.T, s *Store, u urn.URN, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		cur, err := s.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		cur.Set("n", strconv.Itoa(i))
		inv := rdo.Invocation{Object: u, Method: "set", Args: []string{strconv.Itoa(i)}, BaseVer: cur.Version}
		if _, err := s.CommitOpsBy(cur, cur.Version, []rdo.Invocation{inv}, "cli"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFooterRecoveryFastPath: a clean Close leaves a footer+sidecar, so the
// next Open preads the index instead of streaming the whole segment — and
// the recovered state (population, snapshot bytes, history windows) is
// identical to what a full scan would rebuild.
func TestFooterRecoveryFastPath(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	for i := 0; i < 50; i++ {
		if err := s.Create(obj(fmt.Sprintf("f/%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	a := urn.MustParse("urn:rover:h/f/00")
	bumpOps(t, s, a, 10)
	want := s.Snapshot()
	wantOps, wantVer, _, ok := s.OpsSince(a, 5)
	if !ok {
		t.Fatal("OpsSince before close")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	if !s2.RecoveredByFooter() {
		t.Fatal("clean reopen did not take the footer fast path")
	}
	if s2.Occupancy().Objects != 50 {
		t.Fatalf("footer recovery found %d objects, want 50", s2.Occupancy().Objects)
	}
	if !bytes.Equal(s2.Snapshot(), want) {
		t.Fatal("footer-recovered snapshot diverges from pre-close snapshot")
	}
	gotOps, gotVer, _, ok := s2.OpsSince(a, 5)
	if !ok || gotVer != wantVer || len(gotOps) != len(wantOps) {
		t.Fatalf("history after footer recovery: %d ops to v%d ok=%v, want %d to v%d",
			len(gotOps), gotVer, ok, len(wantOps), wantVer)
	}
	inv := rdo.Invocation{Object: a, Method: "set", Args: []string{"9"}, BaseVer: 10}
	if !wasCommitted(t, s2, a, 10, []rdo.Invocation{inv}, "cli") {
		t.Fatal("WasCommitted lost across footer recovery")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// The sidecar is a pure accelerator: delete it and the full scan must
	// rebuild the exact same state.
	if err := os.Remove(filepath.Join(dir, FooterName)); err != nil {
		t.Fatal(err)
	}
	s3 := openStore(t, dir, Options{})
	if s3.RecoveredByFooter() {
		t.Fatal("took the footer path with no sidecar")
	}
	if !bytes.Equal(s3.Snapshot(), want) {
		t.Fatal("scan-recovered snapshot diverges from footer-recovered snapshot")
	}
}

// TestFooterCorruptSidecarFallsBack: a flipped byte anywhere in the sidecar
// must cost only the fast path, never correctness.
func TestFooterCorruptSidecarFallsBack(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if err := s.Create(obj(fmt.Sprintf("c/%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Snapshot()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	side := filepath.Join(dir, FooterName)
	raw, err := os.ReadFile(side)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(side, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	if s2.RecoveredByFooter() {
		t.Fatal("trusted a corrupt sidecar")
	}
	if !bytes.Equal(s2.Snapshot(), want) {
		t.Fatal("fallback scan diverged after sidecar corruption")
	}
}

// TestFooterStaleSidecarAfterCompaction: a sidecar from before a compaction
// points into a segment that no longer exists (the generation token catches
// the mismatch against whatever bytes now sit at that offset), so Open must
// fall back to the scan and still recover everything.
func TestFooterStaleSidecarAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{CompactEvery: 8})
	o := obj("hot")
	if err := s.Create(o); err != nil {
		t.Fatal(err)
	}
	bumpOps(t, s, o.URN, 20)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	side := filepath.Join(dir, FooterName)
	stale, err := os.ReadFile(side)
	if err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{CompactEvery: 8})
	bumpOps(t, s2, o.URN, 100) // enough dead weight to force a rewrite
	awaitCompaction(s2)
	if s2.Occupancy().Compactions == 0 {
		t.Fatal("no compaction; the stale-sidecar scenario needs a segment rewrite")
	}
	want := s2.Snapshot()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(side, stale, 0o600); err != nil {
		t.Fatal(err)
	}

	s3 := openStore(t, dir, Options{})
	if s3.RecoveredByFooter() {
		t.Fatal("trusted a sidecar from a pre-compaction segment generation")
	}
	if !bytes.Equal(s3.Snapshot(), want) {
		t.Fatal("fallback scan diverged after stale sidecar")
	}
}

// bumpUntilCompact commits ops mutations on u until a fresh compaction
// fires, leaving the mutations-since-compaction counter at zero — the next
// few mutations are then guaranteed not to trigger another rewrite.
func bumpUntilCompact(t *testing.T, s *Store, u urn.URN) {
	t.Helper()
	awaitCompaction(s) // one in flight counts mutations made before it
	before := s.Occupancy().Compactions
	for i := 0; i < 1000; i++ {
		bumpOps(t, s, u, 1)
		awaitCompaction(s)
		if s.Occupancy().Compactions > before {
			return
		}
	}
	t.Fatal("no compaction after 1000 mutations")
}

// TestFooterTailReplay: a crash AFTER compaction wrote its footer but before
// the next clean Close leaves a valid sidecar plus post-footer mutations.
// Open must take the footer path and replay just the tail.
func TestFooterTailReplay(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{CompactEvery: 8})
	o := obj("hot")
	if err := s.Create(o); err != nil {
		t.Fatal(err)
	}
	bumpOps(t, s, o.URN, 100)
	bumpUntilCompact(t, s, o.URN) // tail below stays inside the compact window
	hotVer, _ := s.Version(o.URN)
	// The sidecar as compaction left it, before Close overwrites it.
	side := filepath.Join(dir, FooterName)
	midLife, err := os.ReadFile(side)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Create(obj(fmt.Sprintf("tail/%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Snapshot()
	preClose := s.Occupancy().SegmentBytes
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: drop Close's footer, restore compaction's sidecar.
	seg := filepath.Join(dir, SegmentName)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:preClose], 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(side, midLife, 0o600); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	if !s2.RecoveredByFooter() {
		t.Fatal("crash after compaction did not recover via the footer")
	}
	if s2.Occupancy().Objects != 6 {
		t.Fatalf("recovered %d objects, want 6 (hot + 5 tail creates)", s2.Occupancy().Objects)
	}
	if v, _ := s2.Version(o.URN); v != hotVer {
		t.Fatalf("hot object at v%d, want %d", v, hotVer)
	}
	if !bytes.Equal(s2.Snapshot(), want) {
		t.Fatal("footer+tail recovery diverges from pre-crash state")
	}
}

// TestFooterTornTailTruncation: the crash-mid-commit signature combined with
// footer recovery — the torn final record truncates away, everything durable
// before it survives, and the store reports and keeps working.
func TestFooterTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{CompactEvery: 8})
	o := obj("hot")
	if err := s.Create(o); err != nil {
		t.Fatal(err)
	}
	bumpOps(t, s, o.URN, 100)
	bumpUntilCompact(t, s, o.URN) // the two creates below cannot re-compact
	side := filepath.Join(dir, FooterName)
	midLife, err := os.ReadFile(side)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Create(obj("kept")); err != nil {
		t.Fatal(err)
	}
	if err := s.Create(obj("torn")); err != nil {
		t.Fatal(err)
	}
	preClose := s.Occupancy().SegmentBytes
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, SegmentName)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Chop into the torn create's record.
	if err := os.WriteFile(seg, data[:preClose-5], 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(side, midLife, 0o600); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	if !s2.RecoveredByFooter() {
		t.Fatal("torn tail abandoned the footer path entirely")
	}
	if !errors.Is(s2.TornTail(), stable.ErrTornTail) {
		t.Fatalf("TornTail = %v", s2.TornTail())
	}
	if _, err := s2.Get(urn.MustParse("urn:rover:h/kept")); err != nil {
		t.Fatalf("durable pre-torn create lost: %v", err)
	}
	if _, err := s2.Get(urn.MustParse("urn:rover:h/torn")); err == nil {
		t.Fatal("torn create resurrected")
	}
	if err := s2.Create(obj("after")); err != nil {
		t.Fatalf("store not writable after torn-tail footer recovery: %v", err)
	}
}

// TestFooterBytesFollowTheIndex: two reopens of one abandoned store, each
// closed, write the same footer but for its generation token — the entries
// go out in segment-offset order, not in the index map's order.
func TestFooterBytesFollowTheIndex(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	for i := 0; i < 300; i++ {
		if err := s.Create(obj(fmt.Sprintf("d/%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openStore(t, dir, Options{})
	for i := 0; i < 300; i += 7 {
		bumpOps(t, s, urn.MustParse(fmt.Sprintf("urn:rover:h/d/%03d", i)), 2)
	}
	abandoned := filepath.Join(t.TempDir(), "abandoned")
	if err := os.CopyFS(abandoned, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	type rec struct {
		off int64
		p   []byte
	}
	closeCopy := func(name string) ([]rec, footerInfo) {
		d := filepath.Join(t.TempDir(), name)
		if err := os.CopyFS(d, os.DirFS(abandoned)); err != nil {
			t.Fatal(err)
		}
		s := openStore(t, d, Options{})
		if !s.RecoveredByFooter() {
			t.Fatalf("%s: the abandoned store did not reopen by footer", name)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		var recs []rec
		seg, err := stable.OpenSegmentFile(filepath.Join(d, SegmentName), stable.Options{}, 0, func(off int64, p []byte) error {
			recs = append(recs, rec{off, bytes.Clone(p)})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		seg.Close()
		raw, err := os.ReadFile(filepath.Join(d, FooterName))
		if err != nil {
			t.Fatal(err)
		}
		side, err := decodeSidecar(raw)
		if err != nil {
			t.Fatal(err)
		}
		return recs, side
	}
	a, sa := closeCopy("a")
	b, sb := closeCopy("b")
	if len(a) != len(b) || sa.off != sb.off || sa.parts != sb.parts || sa.parts == 0 {
		t.Fatalf("%d and %d records, footers at %d and %d in %d and %d parts", len(a), len(b), sa.off, sb.off, sa.parts, sb.parts)
	}
	if bytes.Equal(sa.gen, sb.gen) {
		t.Fatal("two footers share a generation token")
	}
	footers := 0
	for i := range a {
		pa, pb := a[i].p, b[i].p
		if a[i].off >= sa.off {
			pa = bytes.Replace(pa, sa.gen, sb.gen, 1)
			footers++
		}
		if a[i].off != b[i].off || !bytes.Equal(pa, pb) {
			t.Fatalf("record %d at %d and %d differs beyond the generation token", i, a[i].off, b[i].off)
		}
	}
	if uint64(footers) != sa.parts {
		t.Fatalf("%d records past the footer's start, want its %d parts", footers, sa.parts)
	}
}
