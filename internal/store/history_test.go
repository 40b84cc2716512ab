package store

import (
	"fmt"
	"testing"

	"rover/internal/rdo"
)

func inv(o *rdo.Object, n int) rdo.Invocation {
	return rdo.Invocation{Object: o.URN, Method: "add", Args: []string{fmt.Sprintf("%d", n)}}
}

// commitN applies n CommitOps commits of one invocation each.
func commitN(t *testing.T, s *Store, o *rdo.Object, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		cur, err := s.Get(o.URN)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.CommitOps(cur, cur.Version, []rdo.Invocation{inv(o, i)}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOpsSinceContiguous(t *testing.T) {
	s := New()
	o := obj("h")
	if err := s.Create(o); err != nil {
		t.Fatal(err)
	}
	commitN(t, s, o, 5) // versions 2..6
	ops, newVer, _, ok := s.OpsSince(o.URN, 1)
	if !ok || newVer != 6 || len(ops) != 5 {
		t.Fatalf("OpsSince(1) = %d ops to v%d, ok=%v; want 5 ops to v6", len(ops), newVer, ok)
	}
	if ops[0].Args[0] != "0" || ops[4].Args[0] != "4" {
		t.Fatalf("ops out of order: %v", ops)
	}
	ops, newVer, _, ok = s.OpsSince(o.URN, 4)
	if !ok || newVer != 6 || len(ops) != 2 {
		t.Fatalf("OpsSince(4) = %d ops to v%d, ok=%v; want 2 ops to v6", len(ops), newVer, ok)
	}
	// Only a one-step answer carries the exporting client.
	cur, err := s.Get(o.URN)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CommitOpsBy(cur, 6, []rdo.Invocation{inv(o, 5)}, "mobile"); err != nil {
		t.Fatal(err)
	}
	if _, v, src, ok := s.OpsSince(o.URN, 6); !ok || v != 7 || src != "mobile" {
		t.Fatalf("OpsSince(6) = v%d from %q ok=%v, want v7 from %q", v, src, ok, "mobile")
	}
	if _, _, src, ok := s.OpsSince(o.URN, 5); !ok || src != "" {
		t.Fatalf("OpsSince(5) from %q ok=%v: a two-step answer has no one source", src, ok)
	}
	// Current version: empty but contiguous history is still not a delta
	// source — callers use NotModified for that; OpsSince(cur) yields ok
	// with zero ops only if a rec matches, which it cannot.
	if _, _, _, ok := s.OpsSince(o.URN, 7); ok {
		t.Fatal("OpsSince(current version) reported ok")
	}
	// A from before recorded history cannot be served.
	if _, _, _, ok := s.OpsSince(o.URN, 0); ok {
		t.Fatal("OpsSince(0) reported ok; version 1 was a Create, not an op")
	}
}

func TestHistoryPrunedToLimit(t *testing.T) {
	s := New()
	s.SetHistoryLimit(3)
	o := obj("h")
	if err := s.Create(o); err != nil {
		t.Fatal(err)
	}
	commitN(t, s, o, 10) // versions 2..11; only 9..11 retained
	if _, _, _, ok := s.OpsSince(o.URN, 1); ok {
		t.Fatal("pruned history served a stale base")
	}
	ops, newVer, _, ok := s.OpsSince(o.URN, 8)
	if !ok || newVer != 11 || len(ops) != 3 {
		t.Fatalf("OpsSince(8) = %d ops to v%d, ok=%v; want the 3 retained ops", len(ops), newVer, ok)
	}
}

func TestPlainCommitClearsHistory(t *testing.T) {
	s := New()
	o := obj("h")
	if err := s.Create(o); err != nil {
		t.Fatal(err)
	}
	commitN(t, s, o, 3) // versions 2..4
	cur, _ := s.Get(o.URN)
	// A plain Commit is an opaque state jump (e.g. a resolver rewrote the
	// object): everything before it is no longer replayable.
	if _, err := s.Commit(cur, cur.Version); err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := s.OpsSince(o.URN, 1); ok {
		t.Fatal("history served across an opaque commit")
	}
	if _, _, _, ok := s.OpsSince(o.URN, 4); ok {
		t.Fatal("the opaque commit itself was served as a delta")
	}
	// History resumes recording after the jump.
	commitN(t, s, o, 2)
	if ops, newVer, _, ok := s.OpsSince(o.URN, 5); !ok || newVer != 7 || len(ops) != 2 {
		t.Fatalf("post-jump OpsSince(5) = %d ops to v%d, ok=%v", len(ops), newVer, ok)
	}
}

func TestHistoryDisabled(t *testing.T) {
	s := New()
	o := obj("h")
	if err := s.Create(o); err != nil {
		t.Fatal(err)
	}
	commitN(t, s, o, 3)
	s.SetHistoryLimit(-1) // disables and clears
	if _, _, _, ok := s.OpsSince(o.URN, 1); ok {
		t.Fatal("disabled history still serves deltas")
	}
	commitN(t, s, o, 2)
	if _, _, _, ok := s.OpsSince(o.URN, 4); ok {
		t.Fatal("disabled history recorded new commits")
	}
}

// TestHistoryRecordAllocs: a commit to an object whose window is full slides
// the window down in place — no allocation — and keeps it oldest first.
func TestHistoryRecordAllocs(t *testing.T) {
	h := NewHistory()
	h.SetLimit(4)
	o := obj("h")
	invs := []rdo.Invocation{inv(o, 0)}
	for v := uint64(1); v <= 4; v++ {
		h.Record(o.URN, v, invs, "c")
	}
	ver := uint64(4)
	if n := testing.AllocsPerRun(100, func() {
		ver++
		h.Record(o.URN, ver, invs, "c")
	}); n != 0 {
		t.Errorf("Record on a full window: %v allocs, want 0", n)
	}
	if ops, to, _, ok := h.OpsSince(o.URN, ver-4, ver); !ok || to != ver || len(ops) != 4 {
		t.Fatalf("OpsSince over the slid window = %d ops to v%d, ok=%v", len(ops), to, ok)
	}
	if _, _, _, ok := h.OpsSince(o.URN, ver-5, ver); ok {
		t.Fatal("the slid window still holds the entry it dropped")
	}
}
