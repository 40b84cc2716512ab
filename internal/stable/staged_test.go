package stable

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func liveIDs(t *testing.T, l Log) []uint64 {
	t.Helper()
	var ids []uint64
	if err := l.Replay(func(id uint64, _ []byte) error { ids = append(ids, id); return nil }); err != nil {
		t.Fatal(err)
	}
	return ids
}

// liveLen counts l's live records.
func liveLen(t *testing.T, l Log) int { return len(liveIDs(t, l)) }

// remove makes the removes of ids durable the one way a Log offers:
// RemoveNoSync, then Commit.
func remove(l Log, ids ...uint64) error {
	if err := l.RemoveNoSync(ids...); err != nil {
		return err
	}
	return l.Commit()
}

// TestStagedRemoveRidesNextAppend: RemoveNoSync costs no write and no
// flush, the id is gone at once, and the next Append's one write and one
// flush put both records in the file — a copy of the file as it stood before
// that Append (what a crash before it recovers) still has the record, a copy
// taken after does not.
func TestStagedRemoveRidesNextAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	id, err := l.Append([]byte("request"))
	if err != nil {
		t.Fatal(err)
	}
	before := fileSize(t, path)
	syncs := l.Stats().Syncs
	if err := l.RemoveNoSync(id); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats(); got.Syncs != syncs || got.Removes != 1 || liveLen(t, l) != 0 {
		t.Fatalf("after RemoveNoSync: syncs %d (was %d), removes %d, len %d", got.Syncs, syncs, got.Removes, liveLen(t, l))
	}
	if got := fileSize(t, path); got != before {
		t.Fatalf("RemoveNoSync grew the file %d -> %d bytes: the remove record waits for the next flush", before, got)
	}
	staged := l.segment().Size()
	if err := l.RemoveNoSync(id); err != nil || l.segment().Size() != staged || l.Stats().Removes != 1 {
		t.Fatalf("second RemoveNoSync = %v, log %d -> %d bytes: want a no-op", err, staged, l.segment().Size())
	}
	lost, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("next")); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Syncs; got != syncs+1 {
		t.Fatalf("remove + append cost %d flushes, want 1", got-syncs)
	}
	if got, want := fileSize(t, path), l.segment().Size(); got != want || got <= staged {
		t.Fatalf("after the Append the file is %d bytes, want %d: both records in", got, want)
	}

	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reopen := func(name string, b []byte) []uint64 {
		p := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(p, b, 0o600); err != nil {
			t.Fatal(err)
		}
		r, err := OpenFileLog(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		return liveIDs(t, r)
	}
	if ids := reopen("lost", lost); len(ids) != 1 || ids[0] != id {
		t.Fatalf("the file before the Append recovers %v, want the removed record back", ids)
	}
	if ids := reopen("kept", image); len(ids) != 1 || ids[0] == id {
		t.Fatalf("the flushed file recovers %v, want only the later append", ids)
	}
}

// TestStagedRemoveCommit: Commit is the durable point for a caller with
// nothing to append, on every Log.
func TestStagedRemoveCommit(t *testing.T) {
	fl, err := OpenFileLog(filepath.Join(t.TempDir(), "log"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, l := range map[string]Log{"file": fl, "mem": NewMemLog(Options{})} {
		id, err := l.Append([]byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		syncs := l.Stats().Syncs
		if err := l.RemoveNoSync(id); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := l.Commit(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := l.Commit(); err != nil { // nothing new: no second flush
			t.Fatalf("%s: %v", name, err)
		}
		want := syncs + 1
		if name == "mem" {
			want = syncs // a MemLog charges appends only
		}
		if got := l.Stats().Syncs; got != want || liveLen(t, l) != 0 {
			t.Fatalf("%s: syncs %d want %d, len %d", name, got, want, liveLen(t, l))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if err := l.RemoveNoSync(id); !errors.Is(err, ErrClosed) {
			t.Fatalf("%s: RemoveNoSync after Close = %v", name, err)
		}
	}
}

// TestStagedRemoveCompactsAtNextFlush: a staged remove never rewrites the
// file itself (its caller may be holding a lock), so a log emptied through
// RemoveNoSync alone stays long until the next Commit or append sweeps it.
func TestStagedRemoveCompactsAtNextFlush(t *testing.T) {
	for _, how := range []string{"append", "commit"} {
		path := filepath.Join(t.TempDir(), "log")
		l, err := OpenFileLog(path, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		keep, err := l.Append([]byte("survivor"))
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 1024)
		var ids []uint64
		for i := 0; i < 2*compactFloor/len(payload); i++ {
			id, err := l.Append(payload)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for _, id := range ids {
			if err := l.RemoveNoSync(id); err != nil {
				t.Fatal(err)
			}
		}
		if n := l.Stats().Compactions; n != 0 {
			t.Fatalf("RemoveNoSync compacted (%d)", n)
		}
		want := []uint64{keep}
		if how == "commit" {
			err = l.Commit()
		} else {
			var id uint64
			id, err = l.Append([]byte("next"))
			want = append(want, id)
		}
		if err != nil {
			t.Fatal(err)
		}
		if n := l.Stats().Compactions; n != 1 {
			t.Fatalf("compactions after the next %s = %d, want 1", how, n)
		}
		if size := fileSize(t, path); size > compactFloor/4 {
			t.Fatalf("file is %d bytes after the sweep", size)
		}
		if ids := liveIDs(t, l); !slices.Equal(ids, want) {
			t.Fatalf("live after the %s sweep: %v, want %v", how, ids, want)
		}
	}
}

// TestRemoveNoSyncIDs: one RemoveNoSync of several ids is one write, ids
// that are not live are skipped and a call with none live writes nothing;
// a crash before the next Commit brings every id back, one after keeps them
// gone.
func TestRemoveNoSyncIDs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var ids []uint64
	for _, rec := range []string{"a", "b", "c", "d"} {
		id, err := l.Append([]byte(rec))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := remove(l, ids[3]); err != nil {
		t.Fatal(err)
	}
	durable, writes := fileSize(t, path), l.segment().staged()
	if err := l.RemoveNoSync(ids[0], 999, ids[3], ids[1]); err != nil {
		t.Fatal(err)
	}
	if got := l.segment().staged() - writes; got != 1 {
		t.Fatalf("RemoveNoSync of two live ids took %d writes, want 1", got)
	}
	if got := liveIDs(t, l); !slices.Equal(got, ids[2:3]) {
		t.Fatalf("live after RemoveNoSync: %v, want %v", got, ids[2:3])
	}
	if st := l.Stats(); st.Removes != 3 {
		t.Fatalf("removes %d, want 3: the ids that were not live count for nothing", st.Removes)
	}
	staged, writes := fileSize(t, path), l.segment().staged()
	if err := l.RemoveNoSync(ids[0], 999, ids[3]); err != nil {
		t.Fatal(err)
	}
	if fileSize(t, path) != staged || l.segment().staged() != writes {
		t.Fatal("RemoveNoSync with no live id wrote to the log")
	}

	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	reopen := func(name string, b []byte) []uint64 {
		p := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(p, b, 0o600); err != nil {
			t.Fatal(err)
		}
		r, err := OpenFileLog(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		return liveIDs(t, r)
	}
	// What a crash before Commit keeps is the file up to its last flush.
	if got := reopen("crashed", image[:durable]); !slices.Equal(got, ids[:3]) {
		t.Fatalf("crash before Commit recovers %v, want %v back", got, ids[:3])
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := reopen("committed", committed); !slices.Equal(got, ids[2:3]) {
		t.Fatalf("after Commit a reopen recovers %v, want %v", got, ids[2:3])
	}
}
