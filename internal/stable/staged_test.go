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

// TestStagedRemoveRidesNextAppend: RemoveNoSync costs no flush, the id is
// gone at once, and the next Append's one flush makes the remove durable — a
// copy of the file cut before the remove record still has the record (what a
// crash before that flush recovers), a copy taken after does not.
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
	if got := l.Stats(); got.Syncs != syncs || got.Removes != 1 || l.Len() != 0 {
		t.Fatalf("after RemoveNoSync: syncs %d (was %d), removes %d, len %d", got.Syncs, syncs, got.Removes, l.Len())
	}
	if err := l.RemoveNoSync(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second RemoveNoSync = %v, want ErrNotFound", err)
	}
	if fileSize(t, path) == before {
		t.Fatal("RemoveNoSync wrote nothing: the remove record must be in the file for the next flush to cover")
	}
	if _, err := l.Append([]byte("next")); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Syncs; got != syncs+1 {
		t.Fatalf("remove + append cost %d flushes, want 1", got-syncs)
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
	if ids := reopen("lost", image[:before]); len(ids) != 1 || ids[0] != id {
		t.Fatalf("cut before the remove record recovers %v, want the removed record back", ids)
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
		if got := l.Stats().Syncs; got != want || l.Len() != 0 {
			t.Fatalf("%s: syncs %d want %d, len %d", name, got, want, l.Len())
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
