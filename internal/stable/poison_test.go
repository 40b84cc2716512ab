package stable

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// swapFile replaces the file under a segment — the tests' one seam for I/O
// failure, set before the goroutines under test start. A read-only handle
// fails every write (EBADF) and a pipe's write end accepts writes but fails
// fsync (EINVAL), which reaches the two poison paths without a hook in the
// engine.
func swapFile(s *SegmentFile, f *os.File) *os.File {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.f
	s.f = f
	return old
}

// poisonTarget drives the engine either bare or through a FileLog.
type poisonTarget struct {
	seg          func() *SegmentFile
	append       func([]byte) error
	appendNoSync func([]byte) error
	commit       func() error
	remove       func() error // nil for a bare segment, which has no removes
	poisoned     func() error
	close        func() error
}

var poisonViews = []string{"SegmentFile", "FileLog"}

func openPoisonTarget(t *testing.T, view, path string) poisonTarget {
	t.Helper()
	if view == "SegmentFile" {
		s, err := OpenSegmentFile(path, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return poisonTarget{
			seg:          func() *SegmentFile { return s },
			append:       func(b []byte) error { _, err := appendDurable(s, b); return err },
			appendNoSync: func(b []byte) error { _, err := s.AppendNoSync(b); return err },
			commit:       s.Commit,
			poisoned:     s.Poisoned,
			close:        s.Close,
		}
	}
	l, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return poisonTarget{
		seg:          l.segment,
		append:       func(b []byte) error { _, err := l.Append(b); return err },
		appendNoSync: func(b []byte) error { _, err := l.AppendNoSync(b); return err },
		commit:       l.Commit,
		remove:       func() error { return l.Remove(1) },
		poisoned:     l.Poisoned,
		close:        l.Close,
	}
}

// TestFailedIOPoisons: a failed write and a failed fsync both poison the one
// engine, through either view. Every caller riding the failure — whichever
// of them led the flush and whichever waited behind it — and every later
// append, commit and remove gets the same sticky *PoisonedError; restoring
// the file does not heal it; and what was durable before the failure is all
// there at the next open.
func TestFailedIOPoisons(t *testing.T) {
	failures := map[string]func(t *testing.T, path string) *os.File{
		"write": func(t *testing.T, path string) *os.File {
			ro, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			return ro
		},
		"fsync": func(t *testing.T, _ string) *os.File {
			r, w, err := os.Pipe()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			return w
		},
	}
	for fname, broken := range failures {
		for _, vname := range poisonViews {
			t.Run(fname+"/"+vname, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "log")
				v := openPoisonTarget(t, vname, path)
				if err := v.append([]byte("durable before the fault")); err != nil {
					t.Fatal(err)
				}
				sizeBefore := v.seg().Size()
				bad := broken(t, path)
				good := swapFile(v.seg(), bad)

				const callers = 8
				errs := make([]error, callers)
				var wg sync.WaitGroup
				for i := range errs {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						errs[i] = v.append([]byte("rides the failure"))
					}(i)
				}
				wg.Wait()
				for i, err := range errs {
					var pe *PoisonedError
					if !errors.Is(err, ErrPoisoned) || !errors.As(err, &pe) || pe.Cause == nil {
						t.Errorf("caller %d: %v, want a *PoisonedError", i, err)
					}
				}

				swapFile(v.seg(), good) // a disk that works again heals nothing
				bad.Close()
				later := map[string]func() error{
					"Append":       func() error { return v.append([]byte("x")) },
					"AppendNoSync": func() error { return v.appendNoSync([]byte("x")) },
					"Remove":       v.remove,
				}
				if fname == "fsync" {
					// Records reached the (substitute) file unflushed, so there is
					// something for Commit to refuse; after a failed write nothing
					// is staged and Commit has nothing to wait for.
					later["Commit"] = v.commit
				}
				for name, op := range later {
					if op == nil {
						continue
					}
					if err := op(); !errors.Is(err, ErrPoisoned) {
						t.Errorf("%s on the poisoned log = %v, want ErrPoisoned", name, err)
					}
				}
				if err := v.poisoned(); !errors.Is(err, ErrPoisoned) {
					t.Errorf("Poisoned() = %v", err)
				}
				if got := v.seg().Size(); fname == "write" && got != sizeBefore {
					t.Errorf("segment grew %d -> %d after a failed write", sizeBefore, got)
				}
				v.close()
				if st, _ := os.Stat(path); st.Size() != sizeBefore {
					t.Errorf("file is %d bytes, want the %d that were durable before the fault", st.Size(), sizeBefore)
				}

				v = openPoisonTarget(t, vname, path)
				defer v.close()
				if err := v.poisoned(); err != nil {
					t.Errorf("reopened log still poisoned: %v", err)
				}
				if got := v.seg().Size(); got != sizeBefore {
					t.Errorf("reopened size %d, want %d", got, sizeBefore)
				}
				if err := v.append([]byte("after reopen")); err != nil {
					t.Errorf("append after reopen: %v", err)
				}
			})
		}
	}
}

// TestShortWriteIsTornTailAtReopen: the bytes a failed write may have left
// are never followed by another record (the poison refuses it), so the next
// open sees them as a torn tail, not as interior corruption.
func TestShortWriteIsTornTailAtReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("intact")); err != nil {
		t.Fatal(err)
	}
	end := l.segment().Size()
	// What a short write leaves: the front half of a record, and a poison.
	half := appendRecord(nil, kindAppend, 2, []byte("only half of this lands"), false)[:9]
	seg := l.segment()
	seg.mu.Lock()
	seg.f.Write(half)
	seg.syncErr = &PoisonedError{Cause: errors.New("write: short write")}
	seg.mu.Unlock()
	if _, err := l.Append([]byte("must not land after the garbage")); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Append after a short write = %v", err)
	}
	l.Close()
	if st, _ := os.Stat(path); st.Size() != end+int64(len(half)) {
		t.Fatalf("file is %d bytes, want %d: something was written after the failed write", st.Size(), end+int64(len(half)))
	}
	l2, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatalf("reopen after a short write: %v", err)
	}
	defer l2.Close()
	var tt *TornTailError
	if err := l2.TornTail(); !errors.As(err, &tt) || tt.Offset != end {
		t.Errorf("TornTail = %v, want offset %d", err, end)
	}
	if got := replayAll(t, l2); len(got) != 1 || got[0] != "intact" {
		t.Errorf("recovered %v", got)
	}
}
