package stable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openSeg(t *testing.T, path string, opts Options) (*SegmentFile, map[int64][]byte) {
	t.Helper()
	got := map[int64][]byte{}
	s, err := OpenSegmentFile(path, opts, 0, func(off int64, rec []byte) error {
		got[off] = append([]byte(nil), rec...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, got
}

// appendDurable is AppendNoSync + Commit: one record, durable on return.
func appendDurable(s *SegmentFile, rec []byte) (int64, error) {
	off, err := s.AppendNoSync(rec)
	if err == nil {
		err = s.Commit()
	}
	return off, err
}

// readAt returns a copy of the payload ReadAtFunc serves at off.
func readAt(s *SegmentFile, off int64) (out []byte, err error) {
	err = s.ReadAtFunc(off, func(p []byte) error {
		out = append([]byte(nil), p...)
		return nil
	})
	return out, err
}

func TestSegmentAppendReadAt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	s, _ := openSeg(t, path, Options{})
	defer s.Close()
	var offs []int64
	for i := 0; i < 50; i++ {
		off, err := s.AppendNoSync([]byte(fmt.Sprintf("record-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	for i, off := range offs {
		rec, err := readAt(s, off)
		if err != nil {
			t.Fatalf("ReadAt(%d): %v", off, err)
		}
		if want := fmt.Sprintf("record-%d", i); string(rec) != want {
			t.Fatalf("ReadAt(%d) = %q, want %q", off, rec, want)
		}
	}
	if _, err := readAt(s, s.Size()); err == nil {
		t.Fatal("ReadAt past end succeeded")
	}
	if _, err := readAt(s, offs[3]+1); err == nil {
		t.Fatal("ReadAt at a non-record offset succeeded")
	}
}

func TestSegmentScanAfterReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	s, _ := openSeg(t, path, Options{})
	want := map[int64][]byte{}
	// A large record forces the streaming scan across chunk refills.
	big := bytes.Repeat([]byte("x"), 300<<10)
	for i := 0; i < 20; i++ {
		rec := []byte(fmt.Sprintf("r%d", i))
		if i == 10 {
			rec = big
		}
		off, err := appendDurable(s, rec)
		if err != nil {
			t.Fatal(err)
		}
		want[off] = append([]byte(nil), rec...)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, got := openSeg(t, path, Options{})
	defer s2.Close()
	if len(got) != len(want) {
		t.Fatalf("scan saw %d records, want %d", len(got), len(want))
	}
	for off, rec := range want {
		if !bytes.Equal(got[off], rec) {
			t.Fatalf("offset %d: scan %q want %q", off, got[off], rec)
		}
		back, err := readAt(s2, off)
		if err != nil || !bytes.Equal(back, rec) {
			t.Fatalf("ReadAt(%d) after reopen: %q, %v", off, back, err)
		}
	}
}

func TestSegmentTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	s, _ := openSeg(t, path, Options{})
	if _, err := appendDurable(s, []byte("intact")); err != nil {
		t.Fatal(err)
	}
	goodSize := s.Size()
	if _, err := appendDurable(s, []byte("will be torn")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Chop the last record mid-way: the crash-mid-append signature.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:goodSize+3], 0o600); err != nil {
		t.Fatal(err)
	}
	s2, got := openSeg(t, path, Options{})
	defer s2.Close()
	if len(got) != 1 {
		t.Fatalf("recovered %d records, want 1", len(got))
	}
	terr := s2.TornTail()
	var torn *TornTailError
	if !errors.As(terr, &torn) || torn.Offset != goodSize {
		t.Fatalf("TornTail = %v, want offset %d", terr, goodSize)
	}
	if s2.Size() != goodSize {
		t.Fatalf("size %d after truncation, want %d", s2.Size(), goodSize)
	}
	// The segment stays appendable after truncation.
	off, err := appendDurable(s2, []byte("after"))
	if err != nil || off != goodSize {
		t.Fatalf("append after truncation: off=%d err=%v", off, err)
	}
}

func TestSegmentInteriorCorruptionFailsOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	s, _ := openSeg(t, path, Options{})
	for i := 0; i < 3; i++ {
		if _, err := appendDurable(s, []byte(fmt.Sprintf("rec-%d-padding-padding", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xff // flip a byte inside the first record
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmentFile(path, Options{}, 0, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over interior corruption: %v", err)
	}
}

func TestSegmentCompressedRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	s, _ := openSeg(t, path, Options{Compress: true})
	payload := bytes.Repeat([]byte("compressible "), 200)
	off, err := appendDurable(s, payload)
	if err != nil {
		t.Fatal(err)
	}
	back, err := readAt(s, off)
	if err != nil || !bytes.Equal(back, payload) {
		t.Fatalf("compressed ReadAt: %v (len %d)", err, len(back))
	}
	if st := s.Stats(); st.BytesWritten >= st.BytesLogical {
		t.Errorf("compression did not shrink: wrote %d for %d logical", st.BytesWritten, st.BytesLogical)
	}
	s.Close()
	s2, got := openSeg(t, path, Options{Compress: true})
	defer s2.Close()
	if !bytes.Equal(got[off], payload) {
		t.Fatal("scan after reopen lost the compressed payload")
	}
}

// TestSegmentRewrite: the rewrite helper builds <path>.compact, renames it
// over the live path and hands back a fresh handle; the old handle stays
// readable until its owner closes it, and then refuses with ErrClosed rather
// than serving old offsets from the new file.
func TestSegmentRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	old, _ := openSeg(t, path, Options{})
	var offs []int64
	for i := 0; i < 10; i++ {
		off, err := appendDurable(old, []byte(fmt.Sprintf("rec-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	keep := map[int64]string{}
	fresh, err := old.Rewrite(func(tmp *SegmentFile) error {
		if _, err := os.Stat(path + ".compact"); err != nil {
			t.Errorf("rewrite file not beside the segment: %v", err)
		}
		for i := 0; i < 10; i += 3 {
			rec, err := readAt(old, offs[i]) // fill may read the segment it replaces
			if err != nil {
				return err
			}
			off, err := tmp.AppendNoSync(rec)
			if err != nil {
				return err
			}
			keep[off] = string(rec)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Fatal("rewrite file still exists after the rename")
	}
	if st := fresh.Stats(); st.Appends != int64(len(keep)) || st.Syncs != 1 {
		t.Errorf("fresh counters %+v, want the rewrite's own %d appends and 1 sync", st, len(keep))
	}
	if _, err := readAt(old, offs[9]); err != nil {
		t.Fatalf("old handle unreadable before its owner closed it: %v", err)
	}
	old.Close()
	if _, err := readAt(old, offs[9]); !errors.Is(err, ErrClosed) {
		t.Fatalf("straggling read on the replaced segment = %v, want ErrClosed", err)
	}
	off, err := appendDurable(fresh, []byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	keep[off] = "after"
	fresh.Close()
	s2, got := openSeg(t, path, Options{})
	defer s2.Close()
	if len(got) != len(keep) {
		t.Fatalf("reopen saw %d records, want %d", len(got), len(keep))
	}
	for off, want := range keep {
		if string(got[off]) != want {
			t.Errorf("offset %d = %q, want %q", off, got[off], want)
		}
	}
}

// TestSegmentRewriteFailureKeepsOld: when fill fails, the temp file is closed
// and removed and the old segment is still the live one, byte for byte.
func TestSegmentRewriteFailureKeepsOld(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	s, _ := openSeg(t, path, Options{})
	defer s.Close()
	off, err := appendDurable(s, []byte("survivor"))
	if err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(path)
	boom := errors.New("boom")
	var tmp *SegmentFile
	fresh, err := s.Rewrite(func(f *SegmentFile) error {
		tmp = f
		f.AppendNoSync([]byte("never lands"))
		return boom
	})
	if fresh != nil || !errors.Is(err, boom) {
		t.Fatalf("Rewrite = %v, %v", fresh, err)
	}
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Error("failed rewrite left its temp file behind")
	}
	if _, err := tmp.AppendNoSync([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("temp segment not closed after the failure: %v", err)
	}
	after, _ := os.ReadFile(path)
	if !bytes.Equal(before, after) {
		t.Error("failed rewrite changed the live file")
	}
	if rec, err := readAt(s, off); err != nil || string(rec) != "survivor" {
		t.Errorf("old segment after failed rewrite: %q, %v", rec, err)
	}
	if _, err := appendDurable(s, []byte("still appendable")); err != nil {
		t.Errorf("append after failed rewrite: %v", err)
	}
}

// TestOpenRemovesStaleRewriteFile: a <path>.compact that survived a crash
// before the rename is garbage; both views' open paths remove it.
func TestOpenRemovesStaleRewriteFile(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"seg", "wal"} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path+".compact", []byte("half-written rewrite"), 0o600); err != nil {
			t.Fatal(err)
		}
		var c interface{ Close() error }
		var err error
		if name == "seg" {
			c, err = OpenSegmentFile(path, Options{}, 0, nil)
		} else {
			c, err = OpenFileLog(path, Options{})
		}
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
		if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
			t.Errorf("%s: stale rewrite file survived the open", name)
		}
	}
}

func TestSegmentConcurrentAppendGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	s, _ := openSeg(t, path, Options{})
	defer s.Close()
	const workers = 8
	const per = 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				off, err := s.AppendNoSync([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					errs <- err
					return
				}
				if err := s.Commit(); err != nil {
					errs <- err
					return
				}
				if _, err := readAt(s, off); err != nil {
					errs <- fmt.Errorf("readback: %w", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Appends != workers*per {
		t.Fatalf("appends %d", st.Appends)
	}
	if st.Syncs >= st.Appends {
		t.Logf("no group-commit coalescing observed (%d syncs for %d appends)", st.Syncs, st.Appends)
	}
}
