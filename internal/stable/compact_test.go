package stable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

// appendChecked is FileLog.Append taken apart so the test can stand between
// the write and the durability wait, and can see what the wait delivered:
// when it returns, the segment the record was staged in must have completed
// an fsync covering it — released by a real flush, not merely let go.
func appendChecked(l *FileLog, rec []byte, staged func()) (uint64, error) {
	id, seg, seq, err := l.stage(rec)
	if err != nil {
		return 0, err
	}
	if staged != nil {
		staged()
	}
	if err := seg.commit(seq); err != nil {
		return 0, err
	}
	seg.mu.Lock()
	defer seg.mu.Unlock()
	if seg.syncedSeq < seq {
		return 0, fmt.Errorf("id %d returned with write %d not durable (synced through %d)", id, seq, seg.syncedSeq)
	}
	return id, nil
}

// TestCompactionUnderConcurrentAppenders swaps the segment under appenders
// that have written their record and not yet waited for it, and under
// free-running appenders and a remover: no append is lost or fails, none
// returns before it is durable, and ids keep strictly increasing across the
// swaps and across a reopen.
func TestCompactionUnderConcurrentAppenders(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	compact := func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if err := l.compactLocked(); err != nil {
			t.Errorf("compaction: %v", err)
		}
	}
	var (
		mu       sync.Mutex
		appended = map[uint64]string{}
		removed  = map[uint64]bool{}
	)
	record := func(id uint64, body string) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := appended[id]; dup {
			t.Errorf("id %d handed out twice", id)
		}
		appended[id] = body
	}

	// Phase 1: every appender parked between its write and its wait while
	// the compaction commits, swaps and closes the segment behind them.
	const parked = 8
	var staged, done sync.WaitGroup
	release := make(chan struct{})
	staged.Add(parked)
	for g := 0; g < parked; g++ {
		done.Add(1)
		go func(g int) {
			defer done.Done()
			body := fmt.Sprintf("parked-%d", g)
			id, err := appendChecked(l, []byte(body), func() { staged.Done(); <-release })
			if err != nil {
				t.Errorf("parked appender %d: %v", g, err)
				return
			}
			record(id, body)
		}(g)
	}
	staged.Wait()
	compact()
	close(release)
	done.Wait()

	// Phase 2: appenders, a remover that keeps the file mostly dead (so the
	// 4x trigger fires on its own), and forced compactions, all at once.
	const (
		appenders = 6
		perG      = 60
	)
	pad := bytes.Repeat([]byte("p"), 2048)
	toRemove := make(chan uint64, appenders*perG) // sized to every send
	for g := 0; g < appenders; g++ {
		done.Add(1)
		go func(g int) {
			defer done.Done()
			var last uint64
			for i := 0; i < perG; i++ {
				body := fmt.Sprintf("g%d-%d-%s", g, i, pad)
				var id uint64
				var err error
				if g%2 == 0 {
					id, err = appendChecked(l, []byte(body), nil)
				} else {
					id, err = l.Append([]byte(body))
				}
				if err != nil {
					t.Errorf("appender %d: %v", g, err)
					return
				}
				if id <= last {
					t.Errorf("appender %d: id %d after %d", g, id, last)
				}
				last = id
				record(id, body)
				if i%8 != 0 {
					toRemove <- id
				}
			}
		}(g)
	}
	var removers sync.WaitGroup
	removers.Add(1)
	go func() {
		defer removers.Done()
		n := 0
		for id := range toRemove {
			if err := l.Remove(id); err != nil {
				t.Errorf("Remove(%d): %v", id, err)
			}
			mu.Lock()
			removed[id] = true
			mu.Unlock()
			if n++; n%40 == 0 {
				compact()
			}
		}
	}()
	done.Wait()
	close(toRemove)
	removers.Wait()

	if st := l.Stats(); st.Compactions < 3 {
		t.Errorf("only %d compactions ran", st.Compactions)
	} else if st.Appends != int64(len(appended)) || st.Removes != int64(len(removed)) {
		t.Errorf("counters did not carry across the swaps: %+v, want %d appends %d removes", st, len(appended), len(removed))
	}
	check := func(l *FileLog) (maxID uint64) {
		t.Helper()
		var wantIDs []uint64
		for id := range appended {
			if !removed[id] {
				wantIDs = append(wantIDs, id)
			}
		}
		sort.Slice(wantIDs, func(i, j int) bool { return wantIDs[i] < wantIDs[j] })
		var gotIDs []uint64
		l.Replay(func(id uint64, rec []byte) error {
			if string(rec) != appended[id] {
				t.Errorf("id %d replays %.20q, appended %.20q", id, rec, appended[id])
			}
			gotIDs = append(gotIDs, id)
			return nil
		})
		if fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) {
			t.Fatalf("live ids %v, want %v", gotIDs, wantIDs)
		}
		return wantIDs[len(wantIDs)-1]
	}
	maxID := check(l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	check(l2)
	if id, err := l2.Append([]byte("next")); err != nil || id <= maxID {
		t.Errorf("first id after reopen = %d, %v; want > %d", id, err, maxID)
	}
}

// TestFailedCompactionDoesNotFailRemove: by the time compaction runs the
// remove is durable and applied, so a rewrite that cannot happen (here: the
// rewrite path is occupied by a directory) is not the remove's error. The
// log stays usable, and the next remove retries — and succeeds once the
// obstacle is gone.
func TestFailedCompactionDoesNotFailRemove(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte("x"), 4096)
	var ids []uint64
	for i := 0; i < 64; i++ {
		id, err := l.Append(payload)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := os.Mkdir(path+".compact", 0o700); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	err = l.compactLocked()
	l.mu.Unlock()
	if err == nil {
		t.Fatal("compaction succeeded with its rewrite path blocked")
	}
	for _, id := range ids[:60] {
		if err := l.Remove(id); err != nil {
			t.Fatalf("Remove(%d) reported the compaction's failure: %v", id, err)
		}
	}
	if st := l.Stats(); st.Compactions != 0 || st.Removes != 60 {
		t.Fatalf("stats with compaction blocked: %+v", st)
	}
	if _, err := l.Append([]byte("still usable")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path + ".compact"); err != nil {
		t.Fatal(err)
	}
	if err := l.Remove(ids[60]); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Compactions != 1 {
		t.Errorf("the next remove did not retry the compaction: %+v", st)
	}
	if err := l.Remove(ids[60]); !errors.Is(err, ErrNotFound) {
		t.Errorf("second Remove = %v", err)
	}
	if l.Len() != 4 {
		t.Errorf("Len = %d, want 4", l.Len())
	}
}
