package stable

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// logFactory builds a fresh log for the shared conformance tests.
type logFactory struct {
	name string
	make func(t *testing.T, opts Options) Log
}

func factories() []logFactory {
	return []logFactory{
		{"MemLog", func(t *testing.T, opts Options) Log {
			return NewMemLog(opts)
		}},
		{"FileLog", func(t *testing.T, opts Options) Log {
			l, err := OpenFileLog(filepath.Join(t.TempDir(), "wal"), opts)
			if err != nil {
				t.Fatalf("OpenFileLog: %v", err)
			}
			return l
		}},
	}
}

func TestAppendReplayRemove(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			l := f.make(t, Options{})
			defer l.Close()
			var ids []uint64
			for i := 0; i < 10; i++ {
				id, err := l.Append([]byte(fmt.Sprintf("rec-%d", i)))
				if err != nil {
					t.Fatalf("Append: %v", err)
				}
				if len(ids) > 0 && id <= ids[len(ids)-1] {
					t.Fatalf("ids not increasing: %d after %d", id, ids[len(ids)-1])
				}
				ids = append(ids, id)
			}
			if liveLen(t, l) != 10 {
				t.Errorf("Len = %d", liveLen(t, l))
			}
			// Remove the odd records.
			for i, id := range ids {
				if i%2 == 1 {
					if err := remove(l, id); err != nil {
						t.Fatalf("Remove: %v", err)
					}
				}
			}
			var got []string
			err := l.Replay(func(id uint64, rec []byte) error {
				got = append(got, string(rec))
				return nil
			})
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			want := []string{"rec-0", "rec-2", "rec-4", "rec-6", "rec-8"}
			if len(got) != len(want) {
				t.Fatalf("Replay yielded %v", got)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("replay[%d] = %q, want %q", i, got[i], want[i])
				}
			}
		})
	}
}

// TestRemoveBatch: one RemoveNoSync and Commit removes exactly the listed
// live records, skips ids that are not live (unknown, already removed,
// listed twice), and on a FileLog costs one flush however many records it
// names — and the removes are what a reopen sees.
func TestRemoveBatch(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			dir := t.TempDir()
			var l Log
			if f.name == "FileLog" {
				fl, err := OpenFileLog(filepath.Join(dir, "wal"), Options{})
				if err != nil {
					t.Fatal(err)
				}
				l = fl
			} else {
				l = f.make(t, Options{})
			}
			var ids []uint64
			for i := 0; i < 100; i++ {
				id, err := l.Append([]byte(fmt.Sprintf("rec-%d", i)))
				if err != nil {
					t.Fatalf("Append: %v", err)
				}
				ids = append(ids, id)
			}
			if err := remove(l, ids[3]); err != nil {
				t.Fatal(err)
			}
			before := l.Stats()
			batch := append([]uint64{9999, ids[3], ids[10]}, ids[:90]...)
			if err := remove(l, batch...); err != nil {
				t.Fatalf("remove: %v", err)
			}
			after := l.Stats()
			if got := after.Removes - before.Removes; got != 89 {
				t.Errorf("Removes moved by %d, want 89", got)
			}
			if f.name == "FileLog" {
				if got := after.Syncs - before.Syncs; got != 1 {
					t.Errorf("Syncs moved by %d, want 1 for the whole batch", got)
				}
			}
			if err := remove(l); err != nil {
				t.Errorf("empty batch: %v", err)
			}
			if err := remove(l, ids[0]); err != nil {
				t.Errorf("batch of ids no longer live: %v", err)
			}
			if got := l.Stats().Syncs; got != after.Syncs {
				t.Errorf("a batch with nothing live cost %d flushes", got-after.Syncs)
			}
			check := func(l Log) {
				t.Helper()
				var got []uint64
				if err := l.Replay(func(id uint64, _ []byte) error { got = append(got, id); return nil }); err != nil {
					t.Fatal(err)
				}
				if len(got) != 10 || got[0] != ids[90] || got[9] != ids[99] {
					t.Fatalf("live after batch = %v, want ids %d..%d", got, ids[90], ids[99])
				}
			}
			check(l)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if err := remove(l, ids[90:]...); !errors.Is(err, ErrClosed) {
				t.Errorf("remove after Close = %v", err)
			}
			if f.name == "FileLog" {
				l2, err := OpenFileLog(filepath.Join(dir, "wal"), Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer l2.Close()
				check(l2)
			}
		})
	}
}

func TestRemoveUnknown(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			l := f.make(t, Options{})
			defer l.Close()
			before := l.Stats()
			if err := remove(l, 42); err != nil {
				t.Errorf("removing unknown id 42 = %v, want a no-op", err)
			}
			if after := l.Stats(); after != before {
				t.Errorf("removing an unknown id moved the stats: %+v -> %+v", before, after)
			}
		})
	}
}

func TestClosedLog(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			l := f.make(t, Options{})
			l.Close()
			if _, err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
				t.Errorf("Append after Close = %v", err)
			}
			if err := remove(l, 1); !errors.Is(err, ErrClosed) {
				t.Errorf("Remove after Close = %v", err)
			}
		})
	}
}

func TestRecordSizeLimit(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			l := f.make(t, Options{})
			defer l.Close()
			if _, err := l.Append(make([]byte, MaxRecord+1)); !errors.Is(err, ErrRecordBig) {
				t.Errorf("oversized Append = %v", err)
			}
		})
	}
}

func TestReplayError(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			l := f.make(t, Options{})
			defer l.Close()
			l.Append([]byte("a"))
			l.Append([]byte("b"))
			boom := errors.New("boom")
			calls := 0
			err := l.Replay(func(uint64, []byte) error { calls++; return boom })
			if err != boom || calls != 1 {
				t.Errorf("Replay stopped after %d calls with %v", calls, err)
			}
		})
	}
}

// TestAppendKeepsRecord pins the ownership contract: a log keeps the slice
// it is handed as the live record, so until a reopen Replay hands back that
// very slice, and the request frame, reply cache and committed object that
// are views of it share its one allocation.
func TestAppendKeepsRecord(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			l := f.make(t, Options{})
			defer l.Close()
			recs := [][]byte{[]byte("first"), []byte("second")}
			for i, rec := range recs {
				var err error
				if i == 0 {
					_, err = l.Append(rec)
				} else {
					_, err = l.AppendNoSync(rec)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			var got [][]byte
			if err := l.Replay(func(_ uint64, rec []byte) error {
				got = append(got, rec)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(recs) {
				t.Fatalf("replayed %d records, want %d", len(got), len(recs))
			}
			for i := range recs {
				if &got[i][0] != &recs[i][0] || len(got[i]) != len(recs[i]) {
					t.Errorf("record %d: replay handed back a copy, not the appended slice", i)
				}
			}
		})
	}
}

func TestFileLogRecoveryAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	l, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id1, _ := l.Append([]byte("first"))
	id2, _ := l.Append([]byte("second"))
	id3, _ := l.Append([]byte("third"))
	remove(l, id2)
	l.Close()

	l2, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	var got []string
	var gotIDs []uint64
	l2.Replay(func(id uint64, rec []byte) error {
		got = append(got, string(rec))
		gotIDs = append(gotIDs, id)
		return nil
	})
	if len(got) != 2 || got[0] != "first" || got[1] != "third" {
		t.Errorf("recovered %v", got)
	}
	if gotIDs[0] != id1 || gotIDs[1] != id3 {
		t.Errorf("recovered ids %v, want [%d %d]", gotIDs, id1, id3)
	}
	// Ids must continue past the old ones after recovery.
	id4, _ := l2.Append([]byte("fourth"))
	if id4 <= id3 {
		t.Errorf("id after recovery %d <= %d", id4, id3)
	}
}

// TestFileLogReopenAllocs: a reopen copies the records it recovers into one
// buffer sized from the file, then the live ones into one of their own
// size, so reopening a log of 1,000 appends, 750 of them removed, costs a
// few dozen allocations (mostly the live map growing), not one per
// record. Every record reads back as written, and appending to one cannot
// write into the next.
func TestFileLogReopenAllocs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := func(i int) []byte { return []byte(fmt.Sprintf("record %04d", i)) }
	for i := range 1000 {
		id, err := l.AppendNoSync(rec(i))
		if err == nil && i%4 != 0 {
			err = l.RemoveNoSync(id)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var l2 *FileLog
	n := testing.AllocsPerRun(3, func() {
		if l2 != nil {
			l2.Close()
		}
		if l2, err = OpenFileLog(path, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	defer l2.Close()
	t.Logf("reopening 1,000 records, 250 live: %v allocations", n)
	if n > 64 {
		t.Errorf("reopening 1,000 records, 250 live, allocates %v objects, want at most 64", n)
	}
	var got [][]byte
	l2.Replay(func(_ uint64, p []byte) error {
		got = append(got, p)
		return nil
	})
	if len(got) != 250 {
		t.Fatalf("%d live records after reopen, want 250", len(got))
	}
	_ = append(got[0], "overwrite"...)
	for i, p := range got {
		if !bytes.Equal(p, rec(4*i)) {
			t.Fatalf("record %d reads back as %q", 4*i, p)
		}
	}
}

func TestFileLogTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	l, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("complete record"))
	l.Append([]byte("this one will be torn"))
	l.Close()

	// Chop bytes off the tail to simulate a crash mid-write.
	data, _ := os.ReadFile(path)
	for cut := 1; cut < 12; cut++ {
		mut := filepath.Join(dir, fmt.Sprintf("torn-%d", cut))
		os.WriteFile(mut, data[:len(data)-cut], 0o600)
		lt, err := OpenFileLog(mut, Options{})
		if err != nil {
			t.Fatalf("open torn(%d): %v", cut, err)
		}
		var got []string
		lt.Replay(func(_ uint64, rec []byte) error {
			got = append(got, string(rec))
			return nil
		})
		if len(got) != 1 || got[0] != "complete record" {
			t.Errorf("torn(%d): recovered %v", cut, got)
		}
		// The log must be writable after tail truncation.
		if _, err := lt.Append([]byte("after recovery")); err != nil {
			t.Errorf("torn(%d): append after recovery: %v", cut, err)
		}
		lt.Close()
	}
}

func TestFileLogCompaction(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
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
	// Remove all but the last: the file passes 4x its live bytes on the way,
	// which trips compaction.
	for _, id := range ids[:63] {
		if err := remove(l, id); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().Compactions == 0 {
		t.Fatal("no compaction occurred")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Compaction stops below the 64 KiB floor; the file must have shrunk
	// from ~64 records (256 KiB+) to under that floor plus one record.
	if fi.Size() > compactFloor+4096+64 {
		t.Errorf("compacted file still %d bytes", fi.Size())
	}
	// Contents must survive compaction and a reopen.
	l.Append([]byte("post-compact"))
	l.Close()
	l2, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer l2.Close()
	count := 0
	l2.Replay(func(_ uint64, rec []byte) error { count++; return nil })
	if count != 2 {
		t.Errorf("recovered %d records after compaction, want 2", count)
	}
}

func TestCompressionReducesBytes(t *testing.T) {
	dir := t.TempDir()
	compressible := bytes.Repeat([]byte("abcdef"), 1000)

	open := func(name string, opts Options) *FileLog {
		l, err := OpenFileLog(filepath.Join(dir, name), opts)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	plain := open("plain", Options{})
	comp := open("comp", Options{Compress: true})
	plain.Append(compressible)
	comp.Append(compressible)
	pw, cw := plain.Stats().BytesWritten, comp.Stats().BytesWritten
	if cw >= pw {
		t.Errorf("compression did not help: %d vs %d", cw, pw)
	}
	// Compressed record must decompress identically on recovery.
	comp.Close()
	reopened, err := OpenFileLog(filepath.Join(dir, "comp"), Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	reopened.Replay(func(_ uint64, rec []byte) error {
		if !bytes.Equal(rec, compressible) {
			t.Error("compressed record corrupted on recovery")
		}
		return nil
	})
	reopened.Close()
	plain.Close()
}

// TestGroupCommitSerialSyncsEveryAppend pins the durability contract: with
// no concurrency there is nothing to coalesce, so every append pays its own
// fsync — group commit never defers durability.
func TestGroupCommitSerialSyncsEveryAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenFileLog(filepath.Join(dir, "wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, err := l.Append([]byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Stats().Syncs; got != 25 {
		t.Errorf("Syncs = %d, want 25 (serial appends never coalesce)", got)
	}
	l.Close()

	l2, err := OpenFileLog(filepath.Join(dir, "wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if liveLen(t, l2) != 25 {
		t.Errorf("recovered %d records, want 25", liveLen(t, l2))
	}
}

// TestGroupCommitCoalescesConcurrentAppends drives many concurrent
// appenders and checks that they share fsyncs: while one flush is in
// flight, later appenders write behind it and ride the next one, so the
// sync count comes out well under the append count — with every record
// still durable (verified by reopening the log).
func TestGroupCommitCoalescesConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	l, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const (
		goroutines = 8
		perG       = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent Append: %v", err)
	}
	st := l.Stats()
	if st.Appends != goroutines*perG {
		t.Fatalf("Appends = %d, want %d", st.Appends, goroutines*perG)
	}
	// At least one coalescing event must have occurred under this much
	// contention; typically syncs come out far below the append count.
	if st.Syncs >= st.Appends {
		t.Errorf("Syncs = %d not below Appends = %d: no group commit", st.Syncs, st.Appends)
	}
	t.Logf("group commit: %d appends shared %d fsyncs", st.Appends, st.Syncs)
	l.Close()

	// Every append that returned success must survive reopen.
	l2, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if liveLen(t, l2) != goroutines*perG {
		t.Errorf("recovered %d records, want %d", liveLen(t, l2), goroutines*perG)
	}
}

func TestMemLogCost(t *testing.T) {
	l := NewMemLog(Options{FlushCost: 5 * time.Millisecond})
	if l.Cost() != 5*time.Millisecond {
		t.Errorf("Cost = %v", l.Cost())
	}
	lns := NewMemLog(Options{FlushCost: 5 * time.Millisecond, NoSync: true})
	if lns.Cost() != 0 {
		t.Errorf("NoSync Cost = %v", lns.Cost())
	}
	// A FileLog pays its flush in wall time, so it has no modeled charge
	// to report, before its first fsync or after it.
	var fl Log = mustFileLog(t)
	defer fl.Close()
	if _, err := fl.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fl.Commit(); err != nil {
		t.Fatal(err)
	}
	if fl.Stats().Syncs == 0 || fl.Cost() != 0 {
		t.Errorf("FileLog after %d fsyncs: Cost = %v, want 0", fl.Stats().Syncs, fl.Cost())
	}
}

func mustFileLog(t *testing.T) *FileLog {
	l, err := OpenFileLog(filepath.Join(t.TempDir(), "wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// Property: an arbitrary interleaving of appends, removes, batch removes and
// compactions replays to exactly the live set in append order, both in
// memory (MemLog is the reference model) and across a file reopen.
func TestQuickLogEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dir, err := os.MkdirTemp("", "stable-quick")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		fl, err := OpenFileLog(filepath.Join(dir, "wal"), Options{NoSync: true})
		if err != nil {
			return false
		}
		ml := NewMemLog(Options{})
		type rec struct {
			id   uint64
			body string
		}
		var liveRecs []rec
		compactions := int64(0)
		for op := 0; op < 80; op++ {
			switch k := r.Intn(10); {
			case k < 5 || len(liveRecs) == 0:
				body := fmt.Sprintf("rec-%d-%d", seed, op)
				fid, err1 := fl.Append([]byte(body))
				mid, err2 := ml.Append([]byte(body))
				if err1 != nil || err2 != nil || fid != mid {
					return false
				}
				liveRecs = append(liveRecs, rec{fid, body})
			case k < 7:
				i := r.Intn(len(liveRecs))
				if remove(fl, liveRecs[i].id) != nil || remove(ml, liveRecs[i].id) != nil {
					return false
				}
				liveRecs = append(liveRecs[:i], liveRecs[i+1:]...)
			case k < 9:
				// A batch naming a random subset, one id twice and one id that
				// was never issued.
				batch := []uint64{1 << 40}
				kept := liveRecs[:0:0]
				for _, lr := range liveRecs {
					if r.Intn(3) == 0 {
						batch = append(batch, lr.id, lr.id)
					} else {
						kept = append(kept, lr)
					}
				}
				if remove(fl, batch...) != nil || remove(ml, batch...) != nil {
					return false
				}
				liveRecs = kept
			default:
				fl.mu.Lock()
				err := fl.compactLocked()
				fl.mu.Unlock()
				if err != nil {
					return false
				}
				compactions++
			}
			if liveLen(t, fl) != liveLen(t, ml) || fl.Stats().Removes != ml.Stats().Removes {
				return false
			}
		}
		if fl.Stats().Compactions != compactions || fl.Stats().Appends != ml.Stats().Appends {
			return false
		}
		collect := func(l Log) []string {
			var out []string
			l.Replay(func(_ uint64, b []byte) error {
				out = append(out, string(b))
				return nil
			})
			return out
		}
		want := make([]string, len(liveRecs))
		for i, lr := range liveRecs {
			want[i] = lr.body
		}
		same := func(got []string) bool {
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
			return true
		}
		if !same(collect(fl)) || !same(collect(ml)) {
			return false
		}
		// Reopen the file log: recovery must reproduce the same state.
		fl.Close()
		fl2, err := OpenFileLog(filepath.Join(dir, "wal"), Options{NoSync: true})
		if err != nil {
			return false
		}
		defer fl2.Close()
		return same(collect(fl2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
