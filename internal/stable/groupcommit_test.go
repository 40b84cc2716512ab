package stable

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rover/internal/yield"
)

// TestGroupCommitWritesBeforeSync: a nil Commit means its records are in the
// file, through either view of the engine. Staged records wait in the
// buffer and one Commit writes them all; under concurrent appenders every
// nil Commit finds its caller's record on disk; and a record staged while a
// leader fsyncs is left to a later leader, which writes it before it
// captures its own target.
func TestGroupCommitWritesBeforeSync(t *testing.T) {
	rec := make([]byte, 100)
	for _, vname := range poisonViews {
		t.Run(vname+"/staged", func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			v := openPoisonTarget(t, vname, path)
			defer v.close()
			base := fileSize(t, path)
			const k = 16
			for i := 0; i < k; i++ {
				if err := v.appendNoSync(rec); err != nil {
					t.Fatal(err)
				}
			}
			if got := fileSize(t, path); got != base {
				t.Fatalf("%d staged records grew the file %d -> %d bytes", k, base, got)
			}
			end, syncs := v.seg().Size(), v.seg().Stats().Syncs
			if end < base+k*int64(len(rec)) {
				t.Fatalf("%d staged records of %d bytes end at %d, from %d", k, len(rec), end, base)
			}
			if err := v.commit(); err != nil {
				t.Fatal(err)
			}
			if got := fileSize(t, path); got != end {
				t.Fatalf("after Commit the file is %d bytes, want all %d records in: %d", got, k, end)
			}
			if got := v.seg().Stats().Syncs; got != syncs+1 {
				t.Fatalf("Commit of %d staged records cost %d flushes, want 1", k, got-syncs)
			}
		})

		t.Run(vname+"/concurrent", func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			v := openPoisonTarget(t, vname, path)
			defer v.close()
			const goroutines, rounds = 8, 200
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						if err := v.appendNoSync(rec); err != nil {
							t.Error(err)
							return
						}
						// At least this goroutine's record end: the Commit
						// below covers everything staged before it is called.
						end := v.seg().Size()
						if err := v.commit(); err != nil {
							t.Error(err)
							return
						}
						if fi, err := os.Stat(path); err != nil || fi.Size() < end {
							t.Errorf("a nil Commit left the file short of its record's end %d: %v, %v", end, fi, err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})

		t.Run(vname+"/during-sync", func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			v := openPoisonTarget(t, vname, path)
			defer v.close()
			var (
				fired      atomic.Bool
				end1, end3 int64
				waiter     = make(chan error, 1)
			)
			restore := yield.Set(func(site string) {
				if site != yieldSync || !fired.CompareAndSwap(false, true) {
					return
				}
				// This leader fsyncs the first record with mu released. A
				// second record is staged behind the flush and its
				// committer waits; a third is staged while it waits.
				if err := v.appendNoSync(rec); err != nil {
					waiter <- err
					return
				}
				end2 := v.seg().Size()
				go func() {
					err := v.commit()
					if fi, serr := os.Stat(path); err == nil && (serr != nil || fi.Size() < end2) {
						t.Errorf("the waiter's nil Commit left the file short of %d: %v, %v", end2, fi, serr)
					}
					waiter <- err
				}()
				// Let the waiter reach its wait. Whether it has or not, it
				// must write nothing while this flush is in flight.
				time.Sleep(5 * time.Millisecond)
				if fi, err := os.Stat(path); err != nil || fi.Size() != end1 {
					t.Errorf("the file is not the %d bytes the flush in flight wrote: %v, %v", end1, fi, err)
				}
				if err := v.appendNoSync(rec); err != nil {
					t.Error(err)
					return
				}
				end3 = v.seg().Size()
			})
			defer restore()
			if err := v.appendNoSync(rec); err != nil {
				t.Fatal(err)
			}
			end1 = v.seg().Size()
			syncs := v.seg().Stats().Syncs
			if err := v.commit(); err != nil {
				t.Fatal(err)
			}
			if !fired.Load() {
				t.Fatal("the leader passed no yield point while it synced")
			}
			if err := <-waiter; err != nil {
				t.Fatal(err)
			}
			// The waiter led the second flush, which covers the third record
			// too: its Commit returns at once, with the record in the file.
			if err := v.commit(); err != nil {
				t.Fatal(err)
			}
			if got := fileSize(t, path); got < end3 {
				t.Fatalf("a nil Commit left the file at %d bytes, short of the record staged during the flush (end %d)", got, end3)
			}
			if got := v.seg().Stats().Syncs; got != syncs+2 {
				t.Fatalf("three records staged around one flush cost %d flushes, want 2", got-syncs)
			}
		})
	}
}
