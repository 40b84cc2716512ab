package stable

import (
	"os"
	"slices"
	"sync"
	"time"
)

// FileLog is the Log over a SegmentFile: the segment owns the file — framing,
// recovery, the staging buffer, group commit, poison, rewrite — and FileLog
// adds what a Log needs on top: ids, the resident id → payload set of live
// (appended, not yet removed) records that Replay serves, remove records,
// and compaction once the file is mostly dead.
type FileLog struct {
	mu        sync.Mutex
	seg       *SegmentFile // swapped by compaction
	next      uint64
	live      map[uint64][]byte // decompressed payloads
	liveBytes int64
	removes   int64
	closed    bool
	// sweepDue is set by RemoveNoSync, which never compacts itself (its
	// caller may hold a lock it must not keep across a flush): the next
	// Commit or append checks the dead-weight ratio on its behalf.
	sweepDue bool
}

const (
	// Compaction rewrites the file once it holds more than compactFactor×
	// the live data and is past compactFloor (tiny logs are not worth it).
	compactFactor = 4
	compactFloor  = 64 << 10
)

var _ Log = (*FileLog)(nil)

// OpenFileLog opens or creates the log at path, replaying its contents. A
// torn trailing record is truncated away (see TornTail); corruption before
// the tail fails the open with ErrCorrupt.
//
// The scan's payloads alias its window, so each is copied out, back to back
// into one buffer sized from the file: a reopen allocates by the log's
// size, not once per record. When most of what was copied was removed
// further on, the live records move to one buffer of their own size. The
// records Replay then serves are views of that buffer, each capped at its
// own length.
func OpenFileLog(path string, opts Options) (*FileLog, error) {
	l := &FileLog{next: 1, live: make(map[uint64][]byte)}
	var buf []byte
	if fi, err := os.Stat(path); err == nil {
		buf = make([]byte, 0, fi.Size())
	}
	seg, err := openSegment(path, opts, 0, func(_ int64, r record) error {
		if r.id >= l.next {
			l.next = r.id + 1
		}
		if r.kind == kindRemove {
			l.dropLocked(r.id)
			return nil
		}
		p := r.payload
		if !r.inflated {
			buf = append(buf, p...)
			p = buf[len(buf)-len(p) : len(buf) : len(buf)]
		}
		l.live[r.id] = p
		l.liveBytes += int64(len(p))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if int64(len(buf)) > 2*l.liveBytes {
		keep := make([]byte, 0, l.liveBytes)
		for id, p := range l.live {
			keep = append(keep, p...)
			l.live[id] = keep[len(keep)-len(p) : len(keep) : len(keep)]
		}
	}
	l.seg = seg
	return l, nil
}

// dropLocked forgets a live record, reporting whether there was one.
func (l *FileLog) dropLocked(id uint64) bool {
	p, ok := l.live[id]
	if ok {
		l.liveBytes -= int64(len(p))
		delete(l.live, id)
	}
	return ok
}

// Append implements Log.
func (l *FileLog) Append(rec []byte) (uint64, error) {
	id, seg, seq, err := l.stage(rec)
	if err != nil {
		return 0, err
	}
	if err := seg.commit(seq); err != nil {
		return 0, err
	}
	return id, nil
}

// AppendNoSync implements Log: the record is staged and sequenced exactly
// like Append, but the call returns without writing it or waiting for the
// flush. The staged record is written and made durable by the next Commit
// (or any later Append, whose group-commit leader covers it); until then it
// waits in the segment's buffer and a crash loses it whole. Close's final
// flush also covers a staged suffix.
func (l *FileLog) AppendNoSync(rec []byte) (uint64, error) {
	id, _, _, err := l.stage(rec)
	return id, err
}

// stage stages one append record under the next id. It returns the segment
// it went to and its write sequence number there, so the caller can wait for
// durability with l.mu released.
func (l *FileLog) stage(rec []byte) (uint64, *SegmentFile, uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, nil, 0, ErrClosed
	}
	l.sweepLocked()
	_, seq, err := l.seg.stage(kindAppend, rec, l.next)
	if err != nil {
		return 0, nil, 0, err
	}
	id := l.next
	l.next++
	l.live[id] = rec
	l.liveBytes += int64(len(rec))
	return id, l.seg, seq, nil
}

// Commit implements Log: blocks until every record staged so far —
// by Append, AppendNoSync or RemoveNoSync — is in the file and durable,
// riding the group commit.
func (l *FileLog) Commit() error {
	l.mu.Lock()
	seg, closed := l.seg, l.closed
	seq := seg.staged()
	l.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if err := seg.commit(seq); err != nil {
		return err
	}
	l.mu.Lock()
	l.sweepLocked()
	l.mu.Unlock()
	return nil
}

// RemoveNoSync implements Log: the ids still live get remove records staged
// behind whatever the segment already holds, and leave the live set at once,
// so a compaction that gets in before the records are durable (it flushes
// the old file first) already leaves them out of the new one. The segment's
// next flush — any later Commit or Append — writes and syncs them.
func (l *FileLog) RemoveNoSync(ids ...uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	dead := func(id uint64) bool { _, ok := l.live[id]; return !ok }
	if slices.ContainsFunc(ids, dead) {
		ids = slices.DeleteFunc(slices.Clone(ids), dead)
	}
	if len(ids) == 0 {
		return nil
	}
	if _, _, err := l.seg.stage(kindRemove, nil, ids...); err != nil {
		return err
	}
	for _, id := range ids {
		if l.dropLocked(id) {
			l.removes++
		}
	}
	l.sweepDue = true
	return nil
}

// sweepLocked makes the dead-weight check staged removes have put off.
// Compaction is best effort: a failed rewrite leaves the log as it was and
// the next sweep tries again.
func (l *FileLog) sweepLocked() {
	if l.sweepDue {
		l.sweepDue = false
		l.maybeCompactLocked()
	}
}

// maybeCompactLocked rewrites the file once it is mostly dead weight.
func (l *FileLog) maybeCompactLocked() {
	if size := l.seg.Size(); !l.closed && size >= compactFloor && size >= compactFactor*(l.liveBytes+1) {
		l.compactLocked()
	}
}

// compactLocked rewrites the file down to its live records, in id order.
// The old segment is made durable first, so every appender still parked in
// its group commit is released by a real flush before the segment is closed
// behind the swap; the fresh one carries the log's counters on. Recovery
// resumes ids past the highest one in the file, so when the last id handed
// out is no longer live a remove record for it carries the high-water mark
// into the fresh file.
func (l *FileLog) compactLocked() error {
	old := l.seg
	if err := old.Commit(); err != nil {
		return err
	}
	fresh, err := old.Rewrite(func(fresh *SegmentFile) error {
		for _, id := range l.liveIDsLocked() {
			if _, _, err := fresh.stage(kindAppend, l.live[id], id); err != nil {
				return err
			}
		}
		if top := l.next - 1; top > 0 {
			if _, live := l.live[top]; !live {
				_, _, err := fresh.stage(kindRemove, nil, top)
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fresh.stats, fresh.torn = old.Stats(), old.torn
	fresh.stats.Compactions++
	l.seg = fresh
	return old.Close()
}

func (l *FileLog) liveIDsLocked() []uint64 {
	ids := make([]uint64, 0, len(l.live))
	for id := range l.live {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Replay implements Log.
func (l *FileLog) Replay(fn func(id uint64, rec []byte) error) error {
	l.mu.Lock()
	ids := l.liveIDsLocked()
	recs := make([][]byte, len(ids))
	for i, id := range ids {
		recs[i] = l.live[id]
	}
	l.mu.Unlock()
	for i, id := range ids {
		if err := fn(id, recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// segment returns the current segment.
func (l *FileLog) segment() *SegmentFile {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seg
}

// Poisoned reports the sticky *PoisonedError set by the first failed write
// or group-commit fsync, or nil while the log is healthy. Once non-nil,
// every append, remove and Commit returns the same error.
func (l *FileLog) Poisoned() error { return l.segment().Poisoned() }

// TornTail reports the torn trailing record recovery truncated at open, as
// a *TornTailError (errors.Is(err, ErrTornTail) is true), or nil if the
// file ended cleanly. Callers that care about the lost in-flight append —
// the QRPC client re-enqueues on the error it saw at Append time, so
// normally none do — can log or alert on it.
func (l *FileLog) TornTail() error { return l.segment().TornTail() }

// Cost implements Log: a FileLog pays its flush in wall time inside Append
// and Commit, so there is no modeled charge left for a caller to add.
func (l *FileLog) Cost() time.Duration { return 0 }

// Stats implements Log.
func (l *FileLog) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.seg.Stats()
	st.Removes = l.removes
	return st
}

// Close implements Log: the segment's Close flushes a staged suffix and
// releases every appender still waiting on it.
func (l *FileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.seg.Close()
}
