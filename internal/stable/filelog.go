package stable

import (
	"sort"
	"sync"
	"time"
)

// FileLog is the Log over a SegmentFile: the segment owns the file — framing,
// recovery, group commit, poison, rewrite — and FileLog adds what a Log
// needs on top: ids, the resident id → payload set of live (appended, not yet
// removed) records that Replay serves, remove records, and compaction once
// the file is mostly dead.
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

var _ BatchLog = (*FileLog)(nil)

// OpenFileLog opens or creates the log at path, replaying its contents. A
// torn trailing record is truncated away (see TornTail); corruption before
// the tail fails the open with ErrCorrupt.
func OpenFileLog(path string, opts Options) (*FileLog, error) {
	l := &FileLog{next: 1, live: make(map[uint64][]byte)}
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
			p = append([]byte(nil), p...) // aliases the scan buffer
		}
		l.live[r.id] = p
		l.liveBytes += int64(len(p))
		return nil
	})
	if err != nil {
		return nil, err
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

// AppendNoSync implements BatchLog: the record is written and sequenced
// exactly like Append, but the call returns without waiting for the flush.
// The staged record becomes durable at the next Commit (or any later
// durable Append/Remove, whose group-commit leader covers it); until then a
// crash loses it as a torn tail. Close's final flush also covers a staged
// suffix.
func (l *FileLog) AppendNoSync(rec []byte) (uint64, error) {
	id, _, _, err := l.stage(rec)
	return id, err
}

// stage writes one append record under the next id. It returns the segment
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
	l.live[id] = append([]byte(nil), rec...)
	l.liveBytes += int64(len(rec))
	return id, l.seg, seq, nil
}

// Commit implements Log: blocks until every record written so far —
// including AppendNoSync and RemoveNoSync staging — is durable, riding the
// group commit.
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

// Remove implements Log.
func (l *FileLog) Remove(id uint64) error { return l.remove(true, id) }

// RemoveNoSync implements Log: the remove record is written behind whatever
// the segment already holds; the segment's next flush — any later Commit,
// Append or durable remove — makes it durable.
func (l *FileLog) RemoveNoSync(id uint64) error { return l.remove(false, id) }

func (l *FileLog) remove(wait bool, id uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if _, ok := l.live[id]; !ok {
		return ErrNotFound
	}
	return l.removeLocked(wait, id)
}

// RemoveBatch implements Log: one remove record per live id, staged in a
// single write and made durable by a single group commit.
func (l *FileLog) RemoveBatch(ids []uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	live := make([]uint64, 0, len(ids))
	for _, id := range ids {
		if _, ok := l.live[id]; ok {
			live = append(live, id)
		}
	}
	if len(live) == 0 {
		return nil
	}
	return l.removeLocked(true, live...)
}

// removeLocked writes a remove record per id and drops the ids from the live
// set at once, so a compaction that gets in before the records are durable
// (it flushes the old file first) already leaves them out of the new one.
// With wait set it then waits, l.mu released, for the records to be durable
// — the only error that wait can return is the segment's poison — and
// compacts if the file is now mostly dead weight; without, the next Commit
// or append makes that check (sweepDue). Compaction is best effort: a failed rewrite
// leaves the log as it was and the next remove tries again.
func (l *FileLog) removeLocked(wait bool, ids ...uint64) error {
	seg := l.seg
	_, seq, err := seg.stage(kindRemove, nil, ids...)
	if err != nil {
		return err
	}
	for _, id := range ids {
		if l.dropLocked(id) {
			l.removes++
		}
	}
	if !wait {
		l.sweepDue = true
		return nil
	}
	l.mu.Unlock()
	err = seg.commit(seq)
	l.mu.Lock()
	if err != nil {
		return err
	}
	l.maybeCompactLocked()
	return nil
}

// sweepLocked makes the dead-weight check staged removes have put off.
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
// behind the swap; the fresh one carries the log's counters on.
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
		return nil
	})
	if err != nil {
		return err
	}
	fresh.stats, fresh.syncEWMA, fresh.torn = old.Stats(), old.Cost(), old.torn
	fresh.stats.Compactions++
	l.seg = fresh
	return old.Close()
}

func (l *FileLog) liveIDsLocked() []uint64 {
	ids := make([]uint64, 0, len(l.live))
	for id := range l.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
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

// Len implements Log.
func (l *FileLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.live)
}

// segment returns the current segment.
func (l *FileLog) segment() *SegmentFile {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seg
}

// Poisoned reports the sticky *PoisonedError set by the first failed write
// or group-commit fsync, or nil while the log is healthy. Once non-nil,
// every Append and Remove returns the same error.
func (l *FileLog) Poisoned() error { return l.segment().Poisoned() }

// TornTail reports the torn trailing record recovery truncated at open, as
// a *TornTailError (errors.Is(err, ErrTornTail) is true), or nil if the
// file ended cleanly. Callers that care about the lost in-flight append —
// the QRPC client re-enqueues on the error it saw at Append time, so
// normally none do — can log or alert on it.
func (l *FileLog) TornTail() error { return l.segment().TornTail() }

// Cost implements Log: a FileLog pays its flush cost in wall time inside
// Append, but reports a rolling estimate of that cost — an EWMA over its
// own group-commit fsync durations — so schedulers and stats lines can see
// what a flush actually costs on this disk. Zero until the first fsync
// completes (and always zero under NoSync).
func (l *FileLog) Cost() time.Duration { return l.segment().Cost() }

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
