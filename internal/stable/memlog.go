package stable

import (
	"cmp"
	"slices"
	"sync"
	"time"
)

// MemLog is an in-memory Log with a modeled flush cost.
//
// Under the discrete-event simulator, a real fsync would charge wall-clock
// time to what must be virtual time, so simulated clients use a MemLog and
// the QRPC engine adds Cost() to each request's ready-time. MemLog is also
// the log of choice for unit tests that do not exercise crash recovery.
type MemLog struct {
	mu     sync.Mutex
	next   uint64
	recs   map[uint64][]byte
	opts   Options
	stats  Stats
	closed bool
	// staged is set by AppendNoSync and cleared by the next flush (Commit,
	// or an Append's own), so the modeled sync counter reflects one flush
	// per staged run, like a real log.
	staged bool
}

var _ Log = (*MemLog)(nil)

// NewMemLog returns an empty in-memory log.
func NewMemLog(opts Options) *MemLog {
	return &MemLog{next: 1, recs: make(map[uint64][]byte), opts: opts}
}

// Append implements Log.
func (l *MemLog) Append(rec []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if len(rec) > MaxRecord {
		return 0, ErrRecordBig
	}
	id := l.next
	l.next++
	l.recs[id] = rec
	l.stats.Appends++
	l.stats.BytesLogical += int64(len(rec))
	l.stats.BytesWritten += int64(len(rec))
	if !l.opts.NoSync {
		l.stats.Syncs++
		l.staged = false // this flush covers whatever was staged before it
	}
	return id, nil
}

// AppendNoSync implements Log. MemLog has no real flush to defer, so
// staging only changes the accounting: a run of staged appends is tallied
// as the single modeled sync its Commit would have cost on a real log.
func (l *MemLog) AppendNoSync(rec []byte) (uint64, error) {
	id, err := l.Append(rec)
	if err == nil && !l.opts.NoSync {
		// Append charged one flush for this record; a staged record pays
		// nothing until Commit charges the run's single flush.
		l.mu.Lock()
		l.stats.Syncs--
		l.staged = true
		l.mu.Unlock()
	}
	return id, err
}

// Commit implements Log, charging one modeled flush for a staged run.
func (l *MemLog) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.staged {
		l.staged = false
		if !l.opts.NoSync {
			l.stats.Syncs++
		}
	}
	return nil
}

// RemoveNoSync implements Log. A MemLog remove has never been charged a
// modeled flush — only appends are — so there is nothing for Commit to
// charge it either.
func (l *MemLog) RemoveNoSync(ids ...uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	for _, id := range ids {
		if _, ok := l.recs[id]; ok {
			delete(l.recs, id)
			l.stats.Removes++
		}
	}
	return nil
}

// Replay implements Log.
func (l *MemLog) Replay(fn func(id uint64, rec []byte) error) error {
	l.mu.Lock()
	type pair struct {
		id  uint64
		rec []byte
	}
	live := make([]pair, 0, len(l.recs))
	for id, rec := range l.recs {
		live = append(live, pair{id, rec})
	}
	l.mu.Unlock()
	slices.SortFunc(live, func(a, b pair) int { return cmp.Compare(a.id, b.id) })
	for _, p := range live {
		if err := fn(p.id, p.rec); err != nil {
			return err
		}
	}
	return nil
}

// Cost implements Log, returning the configured modeled flush latency.
func (l *MemLog) Cost() time.Duration {
	if l.opts.NoSync {
		return 0
	}
	return l.opts.FlushCost
}

// Stats implements Log.
func (l *MemLog) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Close implements Log.
func (l *MemLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}
