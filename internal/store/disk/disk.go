package disk

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"rover/internal/rdo"
	"rover/internal/stable"
	"rover/internal/store"
	"rover/internal/urn"
	"rover/internal/wire"
)

// Defaults for Options fields left zero.
const (
	DefaultCacheBytes   = 64 << 20
	DefaultCompactEvery = 1 << 15
)

// SegmentName is the segment file inside Options.Dir. Compaction writes
// SegmentName + ".compact" beside it and renames over it atomically; a
// surviving .compact file is always a crash leftover, and opening the
// segment removes it.
const SegmentName = "store.seg"

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("disk: store is closed")

// Options configure a disk store.
type Options struct {
	// Dir is the store directory (created if absent). The segment lives at
	// Dir/store.seg.
	Dir string
	// CacheBytes bounds the hot-object LRU (estimated decoded bytes);
	// <= 0 selects DefaultCacheBytes.
	CacheBytes int64
	// CompactEvery is how many committed mutations elapse between
	// compaction checks; <= 0 selects DefaultCompactEvery. A check only
	// rewrites when the segment holds more than twice its live data, so
	// pure-insert workloads never pay a rewrite.
	CompactEvery int
}

// idxEnt is the resident per-object index entry: everything List/Version
// need plus the byte offset of the object's latest segment record — the
// fault-in address. ~100 bytes per object; this index and the LRU are the
// store's whole resident footprint.
type idxEnt struct {
	ver  uint64
	off  int64
	rlen int64 // on-disk record length (live-bytes accounting)
	typ  string
	kind byte // segment record kind at off (footer recovery, delta streaming)
}

// Store is the disk-backed Backend. See the package comment for the
// shape; the essential invariants are:
//
//   - Publish-after-durable: a mutation's record is appended and fsynced
//     (riding the segment's group commit) BEFORE the index, history, LRU,
//     and observer see it, and before the mutation returns. Readers never
//     observe state that a crash could lose, and the index only ever
//     points at durable records — so fault-in cannot read a torn record.
//     A crash between append and publish leaves a durable record the
//     committer never acknowledged; recovery replays it — the same
//     crash-before-ack window the session journal has, absorbed by
//     WasCommitted and the engine's reply cache.
//   - Per-object commit slots: concurrent committers of one object
//     serialize (version checks stay correct), while committers of
//     different objects proceed concurrently and coalesce onto one fsync.
//   - Compaction gate: the compactor excludes new mutations, drains
//     in-flight committers, rewrites every live object (plus its history
//     window) into a fresh segment, fsyncs, renames over the old path, and
//     swaps — readers are excluded only during the rewrite itself.
//
// A failed segment fsync poisons the segment permanently: every later
// mutation fails with stable.ErrPoisoned, while reads keep working.
type Store struct {
	mu   sync.RWMutex
	cond *sync.Cond // begin/compaction gate waiters

	path string
	opts Options
	seg  *stable.SegmentFile

	idx        map[urn.URN]idxEnt
	hist       *store.History
	lru        *lruCache
	committing map[urn.URN]struct{}
	compacting bool
	closed     bool

	onApply func(store.ApplyEvent)

	mutsSinceCompact int
	liveBytes        int64
	compactions      int64
	coldFaults       atomic.Int64

	// Footer bookkeeping. segFooterBytes is the weight of 'X' records in
	// the current segment (excluded from the compaction dead-weight test —
	// a footer is overhead, not reclaimable garbage in the 2× sense).
	// cleanFooter means the on-disk sidecar+footer describe the segment
	// exactly through its end, so Close need not write another.
	segFooterBytes    int64
	cleanFooter       bool
	recoveredByFooter bool
}

var _ store.Backend = (*Store)(nil)

// Open opens (or creates) the store under opts.Dir, replaying the segment
// to rebuild the index and the per-object history windows. A torn trailing
// record — a crash mid-commit — is truncated away (TornTail reports it);
// compaction leftovers from a crash mid-rewrite are removed.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("disk: Options.Dir is required")
	}
	if opts.CacheBytes <= 0 {
		opts.CacheBytes = DefaultCacheBytes
	}
	if opts.CompactEvery <= 0 {
		opts.CompactEvery = DefaultCompactEvery
	}
	if err := os.MkdirAll(opts.Dir, 0o700); err != nil {
		return nil, fmt.Errorf("disk: %w", err)
	}
	s := &Store{
		path:       filepath.Join(opts.Dir, SegmentName),
		opts:       opts,
		idx:        make(map[urn.URN]idxEnt),
		hist:       store.NewHistory(),
		lru:        newLRU(opts.CacheBytes),
		committing: make(map[urn.URN]struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	// Fast path: a valid sidecar points at an index footer near the
	// segment's end — rebuild from it and scan only the tail.
	if s.openFromFooter() {
		return s, nil
	}
	var scanned int
	nm := newNames()
	seg, err := stable.OpenSegmentFile(s.path, stable.Options{},
		func(off int64, rec []byte) error {
			scanned++
			if len(rec) > 0 && rec[0] == recFooter {
				// A footer run whose sidecar is gone or stale: index data we
				// cannot trust, carried as overhead until the next rewrite.
				s.segFooterBytes += int64(len(rec)) + 16
				return nil
			}
			return s.applyScan(off, rec, nm)
		})
	if err != nil {
		return nil, err
	}
	s.seg = seg
	s.sumLiveBytes()
	// Inherit the segment's dead weight as compaction pressure: without
	// this, a server that crashes and reboots more often than CompactEvery
	// mutations apart would reset the counter every boot and never compact,
	// no matter how dead its segment grew. (The rewrite itself still waits
	// for the next mutation — a read-only reopen never rewrites.)
	if dead := scanned - len(s.idx); dead > 0 {
		s.mutsSinceCompact = dead
	}
	return s, nil
}

// RecoveredByFooter reports whether this Open took the footer fast path
// instead of the full streaming scan (observability for tests and bench).
func (s *Store) RecoveredByFooter() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.recoveredByFooter
}

// applyScan replays one segment record into the index and history during
// Open — the same transitions the publish paths make, minus the cache and
// the live-bytes count, which sumLiveBytes takes once the index is built.
// The record is decoded in place through n: p need only outlive the call.
func (s *Store) applyScan(off int64, p []byte, n *names) error {
	if len(p) > 0 && p[0] == recFooter {
		return nil // index footer chunk: recovery metadata, not object state
	}
	rec, err := decodeRecord(p, n)
	if err != nil {
		return fmt.Errorf("disk: segment offset %d: %w", off, err)
	}
	typ, err := objType(rec.obj, n)
	if err != nil {
		return fmt.Errorf("disk: segment offset %d: %w", off, err)
	}
	rlen := int64(len(p)) + 16 // approximate framing; exact enough for the 2× heuristic
	objs := len(s.idx)
	s.idx[rec.urn] = idxEnt{ver: rec.ver, off: off, rlen: rlen, typ: typ, kind: rec.kind}
	if len(s.idx) == objs {
		n.keys[rec.urn] = rec.urn // seen before: the key its later records reuse
	}
	switch rec.kind {
	case recState:
		s.hist.Clear(rec.urn)
	case recOps:
		if !s.hist.Record(rec.urn, rec.ver, rec.invs, rec.src) {
			s.hist.Clear(rec.urn)
		}
	case recSnap:
		s.hist.Clear(rec.urn)
		s.hist.Restore(rec.urn, rec.hist)
	}
	return nil
}

// sumLiveBytes sets liveBytes from a freshly rebuilt index.
func (s *Store) sumLiveBytes() {
	s.liveBytes = 0
	for _, ent := range s.idx {
		s.liveBytes += ent.rlen
	}
}

func (s *Store) setIdxLocked(u urn.URN, ent idxEnt) {
	if old, ok := s.idx[u]; ok {
		s.liveBytes -= old.rlen
	}
	s.idx[u] = ent
	s.liveBytes += ent.rlen
}

func (s *Store) notifyLocked(ev store.ApplyEvent) {
	if s.onApply != nil {
		s.onApply(ev)
	}
}

// begin acquires u's commit slot — waiting out a concurrent committer of
// the same object and any compaction gate — and returns u's current index
// entry. The caller must end with commitRecord or release.
func (s *Store) begin(u urn.URN) (idxEnt, bool, error) {
	s.mu.Lock()
	for {
		if s.closed {
			s.mu.Unlock()
			return idxEnt{}, false, ErrClosed
		}
		_, busy := s.committing[u]
		if !s.compacting && !busy {
			break
		}
		s.cond.Wait()
	}
	s.committing[u] = struct{}{}
	ent, ok := s.idx[u]
	s.mu.Unlock()
	return ent, ok, nil
}

func (s *Store) release(u urn.URN) {
	s.mu.Lock()
	delete(s.committing, u)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// commitRecord appends rec, waits for durability (coalescing with other
// committers' fsync), then publishes under the store lock and releases u's
// slot. publish runs only on success, with the record's offset and on-disk
// length.
func (s *Store) commitRecord(u urn.URN, rec []byte, publish func(off, rlen int64)) error {
	s.mu.Lock()
	seg := s.seg
	off, err := seg.AppendNoSync(rec)
	end := seg.Size()
	s.mu.Unlock()
	if err == nil {
		err = seg.Commit()
	}
	s.mu.Lock()
	delete(s.committing, u)
	var compact bool
	if err == nil {
		publish(off, end-off)
		s.mutsSinceCompact++
		s.cleanFooter = false
		compact = s.mutsSinceCompact >= s.opts.CompactEvery
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	if compact {
		s.maybeCompact()
	}
	return err
}

// Create implements store.Backend.
func (s *Store) Create(obj *rdo.Object) error {
	cp := obj.Clone()
	cp.Version = 1
	_, ok, err := s.begin(cp.URN)
	if err != nil {
		return err
	}
	if ok {
		s.release(cp.URN)
		return fmt.Errorf("%w: %s", store.ErrExists, cp.URN)
	}
	rec, objBytes := encodeState(cp.URN, 1, cp)
	return s.commitRecord(cp.URN, rec, func(off, rlen int64) {
		s.setIdxLocked(cp.URN, idxEnt{ver: 1, off: off, rlen: rlen, typ: cp.Type, kind: recState})
		s.lru.put(cp)
		s.notifyLocked(store.ApplyEvent{Kind: store.ApplyState, URN: cp.URN, Version: 1, Object: objBytes})
	})
}

// Commit implements store.Backend (see Store.Commit in the parent package
// for the optimistic-concurrency contract; a plain Commit is an opaque jump
// and clears the object's history).
func (s *Store) Commit(obj *rdo.Object, expect uint64) (uint64, error) {
	return s.commitOps(obj, expect, nil, "", true)
}

// CommitOps implements store.Backend.
func (s *Store) CommitOps(obj *rdo.Object, expect uint64, invs []rdo.Invocation) (uint64, error) {
	return s.commitOps(obj, expect, invs, "", true)
}

// CommitOpsBy implements store.Backend.
func (s *Store) CommitOpsBy(obj *rdo.Object, expect uint64, invs []rdo.Invocation, src string) (uint64, error) {
	return s.commitOps(obj, expect, invs, src, true)
}

// InstallOps implements store.Backend: CommitOpsBy without the observer
// echo (see the in-memory Store.InstallOps).
func (s *Store) InstallOps(obj *rdo.Object, expect uint64, invs []rdo.Invocation, src string) (uint64, error) {
	return s.commitOps(obj, expect, invs, src, false)
}

func (s *Store) commitOps(obj *rdo.Object, expect uint64, invs []rdo.Invocation, src string, notify bool) (uint64, error) {
	ent, ok, err := s.begin(obj.URN)
	if err != nil {
		return 0, err
	}
	if !ok {
		s.release(obj.URN)
		return 0, fmt.Errorf("%w: %s", store.ErrNotFound, obj.URN)
	}
	if ent.ver != expect {
		s.release(obj.URN)
		return 0, fmt.Errorf("%w on %s: store at %d, caller read %d",
			store.ErrRace, obj.URN, ent.ver, expect)
	}
	obj.Version = expect + 1
	var rec, objBytes []byte
	recKind := recState
	if len(invs) > 0 {
		// The chain link points at the object's previous record (ent.off),
		// letting recovery and far-behind catch-up walk versions backwards.
		rec, objBytes = encodeOps(obj.URN, expect, obj.Version, src, invs, obj, ent.off)
		recKind = recOps
	} else {
		rec, objBytes = encodeState(obj.URN, obj.Version, obj)
	}
	err = s.commitRecord(obj.URN, rec, func(off, rlen int64) {
		s.setIdxLocked(obj.URN, idxEnt{ver: obj.Version, off: off, rlen: rlen, typ: obj.Type, kind: recKind})
		s.lru.put(obj)
		if s.hist.Record(obj.URN, obj.Version, invs, src) {
			if notify {
				s.notifyLocked(store.ApplyEvent{Kind: store.ApplyOps, URN: obj.URN,
					PrevVersion: expect, Version: obj.Version, Invs: invs, Src: src, Object: objBytes})
			}
		} else {
			// History disabled or a no-op commit: an opaque jump.
			s.hist.Clear(obj.URN)
			if notify {
				s.notifyLocked(store.ApplyEvent{Kind: store.ApplyState, URN: obj.URN,
					PrevVersion: expect, Version: obj.Version, Object: objBytes})
			}
		}
	})
	if err != nil {
		return 0, err
	}
	return expect + 1, nil
}

// InstallState implements store.Backend: whole-object install without an
// expect check, refusing version regression, observer-silent.
func (s *Store) InstallState(obj *rdo.Object) (uint64, error) {
	ent, ok, err := s.begin(obj.URN)
	if err != nil {
		return 0, err
	}
	if ok && obj.Version < ent.ver {
		s.release(obj.URN)
		return 0, fmt.Errorf("store: install %s at %d would regress from %d",
			obj.URN, obj.Version, ent.ver)
	}
	cp := obj.Clone()
	rec, _ := encodeState(cp.URN, cp.Version, cp)
	err = s.commitRecord(cp.URN, rec, func(off, rlen int64) {
		s.setIdxLocked(cp.URN, idxEnt{ver: cp.Version, off: off, rlen: rlen, typ: cp.Type, kind: recState})
		s.hist.Clear(cp.URN)
		s.lru.put(cp)
	})
	if err != nil {
		return 0, err
	}
	return cp.Version, nil
}

// Get implements store.Backend: a cache hit clones the resident object; a
// miss faults the object in with a pread of its latest segment record,
// admits it to the LRU, and counts a cold fault. The pread runs under the
// read lock so compaction cannot swap the segment mid-read. The record is
// decoded in place on the pooled read buffer, its URN resolved to u itself,
// and only rdo.Decode copies out what the object keeps.
func (s *Store) Get(u urn.URN) (*rdo.Object, error) {
	s.mu.RLock()
	ent, ok := s.idx[u]
	if !ok {
		s.mu.RUnlock()
		return nil, fmt.Errorf("%w: %s", store.ErrNotFound, u)
	}
	if obj := s.lru.get(u, ent.ver); obj != nil {
		s.mu.RUnlock()
		return obj, nil
	}
	var obj *rdo.Object
	nm := names{held: u}
	err := s.seg.ReadAtFunc(ent.off, func(p []byte) error {
		rec, err := decodeRecord(p, &nm)
		if err == nil && rec.urn != u {
			err = fmt.Errorf("disk: record at %d holds %s", ent.off, rec.urn)
		}
		if err == nil {
			obj, err = rdo.Decode(rec.obj)
		}
		return err
	})
	s.mu.RUnlock()
	if err != nil {
		return nil, fmt.Errorf("disk: fault-in %s: %w", u, err)
	}
	s.coldFaults.Add(1)
	s.lru.put(obj)
	return obj.Clone(), nil
}

// Version implements store.Backend — index-only, never touches disk.
func (s *Store) Version(u urn.URN) (uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ent, ok := s.idx[u]
	if !ok {
		return 0, fmt.Errorf("%w: %s", store.ErrNotFound, u)
	}
	return ent.ver, nil
}

// OpsSince implements store.Backend (see Store.OpsSince in the parent
// package for the contiguity contract). History windows are rebuilt from
// the segment at Open and persisted through compaction, so deltas keep
// working across restarts.
func (s *Store) OpsSince(u urn.URN, from uint64) ([]rdo.Invocation, uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ent, ok := s.idx[u]
	if !ok {
		return nil, 0, false
	}
	return s.hist.OpsSince(u, from, ent.ver)
}

// maxStreamChain bounds StreamOpsSince's backward walk. Past ~64k versions
// the offset list itself is still tiny, but the replica is so far behind
// that shipping the object's state is almost certainly cheaper than
// replaying the delta.
const maxStreamChain = 1 << 16

// StreamOpsSince implements store.OpsReader: it streams the ops records
// that advance u from version `from` up to the version current at the call,
// oldest first, reading them straight from the segment via each record's
// chain link — the far-behind catch-up path that keeps working long after
// the in-memory history window pruned those versions.
//
// ok=false with a nil error means the delta cannot be served — the object
// reached its version through an opaque jump, the chain left the current
// segment (compaction swapped it mid-walk), or the span is unreasonable —
// and the caller should fall back to full-state transfer. An error from fn
// aborts the stream and is returned as (false, err).
//
// Memory stays bounded regardless of how far behind `from` is: the backward
// pass retains only one offset per version, and the forward pass re-reads
// one record at a time.
func (s *Store) StreamOpsSince(u urn.URN, from uint64, fn func(ver uint64, invs []rdo.Invocation, src string, obj []byte) error) (bool, error) {
	s.mu.RLock()
	ent, ok := s.idx[u]
	seg := s.seg
	s.mu.RUnlock()
	if !ok || from >= ent.ver || ent.ver-from > maxStreamChain || ent.kind != recOps {
		return false, nil
	}
	// Backward pass: collect each version's record offset via the chain.
	offs := make([]int64, 0, ent.ver-from)
	off, want := ent.off, ent.ver
	for want > from {
		rec, err := readRecordAt(seg, off)
		if err != nil || rec.kind != recOps || rec.urn != u || rec.ver != want {
			return false, nil
		}
		offs = append(offs, off)
		want--
		if want == from {
			break
		}
		if rec.prevOff < 0 {
			return false, nil
		}
		off = rec.prevOff
	}
	// Forward pass: replay oldest-first, handing each record to fn.
	for i := len(offs) - 1; i >= 0; i-- {
		rec, err := readRecordAt(seg, offs[i])
		if err != nil || rec.kind != recOps {
			return false, nil
		}
		if ferr := fn(rec.ver, rec.invs, rec.src, rec.obj); ferr != nil {
			return false, ferr
		}
	}
	return true, nil
}

// SetCacheBytes implements store.CacheTuner: it retunes the hot-object LRU
// budget online, evicting immediately on shrink.
func (s *Store) SetCacheBytes(n int64) { s.lru.setMax(n) }

// CacheBytes implements store.CacheTuner.
func (s *Store) CacheBytes() int64 { return s.lru.maxBytes() }

// WasCommitted implements store.Backend. Because history survives restart,
// redelivery detection holds even when the store's fsync won the race
// against the session journal's before a crash.
func (s *Store) WasCommitted(u urn.URN, base uint64, invs []rdo.Invocation, src string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.hist.WasCommitted(u, base, invs, src)
}

// SetHistoryLimit implements store.Backend.
func (s *Store) SetHistoryLimit(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hist.SetLimit(n)
}

// SetOnApply implements store.Backend.
func (s *Store) SetOnApply(fn func(store.ApplyEvent)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onApply = fn
}

// List implements store.Backend — index-only.
func (s *Store) List(prefix urn.URN) []store.Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []store.Entry
	for u, ent := range s.idx {
		if u.HasPrefix(prefix) {
			out = append(out, store.Entry{URN: u, Version: ent.ver, Type: ent.typ})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URN.Less(out[j].URN) })
	return out
}

// ListAll implements store.Backend — index-only.
func (s *Store) ListAll() []store.Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]store.Entry, 0, len(s.idx))
	for u, ent := range s.idx {
		out = append(out, store.Entry{URN: u, Version: ent.ver, Type: ent.typ})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URN.Less(out[j].URN) })
	return out
}

// Snapshot implements store.Backend: the same canonical URN-sorted
// encoding as the in-memory backend (byte-identical for identical
// committed state), taken as an atomic cut under the read lock. Cold
// objects are read back from the segment, so this walks the disk —
// convergence checks and state transfer, not a hot path. An object whose
// record cannot be read back (closed store, disk fault) is omitted.
func (s *Store) Snapshot() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	urns := make([]urn.URN, 0, len(s.idx))
	for u := range s.idx {
		urns = append(urns, u)
	}
	sort.Slice(urns, func(i, j int) bool { return urns[i].Less(urns[j]) })
	blobs := make([][]byte, 0, len(urns))
	for _, u := range urns {
		objBytes, err := s.objBytesLocked(u, s.idx[u])
		if err != nil {
			continue
		}
		blobs = append(blobs, objBytes)
	}
	var b wire.Buffer
	b.PutUvarint(uint64(len(blobs)))
	for _, blob := range blobs {
		b.PutBytes(blob)
	}
	return b.Bytes()
}

// objBytesLocked returns u's current wire encoding: from the cache when
// hot (without promoting), else a pread of its latest segment record.
// Callers hold mu in either mode.
func (s *Store) objBytesLocked(u urn.URN, ent idxEnt) ([]byte, error) {
	if obj := s.lru.peek(u); obj != nil && obj.Version == ent.ver {
		return obj.Encode(), nil
	}
	rec, err := readRecordAt(s.seg, ent.off)
	if err != nil {
		return nil, err
	}
	if rec.ver != ent.ver {
		return nil, fmt.Errorf("disk: index/segment version skew on %s: %d vs %d", u, ent.ver, rec.ver)
	}
	return rec.obj, nil
}

// LoadSnapshot implements store.Backend: it atomically replaces the whole
// population AND makes it durable, by rewriting the segment wholesale (the
// compaction machinery) before the swap. History is cleared — snapshot
// versions are opaque jumps.
func (s *Store) LoadSnapshot(data []byte) error {
	objs, err := store.DecodeSnapshot(data)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return ErrClosed
		}
		if !s.compacting {
			break
		}
		s.cond.Wait()
	}
	s.compacting = true
	for len(s.committing) > 0 {
		s.cond.Wait()
	}
	defer func() {
		s.compacting = false
		s.cond.Broadcast()
	}()

	urns := make([]urn.URN, 0, len(objs))
	for u := range objs {
		urns = append(urns, u)
	}
	sort.Slice(urns, func(i, j int) bool { return urns[i].Less(urns[j]) })
	err = s.rewriteLocked(func(tmp *stable.SegmentFile, add func(urn.URN, idxEnt)) error {
		for _, u := range urns {
			obj := objs[u]
			rec, _ := encodeState(u, obj.Version, obj)
			off, aerr := tmp.AppendNoSync(rec)
			if aerr != nil {
				return aerr
			}
			add(u, idxEnt{ver: obj.Version, off: off, rlen: tmp.Size() - off, typ: obj.Type, kind: recState})
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.hist.ClearAll()
	s.lru.reset()
	return nil
}

// maybeCompact rewrites the segment when enough mutations have landed AND
// the file holds more than twice its live data — the gate excludes new
// mutators, drains in-flight committers, and swaps atomically via rename.
func (s *Store) maybeCompact() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.compacting || s.mutsSinceCompact < s.opts.CompactEvery {
		return
	}
	if s.seg.Size() < 2*(s.liveBytes+s.segFooterBytes+1) {
		// Mostly live (e.g. a pure-insert load): rewriting would reclaim
		// nothing. Rearm the counter. Footer chunks count with the live
		// side — a rewrite would write a footer of the same size again.
		s.mutsSinceCompact = 0
		return
	}
	s.compacting = true
	for len(s.committing) > 0 {
		s.cond.Wait()
	}
	err := s.rewriteLocked(func(tmp *stable.SegmentFile, add func(urn.URN, idxEnt)) error {
		urns := make([]urn.URN, 0, len(s.idx))
		for u := range s.idx {
			urns = append(urns, u)
		}
		sort.Slice(urns, func(i, j int) bool { return urns[i].Less(urns[j]) })
		for _, u := range urns {
			ent := s.idx[u]
			objBytes, oerr := s.objBytesLocked(u, ent)
			if oerr != nil {
				return oerr
			}
			var rec []byte
			recKind := recState
			if w := s.hist.Window(u); len(w) > 0 {
				rec = encodeSnap(u, ent.ver, objBytes, w)
				recKind = recSnap
			} else {
				rec = encodeStateBytes(u, ent.ver, objBytes)
			}
			off, aerr := tmp.AppendNoSync(rec)
			if aerr != nil {
				return aerr
			}
			add(u, idxEnt{ver: ent.ver, off: off, rlen: tmp.Size() - off, typ: ent.typ, kind: recKind})
		}
		return nil
	})
	if err == nil {
		s.compactions++
	}
	s.compacting = false
	s.cond.Broadcast()
}

// rewriteLocked replaces the segment (stable.SegmentFile.Rewrite: a fresh
// file beside the live one, made durable, renamed over it) with what write
// appends plus an index footer, then swaps index and segment. Called with mu
// held and the compaction gate up (no committers in flight). On error the
// old segment stays live.
func (s *Store) rewriteLocked(write func(tmp *stable.SegmentFile, add func(urn.URN, idxEnt)) error) error {
	newIdx := make(map[urn.URN]idxEnt, len(s.idx))
	var live int64
	add := func(u urn.URN, ent idxEnt) {
		newIdx[u] = ent
		live += ent.rlen
	}
	var foot footerInfo
	fresh, err := s.seg.Rewrite(func(tmp *stable.SegmentFile) error {
		err := write(tmp, add)
		if err == nil {
			foot, err = appendFooter(tmp, newIdx)
		}
		return err
	})
	if err != nil {
		return err
	}
	old := s.seg
	s.seg = fresh
	old.Close()
	s.idx = newIdx
	s.liveBytes = live
	s.segFooterBytes = fresh.Size() - foot.off
	s.mutsSinceCompact = 0
	// Point the sidecar at the fresh footer; a failed write just means the
	// next Open scans (writeSidecar already removed the stale pointer).
	s.cleanFooter = s.writeSidecar(foot)
	return nil
}

// Occupancy implements store.Backend.
func (s *Store) Occupancy() store.Occupancy {
	s.mu.RLock()
	objects := len(s.idx)
	segBytes := s.seg.Size()
	compactions := s.compactions
	s.mu.RUnlock()
	residentObjs, residentBytes, hits := s.lru.stats()
	return store.Occupancy{
		Objects:         objects,
		ResidentObjects: residentObjs,
		ResidentBytes:   residentBytes,
		CacheHits:       hits,
		ColdFaults:      s.coldFaults.Load(),
		Compactions:     compactions,
		SegmentBytes:    segBytes,
	}
}

// SegmentStats returns the segment's stable-log counters (appends, syncs,
// batched commits) — fsync-economics accounting for the bench harness.
func (s *Store) SegmentStats() stable.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seg.Stats()
}

// TornTail reports the torn trailing record recovery truncated at Open
// (a *stable.TornTailError), or nil if the segment ended cleanly.
func (s *Store) TornTail() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seg.TornTail()
}

// Poisoned reports the segment's sticky fsync failure, or nil.
func (s *Store) Poisoned() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seg.Poisoned()
}

// Close implements store.Backend: refuses new mutations, drains in-flight
// committers, and closes the segment (whose Close performs a final safety
// sync). Reads fail afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.compacting {
		s.cond.Wait()
	}
	if s.closed {
		return nil
	}
	s.closed = true
	for len(s.committing) > 0 {
		s.cond.Wait()
	}
	// Leave a fresh index footer behind so the next Open skips the scan.
	// The chunks ride the final safety sync inside seg.Close; the sidecar
	// is only written once that sync succeeded, so it never points at
	// records that might not be durable.
	wroteFooter := false
	var foot footerInfo
	if !s.cleanFooter && s.seg.Poisoned() == nil {
		if f, ferr := appendFooter(s.seg, s.idx); ferr == nil {
			foot, wroteFooter = f, true
		}
	}
	err := s.seg.Close()
	if wroteFooter && err == nil {
		s.writeSidecar(foot)
	}
	s.cond.Broadcast()
	return err
}
