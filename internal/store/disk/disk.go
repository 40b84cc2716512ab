package disk

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"rover/internal/rdo"
	"rover/internal/stable"
	"rover/internal/store"
	"rover/internal/urn"
	"rover/internal/wire"
	"rover/internal/yield"
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

// errCutLink fails a compaction whose catch-up meets a record written after
// the cut that does not link where the cut says it must.
var errCutLink = errors.New("disk: a record written after the compaction's cut does not link to the object's record before it")

// yieldCompactCopied is the yield.Point past a compaction's unlocked copy,
// before each of its two catch-up passes: commits and reads go on there.
const yieldCompactCopied = "disk.compact.copied"

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
// fault-in address, and the head of the record chain that holds the
// object's history. ~100 bytes per object; this index and the LRU are the
// store's whole resident footprint.
type idxEnt struct {
	ver  uint64
	off  int64
	rlen int64 // on-disk record length (live-bytes accounting)
	typ  string
	kind byte // segment record kind at off (footer recovery, history walks)
}

// Store is the disk-backed Backend. See the package comment for the
// shape; the essential invariants are:
//
//   - Publish-after-durable: a mutation's record is appended and fsynced
//     (riding the segment's group commit) BEFORE the index, LRU, and
//     observer see it, and before the mutation returns. Readers never
//     observe state that a crash could lose, and the index only ever
//     points at durable records — so fault-in cannot read a torn record.
//     A crash between append and publish leaves a durable record the
//     committer never acknowledged; recovery replays it — the same
//     crash-before-ack window the session journal has, absorbed by
//     WasCommitted and the engine's reply cache.
//   - Per-object commit slots: concurrent committers of one object
//     serialize (version checks stay correct), while committers of
//     different objects proceed concurrently and coalesce onto one fsync.
//   - Compaction: cut, copy, catch-up, swap, on a goroutine of its own that
//     the committer crossing the trigger starts. Cut: the gate goes up (new
//     mutations wait), in-flight committers drain, the segment's size is
//     noted as the cut and the index copied, and the gate goes down. Copy:
//     with no lock held, every object as of the cut, plus its history
//     window, goes from the old segment, immutable below the cut, into a
//     fresh one, followed by its index footer. Catch-up: the records
//     written since the cut follow as the footer's tail, each ops record
//     relinked to the copy of the one before it; those before a second cut
//     with no lock held, the rest with the gate up. Swap: with the gate
//     still up, fsync, rename over the old path, swap in. Commits and reads
//     wait only for the drains and for the last catch-up and the swap.
//   - History lives in the segment: OpsSince and WasCommitted (under the
//     read lock) and compaction's copy read an object's history window from
//     its record chain (walkChain), so no copy of it is kept in memory
//     beyond the ops commit that wrote an object the LRU holds.
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
	lru        *lruCache
	committing map[urn.URN]struct{}
	compacting bool        // a compaction or snapshot load is in flight
	gate       bool        // mutations wait: a cut, a catch-up and swap, or a snapshot load
	closed     atomic.Bool // set under mu; a compaction's copy polls it

	onApply func(store.ApplyEvent)

	mutsSinceCompact int
	liveBytes        int64
	compactions      int64
	coldFaults       atomic.Int64
	compactErr       error // the last compaction's failure, nil once one succeeds

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
// to rebuild the index; history stays in the record chains it indexes. A
// torn trailing record — a crash mid-commit — is truncated away (TornTail
// reports it); compaction leftovers from a crash mid-rewrite are removed.
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
	seg, err := stable.OpenSegmentFile(s.path, stable.Options{}, 0,
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

// applyScan replays one object record into the index during Open. The
// record is checked whole but only its header kept, decoded in place
// through n: p need only outlive the call. The live-bytes count is
// sumLiveBytes's once the index is built.
func (s *Store) applyScan(off int64, p []byte, n *names) error {
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
	return nil
}

// walkChain visits the entries of u's history window from version stop up,
// reading them from the record chain that starts at ent's record: 'O'
// records newest first along their prevOff links, then the entries of the
// 'Z' record the chain reaches, oldest first. The window is what replaying
// every record into a store.History leaves, the last
// store.DefaultHistoryLimit ops commits since the object's last opaque
// jump, so the walk also ends at an 'S' record, a gap, a link to another
// object's record, or after an 'O' record written without a link. fn gets
// each entry's version and body (its source and invocations as encoded), a
// view of the segment's read buffer. head, if not nil, is ent's record
// already read. An I/O or decode error, fn's error, or a first record that
// is not ent's is returned. Callers keep seg from being swapped mid-walk:
// they hold mu in either mode, or are the compactor.
func walkChain(seg *stable.SegmentFile, u urn.URN, ent idxEnt, stop uint64, head []byte, fn func(ver uint64, body []byte) error) error {
	low := max(stop, ent.ver-min(ent.ver, store.DefaultHistoryLimit)+1)
	nm := names{held: u}
	off, want := ent.off, ent.ver
	for off >= 0 && want >= low && ent.kind != recState {
		first, next := want == ent.ver, int64(-1)
		visit := func(p []byte) error {
			rec, err := decodeRecord(p, &nm)
			switch {
			case err != nil:
				return err
			case first && (rec.urn != u || rec.ver != ent.ver):
				return errors.New("disk: index entry does not match its record")
			case rec.urn != u || rec.ver != want:
				return nil // a foreign link or a gap
			case rec.kind == recOps:
				next, want = rec.prevOff, want-1
				return fn(rec.ver, rec.ops)
			case rec.kind == recSnap:
				r := wire.OwnedReader(rec.ops) // checked whole above
				for range r.Uvarint() {
					ver, start := r.Uvarint(), len(rec.ops)-r.Remaining()
					skipOps(&r)
					if ver >= low && ver <= want {
						if err := fn(ver, rec.ops[start:len(rec.ops)-r.Remaining()]); err != nil {
							return err
						}
					}
				}
			}
			return nil
		}
		var err error
		if first && head != nil {
			err = visit(head)
		} else {
			err = seg.ReadAtFunc(off, visit)
		}
		if err != nil {
			return err
		}
		off = next
	}
	return nil
}

// history runs walkChain over u's window from version oldest up under the
// read lock, and reports u's version; ok is false, and nothing is read,
// when the window cannot reach back that far.
func (s *Store) history(u urn.URN, oldest uint64, fn func(ver uint64, body []byte) error) (cur uint64, ok bool, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ent, found := s.idx[u]
	if !found || oldest == 0 || oldest > ent.ver || ent.ver-oldest >= store.DefaultHistoryLimit {
		return 0, false, nil
	}
	return ent.ver, true, walkChain(s.seg, u, ent, oldest, nil, fn)
}

// cachedOps returns the ops commit that wrote u's current version if the
// LRU holds it, and one with Ver 0 otherwise.
func (s *Store) cachedOps(u urn.URN) store.OpsRec {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ops := s.lru.peek(u); ops.Ver == s.idx[u].ver {
		return ops
	}
	return store.OpsRec{}
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

// notifyLocked hands ev to the observer, if any, with a copy of its object
// encoding: the committer's is a view of a pooled record buffer.
func (s *Store) notifyLocked(ev store.ApplyEvent) {
	if s.onApply != nil {
		ev.Object = bytes.Clone(ev.Object)
		s.onApply(ev)
	}
}

// begin acquires u's commit slot — waiting out a concurrent committer of
// the same object and the compaction gate — and returns u's current index
// entry. The caller must end with commitRecord or release.
func (s *Store) begin(u urn.URN) (idxEnt, bool, error) {
	s.mu.Lock()
	for {
		if s.closed.Load() {
			s.mu.Unlock()
			return idxEnt{}, false, ErrClosed
		}
		_, busy := s.committing[u]
		if !s.gate && !busy {
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

// commitRecord appends the record in b, waits for durability (coalescing
// with other committers' fsync), then publishes under the store lock and
// releases u's slot. publish runs only on success, with the record's offset
// and on-disk length. The segment copies the record, so b goes back to the
// pool once publish has run.
func (s *Store) commitRecord(u urn.URN, b *wire.Buffer, publish func(off, rlen int64)) error {
	defer wire.PutBuffer(b)
	s.mu.Lock()
	seg := s.seg
	off, err := seg.AppendNoSync(b.Bytes())
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
	b := wire.GetBuffer()
	_, objBytes := encodeState(b, cp.URN, 1, cp)
	return s.commitRecord(cp.URN, b, func(off, rlen int64) {
		s.setIdxLocked(cp.URN, idxEnt{ver: 1, off: off, rlen: rlen, typ: cp.Type, kind: recState})
		s.lru.put(cp, store.OpsRec{}, 0)
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
	b := wire.GetBuffer()
	var objBytes []byte
	recKind, ops, opsBytes := recState, store.OpsRec{}, 0
	if len(invs) > 0 {
		// The chain link points at the object's previous record (ent.off),
		// letting history reads (walkChain) walk versions backwards.
		var rec []byte
		rec, objBytes = encodeOps(b, obj.URN, expect, obj.Version, src, invs, obj, ent.off)
		recKind, ops, opsBytes = recOps, store.OpsRec{Ver: obj.Version, Invs: invs, Src: src}, len(rec)-len(objBytes)
	} else {
		_, objBytes = encodeState(b, obj.URN, obj.Version, obj)
	}
	err = s.commitRecord(obj.URN, b, func(off, rlen int64) {
		s.setIdxLocked(obj.URN, idxEnt{ver: obj.Version, off: off, rlen: rlen, typ: obj.Type, kind: recKind})
		s.lru.put(obj, ops, opsBytes)
		switch {
		case !notify:
		case recKind == recOps:
			s.notifyLocked(store.ApplyEvent{Kind: store.ApplyOps, URN: obj.URN,
				PrevVersion: expect, Version: obj.Version, Invs: invs, Src: src, Object: objBytes})
		default: // a no-op commit: an opaque jump
			s.notifyLocked(store.ApplyEvent{Kind: store.ApplyState, URN: obj.URN,
				PrevVersion: expect, Version: obj.Version, Object: objBytes})
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
	b := wire.GetBuffer()
	encodeState(b, cp.URN, cp.Version, cp)
	err = s.commitRecord(cp.URN, b, func(off, rlen int64) {
		s.setIdxLocked(cp.URN, idxEnt{ver: cp.Version, off: off, rlen: rlen, typ: cp.Type, kind: recState})
		s.lru.put(cp, store.OpsRec{}, 0)
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
	s.lru.put(obj, store.OpsRec{}, 0)
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
// package for the contiguity contract). One version behind, it answers
// from the ops commit the LRU caches with u, if any; otherwise it reads the
// cur − from newest records of u's chain and decodes their invocations. A
// chain it cannot read answers ok=false, and the caller ships the whole
// object. 'Z' records carry the window through compactions and restarts.
// The oldest step's source is copied out of the read buffer onto the stack
// and made a string only for a one-step answer, the one that returns it.
func (s *Store) OpsSince(u urn.URN, from uint64) ([]rdo.Invocation, uint64, string, bool) {
	if ops := s.cachedOps(u); ops.Ver == from+1 {
		return slices.Clone(ops.Invs), ops.Ver, ops.Src, true
	}
	var steps [store.DefaultHistoryLimit][]rdo.Invocation // by version, oldest first
	var srcBuf [64]byte
	var src []byte
	n := 0
	cur, ok, err := s.history(u, from+1, func(ver uint64, body []byte) error {
		r := wire.NewReader(body)
		if v := r.View(); ver == from+1 {
			src = append(srcBuf[:0], v...)
		}
		invs, err := rdo.ReadInvocations(r, r.Uvarint())
		steps[ver-from-1], n = invs, n+1
		return err
	})
	if !ok || err != nil || uint64(n) != cur-from {
		return nil, 0, "", false
	}
	if n == 1 {
		return steps[0], cur, string(src), true
	}
	return slices.Concat(steps[:n]...), cur, "", true
}

// WasCommitted implements store.Backend. When base+1 is u's version it
// compares the ops commit the LRU caches with u, if any; otherwise it reads
// u's chain back to the record of version base+1 and decodes only that
// record's invocations. History lives in the segment, so redelivery
// detection holds across restarts, even when the store's fsync won the race
// against the session journal's before a crash. A chain it cannot read is
// an error: the caller must refuse the export rather than treat it as new.
func (s *Store) WasCommitted(u urn.URN, base uint64, invs []rdo.Invocation, src string) (bool, error) {
	if src == "" || len(invs) == 0 {
		return false, nil
	}
	if ops := s.cachedOps(u); ops.Ver == base+1 {
		return ops.Src == src && store.SameInvocations(ops.Invs, invs), nil
	}
	var seen bool
	_, _, err := s.history(u, base+1, func(ver uint64, body []byte) error {
		r := wire.NewReader(body)
		if ver != base+1 || string(r.View()) != src {
			return nil
		}
		got, err := rdo.ReadInvocations(r, r.Uvarint())
		seen = err == nil && store.SameInvocations(got, invs)
		return err
	})
	if err != nil {
		return false, fmt.Errorf("disk: history of %s: %w", u, err)
	}
	return seen, nil
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
	if obj, _ := s.lru.peek(u); obj != nil && obj.Version == ent.ver {
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
// population AND makes it durable, by rewriting the segment wholesale
// before the swap, with the gate up throughout. Every object's history
// ends — snapshot versions are opaque jumps, written as 'S' records.
func (s *Store) LoadSnapshot(data []byte) error {
	objs, err := store.DecodeSnapshot(data)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.awaitCompactionLocked()
	if s.closed.Load() {
		return ErrClosed
	}
	s.compacting = true
	s.drainLocked()
	defer func() {
		s.compacting = false
		s.openGateLocked()
	}()

	urns := make([]urn.URN, 0, len(objs))
	for u := range objs {
		urns = append(urns, u)
	}
	sort.Slice(urns, func(i, j int) bool { return urns[i].Less(urns[j]) })
	idx := make(map[urn.URN]idxEnt, len(urns))
	var live int64
	var foot footerInfo
	var b wire.Buffer
	fresh, err := s.seg.Rewrite(func(tmp *stable.SegmentFile) error {
		for _, u := range urns {
			obj := objs[u]
			rec, _ := encodeState(&b, u, obj.Version, obj)
			off, err := tmp.AppendNoSync(rec)
			if err != nil {
				return err
			}
			idx[u] = idxEnt{ver: obj.Version, off: off, rlen: tmp.Size() - off, typ: obj.Type, kind: recState}
			live += tmp.Size() - off
		}
		var err error
		foot, err = appendFooter(tmp, byOffset(cutOf(idx)), idx)
		return err
	})
	if err != nil {
		return err
	}
	s.swapLocked(fresh, idx, live, foot, fresh.Size()-foot.off)
	s.mutsSinceCompact = 0
	s.lru.reset()
	return nil
}

// maybeCompact starts a compaction when enough mutations have landed AND the
// file holds more than twice its live data. The compaction runs on its own
// goroutine, one at a time; the committer that calls this returns at once.
func (s *Store) maybeCompact() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() || s.compacting || s.mutsSinceCompact < s.opts.CompactEvery {
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
	go s.compact()
}

// awaitCompactionLocked waits, with mu held, until no compaction or snapshot
// load is in flight.
func (s *Store) awaitCompactionLocked() {
	for s.compacting {
		s.cond.Wait()
	}
}

// cutEnt is one object of a compaction's cut: its index entry in the old
// segment.
type cutEnt struct {
	u   urn.URN
	old idxEnt
}

// cutOf lists idx's objects, in no order.
func cutOf(idx map[urn.URN]idxEnt) []cutEnt {
	ents := make([]cutEnt, 0, len(idx))
	for u, ent := range idx {
		ents = append(ents, cutEnt{u, ent})
	}
	return ents
}

// compaction is one rewrite's state: the cut, the fresh segment's index and
// live bytes as they are built, and scratch reused from one record to the
// next.
type compaction struct {
	cut  int64
	ents []cutEnt // by offset in the old segment
	idx  map[urn.URN]idxEnt
	live int64
	at   map[urn.URN]int64 // an object's last record past the cut, in the old segment
	w    windowCopy
	b    wire.Buffer // AppendNoSync copies: one buffer serves every record
}

// compact rewrites the segment: cut, unlocked copy, catch-up, swap (see the
// Store comment). It passes the yield point yieldCompactCopied twice, with
// no lock held: before the second cut, and before the gate goes up for the
// last catch-up. A failed compaction leaves the old segment live and is
// kept for CompactErr; the counter it reset at the cut makes the next
// attempt wait for as many mutations again. Close stops it between objects
// or at its next step, and the fresh file is removed.
func (s *Store) compact() {
	s.mu.Lock()
	s.drainLocked()
	// Every record below the cut is now published and durable, and the
	// index describes exactly them.
	old := s.seg
	c := &compaction{cut: old.Size(), ents: cutOf(s.idx), at: map[urn.URN]int64{}}
	s.mutsSinceCompact = 0
	s.openGateLocked()
	s.mu.Unlock()

	locked := false
	var foot footerInfo
	var footBytes int64
	fresh, err := old.Rewrite(func(tmp *stable.SegmentFile) error {
		if err := s.copyCut(old, tmp, c); err != nil {
			return err
		}
		// The footer describes the copy; what the catch-up appends behind it
		// is its tail, which a reopen by footer replays.
		var err error
		if foot, err = appendFooter(tmp, c.ents, c.idx); err != nil {
			return err
		}
		footBytes = tmp.Size() - foot.off
		yield.Point(yieldCompactCopied)
		// Most records written since the cut are copied with no lock held,
		// up to a second cut; only those after it wait for the gate.
		s.mu.Lock()
		s.drainLocked()
		cut2 := old.Size()
		s.openGateLocked()
		s.mu.Unlock()
		if s.closed.Load() {
			return ErrClosed
		}
		if err := s.catchUp(old, tmp, c, c.cut, cut2); err != nil {
			return err
		}
		if err := tmp.Commit(); err != nil {
			return err
		}
		yield.Point(yieldCompactCopied)
		s.mu.Lock()
		locked = true
		s.drainLocked()
		switch {
		case s.closed.Load():
			return ErrClosed
		case old.Poisoned() != nil:
			return old.Poisoned()
		}
		if err := s.catchUp(old, tmp, c, cut2, old.Size()); err != nil {
			return err
		}
		return s.checkCaughtUp(c)
	})
	if !locked {
		s.mu.Lock()
	}
	if err == nil {
		s.swapLocked(fresh, c.idx, c.live, foot, footBytes)
		s.cleanFooter = s.cleanFooter && len(c.at) == 0
		s.compactions++
	}
	if !s.closed.Load() {
		s.compactErr = err
	}
	s.compacting = false
	s.openGateLocked()
	s.mu.Unlock()
}

// drainLocked raises the gate and waits, with mu held, until no committer
// is in flight: every record in the segment is then published.
func (s *Store) drainLocked() {
	s.gate = true
	for len(s.committing) > 0 {
		s.cond.Wait()
	}
}

func (s *Store) openGateLocked() {
	s.gate = false
	s.cond.Broadcast()
}

// copyCut writes every object of the cut into tmp as its version at the cut
// plus its history window: a 'Z' record, or an 'S' record when the window is
// empty. It reads the old segment below the cut in one sequential pass and
// copies each object when the pass reaches its record, decoded in place, so
// the copy allocates nothing per object; a window is read from the object's
// record chain. It runs with no lock held: the old segment is immutable
// below the cut, and only the compactor swaps it.
func (s *Store) copyCut(old, tmp *stable.SegmentFile, c *compaction) error {
	byOffset(c.ents)
	c.idx = make(map[urn.URN]idxEnt, len(c.ents))
	next := 0
	err := old.ReadRangeFunc(0, c.cut, func(off int64, p []byte) error {
		if next == len(c.ents) || c.ents[next].old.off > off {
			return nil // dead weight, a footer, or a damaged record nobody needs
		}
		e := &c.ents[next]
		next++
		if e.old.off < off || p == nil {
			return fmt.Errorf("%w: %s indexed at %d, where no record reads back", stable.ErrCorrupt, e.u, e.old.off)
		}
		if s.closed.Load() {
			return ErrClosed
		}
		if err := copyWindow(old, &c.w, e.u, e.old, p); err != nil {
			return fmt.Errorf("disk: history of %s: %w", e.u, err)
		}
		nm := names{held: e.u}
		rec, err := decodeRecord(p, &nm)
		switch {
		case err != nil:
			return err
		case rec.urn != e.u || rec.ver != e.old.ver:
			return errors.New("disk: index entry does not match its record")
		}
		c.b.Reset()
		kind := recState
		if len(c.w.ents) > 0 {
			c.w.appendSnap(&c.b, e.u, e.old.ver, rec.obj)
			kind = recSnap
		} else {
			appendStateBytes(&c.b, e.u, e.old.ver, rec.obj)
		}
		at, err := tmp.AppendNoSync(c.b.Bytes())
		if err != nil {
			return err
		}
		c.idx[e.u] = idxEnt{ver: e.old.ver, off: at, rlen: tmp.Size() - at, typ: e.old.typ, kind: kind}
		c.live += tmp.Size() - at
		return nil
	})
	if err == nil && next < len(c.ents) {
		err = fmt.Errorf("%w: %s indexed at %d, where no record reads back", stable.ErrCorrupt, c.ents[next].u, c.ents[next].old.off)
	}
	return err
}

// catchUp copies into tmp the records written to old in [from, to), past the
// cut and all published, read in one pass and appended in the order they
// were written. Each ops record's link is pointed at the copy of the
// object's record before it: for its first record past the cut, the one
// copyCut made. A record that does not link where the cut and the records
// before it say fails the compaction.
func (s *Store) catchUp(old, tmp *stable.SegmentFile, c *compaction, from, to int64) error {
	var nm names
	return old.ReadRangeFunc(from, to, func(off int64, p []byte) error {
		switch {
		case p == nil:
			return fmt.Errorf("%w: record at %d, past the cut, does not read back", stable.ErrCorrupt, off)
		case len(p) > 0 && p[0] == recFooter:
			return nil
		}
		rec, err := decodeRecord(p, &nm)
		if err != nil {
			return err
		}
		u := rec.urn
		cur, copied := c.idx[u]
		c.b.Reset()
		if rec.kind == recOps {
			// The record before it is u's last one past the cut, or else
			// u's record at the cut.
			var linked bool
			if last, moved := c.at[u]; moved {
				linked = rec.prevOff == last
			} else {
				i, found := slices.BinarySearchFunc(c.ents, rec.prevOff, func(e cutEnt, off int64) int { return cmp.Compare(e.old.off, off) })
				linked = found && c.ents[i].u == u
			}
			if !copied || !linked || rec.prevVer != cur.ver {
				return fmt.Errorf("disk: %s v%d at %d: %w", u, rec.ver, off, errCutLink)
			}
			c.b.PutRaw(unlinked(p))
			c.b.PutUvarint(uint64(cur.off) + 1)
		} else {
			c.b.PutRaw(p) // an opaque jump: Create, plain Commit, install
		}
		at, err := tmp.AppendNoSync(c.b.Bytes())
		if err != nil {
			return err
		}
		c.live += tmp.Size() - at - cur.rlen
		c.idx[u] = idxEnt{ver: rec.ver, off: at, rlen: tmp.Size() - at, typ: cur.typ, kind: rec.kind}
		c.at[u] = off
		return nil
	})
}

// checkCaughtUp checks, with the gate up and the catch-up done, that each
// object's last record past the cut is the one its index entry holds, and
// takes its type from there. Called with mu held.
func (s *Store) checkCaughtUp(c *compaction) error {
	for u, off := range c.at {
		live := s.idx[u]
		if live.off != off {
			return fmt.Errorf("disk: %s: %w", u, errCutLink)
		}
		ent := c.idx[u]
		ent.typ = live.typ
		c.idx[u] = ent
	}
	return nil
}

// windowCopy is compaction's scratch for an object's history window, copied
// from its record chain as encoded and reused from one object to the next.
type windowCopy struct {
	bodies []byte // the entries' bodies back to back
	ents   []windowEnt
}

type windowEnt struct {
	ver        uint64
	start, end int // the body's place in bodies
}

// copyWindow reads u's window from its record chain in seg into w, oldest
// first; head, if not nil, is ent's record already read.
func copyWindow(seg *stable.SegmentFile, w *windowCopy, u urn.URN, ent idxEnt, head []byte) error {
	w.bodies, w.ents = w.bodies[:0], w.ents[:0]
	err := walkChain(seg, u, ent, 1, head, func(ver uint64, body []byte) error {
		w.ents = append(w.ents, windowEnt{ver, len(w.bodies), len(w.bodies) + len(body)})
		w.bodies = append(w.bodies, body...)
		return nil
	})
	slices.SortFunc(w.ents, func(a, b windowEnt) int { return cmp.Compare(a.ver, b.ver) })
	return err
}

// appendSnap appends the 'Z' record of u at version ver holding the object
// encoding obj and the window in w: each entry its version and its body as
// copied, byte for byte what encoding the decoded window gives.
func (w *windowCopy) appendSnap(b *wire.Buffer, u urn.URN, ver uint64, obj []byte) {
	b.PutByte(recSnap)
	b.PutString(u.String())
	b.PutUvarint(ver)
	b.PutBytes(obj)
	b.PutUvarint(uint64(len(w.ents)))
	for _, e := range w.ents {
		b.PutUvarint(e.ver)
		b.PutRaw(w.bodies[e.start:e.end])
	}
}

// swapLocked makes fresh — durable, renamed over the segment's path, and
// holding the index idx of live bytes and the footer foot of footBytes —
// the live segment, and points the sidecar at that footer. Called with mu
// held and no committer in flight.
func (s *Store) swapLocked(fresh *stable.SegmentFile, idx map[urn.URN]idxEnt, live int64, foot footerInfo, footBytes int64) {
	old := s.seg
	s.seg = fresh
	old.Close()
	s.idx = idx
	s.liveBytes = live
	s.segFooterBytes = footBytes
	// A failed write just means the next Open scans (writeSidecar already
	// removed the stale pointer).
	s.cleanFooter = s.writeSidecar(foot)
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

// CompactErr reports why the last compaction failed, or nil if it succeeded
// or none has run. A record chain that no longer reads back within an
// object's history window fails every compaction until a plain commit or
// install ends that history.
func (s *Store) CompactErr() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.compactErr
}

// Poisoned reports the segment's sticky fsync failure, or nil.
func (s *Store) Poisoned() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seg.Poisoned()
}

// Close implements store.Backend: refuses new mutations, stops a
// compaction in flight, drains in-flight committers, and closes the segment (whose Close performs a final safety
// sync). Reads fail afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		s.awaitCompactionLocked()
		return nil
	}
	s.closed.Store(true)
	// A compaction stops at its copy's next object or at its catch-up, and
	// removes its file; a snapshot load finishes.
	s.awaitCompactionLocked()
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
		if f, ferr := appendFooter(s.seg, byOffset(cutOf(s.idx)), s.idx); ferr == nil {
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
