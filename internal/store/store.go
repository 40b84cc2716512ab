// Package store is the Rover server's authoritative object store.
//
// Every object has a home server; the store holds the committed copy and
// its version. Versions advance by one per committed export or server-side
// invocation; the version a client imported is what conflict detection
// compares against. The manual-repair queue for operations no resolver
// could merge is not object state: it lives in the server package.
package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"rover/internal/rdo"
	"rover/internal/urn"
	"rover/internal/wire"
)

// Errors returned by the store.
var (
	ErrNotFound = errors.New("store: no such object")
	ErrExists   = errors.New("store: object already exists")
	// ErrRace marks a commit whose expected version is no longer the
	// object's: another commit landed first. Only it is worth a retry on
	// fresh state.
	ErrRace = errors.New("store: commit race")
)

// DefaultHistoryLimit bounds the per-object invocation history kept for
// delta imports: at most this many versions back from the current one
// can be reconstructed as an operation delta.
const DefaultHistoryLimit = 32

// Store is the in-memory Backend: a flat map holding every object resident.
// It is the default implementation — simplest, fastest, and exactly the
// paper's home-server model — while the disk backend (store/disk) trades
// resident memory for capacity. All methods are safe for concurrent use;
// returned objects are clones, so callers can mutate freely.
type Store struct {
	mu   sync.RWMutex
	objs map[urn.URN]*rdo.Object

	// hist holds, per object, the invocations that produced recent
	// versions — the raw material for delta imports (ship the ops since
	// the client's version instead of the whole object). Only CommitOps
	// records history; a plain Commit is an opaque state jump and clears
	// the object's history, because a delta spanning it cannot be
	// represented. Guarded by mu.
	hist *History

	// onApply, when set, observes every locally committed mutation (it is
	// how a replica pair streams changes to its peer). The Install* family
	// bypasses it: replicated mutations must not echo back to their origin.
	onApply func(ApplyEvent)
}

// ApplyKind discriminates the mutations an ApplyEvent can describe.
type ApplyKind byte

// Apply-event kinds.
const (
	// ApplyOps: the version was produced by deterministically replaying
	// Invs against the previous state (a CommitOps).
	ApplyOps ApplyKind = iota
	// ApplyState: an opaque state jump — Create, plain Commit, or any
	// other whole-object install. Object carries the new encoding.
	ApplyState
)

// ApplyEvent describes one committed mutation. Events are delivered to the
// observer installed with SetOnApply while the store lock is held, so per-
// object delivery order matches version order — the property a replication
// stream needs. The observer must not call back into the store.
type ApplyEvent struct {
	Kind        ApplyKind
	URN         urn.URN
	PrevVersion uint64
	Version     uint64
	// Invs holds the replayed invocations for ApplyOps (the slice is the
	// store's own history copy; observers must not mutate it).
	Invs []rdo.Invocation
	// Src is the client the ApplyOps invocations came from (see
	// CommitOpsBy); replication preserves it so the peer can also detect
	// redelivered exports.
	Src string
	// Object is the committed object's wire encoding.
	Object []byte
}

// New returns an empty store.
func New() *Store {
	return &Store{
		objs: make(map[urn.URN]*rdo.Object),
		hist: NewHistory(),
	}
}

// SetOnApply installs the commit observer. Pass nil to remove it. The
// callback runs with the store lock held (see ApplyEvent); install it
// before the store sees traffic.
func (s *Store) SetOnApply(fn func(ApplyEvent)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onApply = fn
}

// SetHistoryLimit changes how many versions of invocation history the
// store retains per object: 0 restores the default, a negative value
// disables history entirely (every import ships the full object — the
// bench harness's "no delta" ablation). Shrinking the limit prunes
// existing histories immediately.
func (s *Store) SetHistoryLimit(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hist.SetLimit(n)
}

// Create inserts a new object at version 1. The object's Version field is
// overwritten.
func (s *Store) Create(obj *rdo.Object) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objs[obj.URN]; ok {
		return fmt.Errorf("%w: %s", ErrExists, obj.URN)
	}
	cp := obj.Clone()
	cp.Version = 1
	s.objs[obj.URN] = cp
	if s.onApply != nil {
		s.onApply(ApplyEvent{Kind: ApplyState, URN: cp.URN, Version: 1, Object: cp.Encode()})
	}
	return nil
}

// Get returns a clone of the object.
func (s *Store) Get(u urn.URN) (*rdo.Object, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	obj, ok := s.objs[u]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, u)
	}
	return obj.Clone(), nil
}

// Version returns the current version without copying the object.
func (s *Store) Version(u urn.URN) (uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	obj, ok := s.objs[u]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, u)
	}
	return obj.Version, nil
}

// Commit replaces the object with obj, which it takes (see Backend),
// advancing the version by one, and returns the new version. The caller
// must pass the version it read (expect) — Commit fails if the object moved
// meanwhile, making read-modify-write sequences safe without holding the
// store lock across RDO method execution. A plain Commit records no
// operations: this version is an opaque jump, and any delta spanning it
// would silently skip state, so the object's history is dropped and
// OpsSince refuses rather than lies.
func (s *Store) Commit(obj *rdo.Object, expect uint64) (uint64, error) {
	return s.CommitOpsBy(obj, expect, nil, "")
}

// CommitOps is Commit for a version produced by deterministically
// replaying invs against the previous state: it additionally records invs
// in the object's bounded history, so later imports by clients holding a
// recent version can fetch just the operations instead of the object.
func (s *Store) CommitOps(obj *rdo.Object, expect uint64, invs []rdo.Invocation) (uint64, error) {
	return s.CommitOpsBy(obj, expect, invs, "")
}

// CommitOpsBy is CommitOps with the exporting client recorded alongside the
// history entry, enabling WasCommitted's redelivery detection.
func (s *Store) CommitOpsBy(obj *rdo.Object, expect uint64, invs []rdo.Invocation, src string) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitOpsLocked(obj, expect, invs, src, true)
}

func (s *Store) commitOpsLocked(obj *rdo.Object, expect uint64, invs []rdo.Invocation, src string, notify bool) (uint64, error) {
	cur, ok := s.objs[obj.URN]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, obj.URN)
	}
	if cur.Version != expect {
		return 0, fmt.Errorf("%w on %s: store at %d, caller read %d",
			ErrRace, obj.URN, cur.Version, expect)
	}
	obj.Version = expect + 1
	s.objs[obj.URN] = obj
	if !s.hist.Record(obj.URN, obj.Version, invs, src) {
		// History disabled, or a no-op commit (version advanced with no
		// recorded operations): treat like a plain Commit.
		s.hist.Clear(obj.URN)
		if notify && s.onApply != nil {
			s.onApply(ApplyEvent{Kind: ApplyState, URN: obj.URN,
				PrevVersion: expect, Version: obj.Version, Object: obj.Encode()})
		}
		return obj.Version, nil
	}
	// The event, and the encoding it carries, are built only for an
	// observer: with none installed a commit encodes nothing.
	if notify && s.onApply != nil {
		s.onApply(ApplyEvent{Kind: ApplyOps, URN: obj.URN,
			PrevVersion: expect, Version: obj.Version, Invs: invs, Src: src, Object: obj.Encode()})
	}
	return obj.Version, nil
}

// WasCommitted reports whether the export (base, invs, src) is already
// reflected in the object's history: some client's operations were
// committed at version base+1 by the same src with identical invocations.
// A true return means a redelivered export can be answered "committed"
// without re-applying — the close of the at-most-once window when a reply
// was lost in a server crash but the mutation survived (locally journaled
// or replicated to the peer a client failed over to).
func (s *Store) WasCommitted(u urn.URN, base uint64, invs []rdo.Invocation, src string) bool {
	if src == "" || len(invs) == 0 {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.hist.WasCommitted(u, base, invs, src)
}

func invEqual(a, b *rdo.Invocation) bool {
	if a.Object != b.Object || a.Method != b.Method || a.BaseVer != b.BaseVer ||
		len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// OpsSince returns the invocations that advance the object from version
// `from` to its current version, oldest first, with ok=true only when the
// history is contiguous over that whole span. ok=false means the caller
// must fall back to shipping the full object (history pruned, a plain
// Commit intervened, or `from` is not behind the current version).
func (s *Store) OpsSince(u urn.URN, from uint64) ([]rdo.Invocation, uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cur, ok := s.objs[u]
	if !ok {
		return nil, 0, false
	}
	return s.hist.OpsSince(u, from, cur.Version)
}

// InstallOps is CommitOpsBy for a mutation received from a replica peer:
// same expect check and history recording (src preserved from the origin),
// but the commit observer does not fire — a replicated mutation must not
// echo back toward its origin.
func (s *Store) InstallOps(obj *rdo.Object, expect uint64, invs []rdo.Invocation, src string) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitOpsLocked(obj, expect, invs, src, false)
}

// InstallState force-installs a whole object at the version it carries —
// the anti-entropy full-object transfer. It creates or replaces without an
// expect check (the replication protocol's version guard runs above the
// store), clears the object's history (the installed version is an opaque
// jump), and does not fire the commit observer. Installing a version below
// the current one is refused so a stale transfer can never move an object
// backwards; an equal version replaces (idempotent re-install, and the
// digest sweep's divergence repair).
func (s *Store) InstallState(obj *rdo.Object) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.objs[obj.URN]; ok && obj.Version < cur.Version {
		return 0, fmt.Errorf("store: install %s at %d would regress from %d",
			obj.URN, obj.Version, cur.Version)
	}
	cp := obj.Clone()
	s.objs[cp.URN] = cp
	s.hist.Clear(cp.URN)
	return cp.Version, nil
}

// Entry describes one object in a listing.
type Entry struct {
	URN     urn.URN
	Version uint64
	Type    string
}

// List returns entries for every object at or under prefix, sorted by URN.
func (s *Store) List(prefix urn.URN) []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Entry
	for u, obj := range s.objs {
		if u.HasPrefix(prefix) {
			out = append(out, Entry{URN: u, Version: obj.Version, Type: obj.Type})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URN.Less(out[j].URN) })
	return out
}

// ListAll returns entries for every object, sorted by URN (server
// administration and the HTTP gateway's index; the protocol operation is
// the prefix-scoped List).
func (s *Store) ListAll() []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Entry, 0, len(s.objs))
	for u, obj := range s.objs {
		out = append(out, Entry{URN: u, Version: obj.Version, Type: obj.Type})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URN.Less(out[j].URN) })
	return out
}

// Snapshot format: uvarint count, then each object's wire encoding as a
// length-prefixed blob.

// Snapshot returns a point-in-time encoding of all objects, sorted by URN.
// Because the order is canonical, two stores hold identical committed state
// iff their snapshots are byte-identical — the convergence check the
// replication chaos harness relies on.
//
// Concurrency contract (shared by every Backend): the snapshot is an atomic
// cut. Commits running concurrently with Snapshot either appear in it
// entirely or not at all — the encoding can never interleave an object's
// old state with another's newer state from the same commit batch, and an
// object's encoded version always matches its encoded state. The in-memory
// implementation holds the read lock for the full encoding; a snapshot is
// therefore deterministic for a given committed state, byte-for-byte.
func (s *Store) Snapshot() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var b wire.Buffer
	b.PutUvarint(uint64(len(s.objs)))
	urns := make([]urn.URN, 0, len(s.objs))
	for u := range s.objs {
		urns = append(urns, u)
	}
	sort.Slice(urns, func(i, j int) bool { return urns[i].Less(urns[j]) })
	for _, u := range urns {
		b.PutBytes(s.objs[u].Encode())
	}
	return b.Bytes()
}

// LoadSnapshot atomically replaces the store's contents with a snapshot
// previously produced by Snapshot. The snapshot is decoded fully before the
// swap, so a corrupt snapshot leaves the store untouched, and concurrent
// readers see either the old population or the new one, never a mix.
func (s *Store) LoadSnapshot(data []byte) error {
	objs, err := DecodeSnapshot(data)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.objs = objs
	// Snapshots carry no operation history; loaded versions are opaque.
	s.hist.ClearAll()
	s.mu.Unlock()
	return nil
}

// DecodeSnapshot decodes a Snapshot encoding into an object map — shared by
// every Backend's LoadSnapshot.
func DecodeSnapshot(data []byte) (map[urn.URN]*rdo.Object, error) {
	// Each blob is a view of data: rdo.Decode copies what the object keeps.
	r := wire.OwnedReader(data)
	n := r.Len()
	// An object takes at least six bytes: a length and five empty fields.
	objs := make(map[urn.URN]*rdo.Object, min(n, r.Remaining()/6))
	for i := 0; i < n; i++ {
		blob := r.Bytes()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("store: load: %w", err)
		}
		obj, err := rdo.Decode(blob)
		if err != nil {
			return nil, fmt.Errorf("store: load object %d: %w", i, err)
		}
		objs[obj.URN] = obj
	}
	if !r.Done() {
		return nil, fmt.Errorf("store: load: trailing bytes")
	}
	return objs, nil
}

// Occupancy implements Backend. The in-memory store keeps everything
// resident, so resident bytes track the whole population and the disk-only
// counters stay zero. Computed on demand — call it at stats-line cadence,
// not per-request.
func (s *Store) Occupancy() Occupancy {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var bytes int64
	for _, obj := range s.objs {
		bytes += int64(obj.SizeEstimate())
	}
	return Occupancy{
		Objects:         len(s.objs),
		ResidentObjects: len(s.objs),
		ResidentBytes:   bytes,
	}
}

// Close implements Backend; the in-memory store has nothing to release.
func (s *Store) Close() error { return nil }
