package store

import (
	"rover/internal/rdo"
	"rover/internal/urn"
)

// Backend is the object-store surface the rest of the toolkit programs
// against: the QRPC server's handlers, the replication layer, the HTTP
// gateway, and the facade all take a Backend, so the in-memory map and the
// disk-backed segment store are interchangeable.
//
// Semantics every implementation must provide (the conformance suite in
// conformance_test.go enforces them):
//
//   - Returned objects are clones; callers mutate freely.
//   - A commit takes its object: Commit, CommitOps, CommitOpsBy and
//     InstallOps stamp obj.Version = expect+1 once the race check passes
//     and publish obj and invs themselves, uncopied. After a commit the
//     caller may read obj but must not write obj or invs.
//   - A commit that lost a race to another fails with an error wrapping
//     ErrRace, the one failure worth retrying on fresh state.
//   - Versions start at 1 (Create) and advance by exactly one per commit.
//   - Commit/CommitOps check the caller's expected version and fail on a
//     race; InstallState replaces without an expect check but refuses to
//     regress a version.
//   - Only ops commits record history; plain Commits, state installs and
//     snapshot loads clear the object's window, so OpsSince never serves a
//     delta spanning an opaque jump.
//   - The SetOnApply observer sees every locally committed mutation in
//     per-object version order and none from the Install* family.
//   - Snapshot is an atomic, canonical (URN-sorted, byte-deterministic)
//     cut; LoadSnapshot atomically replaces the population.
type Backend interface {
	// Mutations.
	Create(obj *rdo.Object) error
	Commit(obj *rdo.Object, expect uint64) (uint64, error)
	CommitOps(obj *rdo.Object, expect uint64, invs []rdo.Invocation) (uint64, error)
	CommitOpsBy(obj *rdo.Object, expect uint64, invs []rdo.Invocation, src string) (uint64, error)

	// Replica-peer installs: same state transitions, no observer echo.
	InstallOps(obj *rdo.Object, expect uint64, invs []rdo.Invocation, src string) (uint64, error)
	InstallState(obj *rdo.Object) (uint64, error)

	// Reads.
	Get(u urn.URN) (*rdo.Object, error)
	Version(u urn.URN) (uint64, error)
	List(prefix urn.URN) []Entry
	ListAll() []Entry

	// History: delta imports and redelivery detection, each answered from
	// the object's last DefaultHistoryLimit ops commits. OpsSince answers
	// ok=false when it cannot serve a delta, and the caller ships the whole
	// object; a one-step answer carries the step's source. WasCommitted's
	// error means the history could not be read (the disk backend reads it
	// from its segment): the caller must refuse the export, since answering
	// it as new could run it twice.
	OpsSince(u urn.URN, from uint64) (invs []rdo.Invocation, ver uint64, src string, ok bool)
	WasCommitted(u urn.URN, base uint64, invs []rdo.Invocation, src string) (bool, error)

	// Whole-store state transfer.
	Snapshot() []byte
	LoadSnapshot(data []byte) error

	// Replication observer.
	SetOnApply(fn func(ApplyEvent))

	// Occupancy reports population and cache-residency counters for the
	// stats surface.
	Occupancy() Occupancy

	// Close releases backend resources (files, caches). The in-memory
	// backend's Close is a no-op; the disk backend flushes and closes its
	// segment. Mutations after Close fail.
	Close() error
}

// OpsReader is named only by the benchmark module; no store in this module
// implements it, and it goes when that module next changes.
type OpsReader interface {
	StreamOpsSince(u urn.URN, from uint64, fn func(ver uint64, invs []rdo.Invocation, src string, obj []byte) error) (bool, error)
}

// CacheTuner is named only by the benchmark module; no store in this module
// implements it, and it goes when that module next changes.
type CacheTuner interface {
	SetCacheBytes(n int64)
	CacheBytes() int64
}

// Occupancy is a Backend's population and residency report — the store
// section of the server stats line. For the in-memory backend resident ==
// total and the fault/compaction counters stay zero; for the disk backend
// resident is the hot-object LRU and the counters describe its traffic.
type Occupancy struct {
	Objects         int   // committed objects
	ResidentObjects int   // decoded objects resident in memory
	ResidentBytes   int64 // estimated bytes of those resident objects
	CacheHits       int64 // Gets served from the resident set
	ColdFaults      int64 // Gets that faulted in from the segment
	Compactions     int64 // segment rewrites
	SegmentBytes    int64 // on-disk segment size (0 for in-memory)
}

var _ Backend = (*Store)(nil)
