// Package stable implements Rover's stable operation log.
//
// QRPC's central promise is that a request, once accepted, survives
// anything short of losing the machine: the access manager writes every
// queued request to stable storage before returning to the application, and
// redelivers from the log after crashes and reconnections. The paper notes
// that "the flush is on the critical path for message sending" and that the
// prototype "favors simplicity over performance: it does not perform any
// compression on the log and it does not employ efficient techniques for
// implementing stable storage (e.g., Flash RAM or group commit)".
//
// This package mirrors that prototype as the default — no compression,
// every append durable before return — and provides the two optimizations
// the paper cites as future work: flate compression (an option) and group
// commit, performed unconditionally and without weakening durability by
// coalescing concurrent appenders onto one write and one fsync. The benchmark
// harness measures both as ablations (A-COMPRESS, A-GROUP).
//
// There is one file engine, SegmentFile: record framing, the open-time
// recovery scan with torn-tail truncation, the group-commit loop, poison,
// and rewrite-and-rename. FileLog implements Log as an id → payload view
// over one (real deployments, the crash-recovery tests); the disk object
// store uses one directly, addressed by offset. MemLog is an in-memory Log
// with a modeled flush cost: the simulator's log (fsync time must be charged
// to virtual, not wall, time) and the tests' reference model.
package stable

import (
	"errors"
	"fmt"
	"time"
)

// Errors returned by logs.
var (
	ErrClosed    = errors.New("stable: log is closed")
	ErrCorrupt   = errors.New("stable: corrupt log record")
	ErrRecordBig = errors.New("stable: record exceeds size limit")
	// ErrTornTail marks a partially-written record at the end of the log —
	// the signature of a crash mid-append. Recovery truncates the torn
	// record and continues; FileLog.TornTail reports it afterwards.
	ErrTornTail = errors.New("stable: torn record at log tail")
	// ErrPoisoned marks a log whose write or group-commit fsync failed.
	// After a failed write the file's tail is of unknown extent, and after
	// the kernel fails a flush the page-cache state is unknowable, so the
	// log refuses all further appends and removes rather than pretend the
	// data is durable. Match with errors.Is; the concrete *PoisonedError
	// carries the original failure.
	ErrPoisoned = errors.New("stable: log poisoned by failed sync")
)

// TornTailError carries the byte offset of a torn trailing record detected
// (and truncated) during recovery. It unwraps to ErrTornTail.
type TornTailError struct {
	// Offset is the file offset at which the torn record began; every
	// record before it was recovered intact.
	Offset int64
}

func (e *TornTailError) Error() string {
	return fmt.Sprintf("stable: torn record at log tail (offset %d, truncated)", e.Offset)
}

// Unwrap makes errors.Is(e, ErrTornTail) true.
func (e *TornTailError) Unwrap() error { return ErrTornTail }

// PoisonedError is the sticky error a log returns once a write or a
// group-commit fsync has failed: the first failure is remembered and every
// subsequent append, remove or Commit (and any waiter that was riding the
// failed flush) gets it. Durability-critical callers — the QRPC server's
// session journal — treat it as fatal and refuse further work instead of
// continuing without durability. It matches errors.Is(err, ErrPoisoned) and
// unwraps to the underlying failure.
type PoisonedError struct {
	// Cause is the original write or fsync error that poisoned the log.
	Cause error
}

func (e *PoisonedError) Error() string {
	return fmt.Sprintf("stable: log poisoned by failed sync: %v", e.Cause)
}

// Unwrap exposes the original failure.
func (e *PoisonedError) Unwrap() error { return e.Cause }

// Is makes errors.Is(e, ErrPoisoned) true without hiding the cause chain.
func (e *PoisonedError) Is(target error) bool { return target == ErrPoisoned }

// MaxRecord bounds a single log record.
const MaxRecord = 32 << 20

// Log is a stable store of uniquely-identified records. Records are
// appended durably, removed when no longer needed (the request was
// acknowledged), and replayed in append order at recovery.
type Log interface {
	// Append stores rec durably and returns its assigned id. Ids are
	// strictly increasing within and across recoveries. The log keeps rec
	// itself as the live record, so the caller must not write it afterwards
	// and should hand over an exact-size slice (wire.Detach's): the live
	// set pins whatever capacity rec has. Other holders of the same bytes
	// take views of rec instead of copies.
	Append(rec []byte) (uint64, error)
	// AppendNoSync is Append without the durability wait — pipelined group
	// commit [Hagmann 87]: stage K records, pay ONE Commit for them all, and
	// release nothing that depends on a staged record before Commit returns
	// nil. A crash before then loses a staged record whole, never torn.
	AppendNoSync(rec []byte) (uint64, error)
	// RemoveNoSync stages a remove record for each listed id that is still
	// live and drops those ids from the live set at once; ids that are not
	// live are skipped, and when none is nothing is staged. The removes are
	// written and durable once a Commit, or an Append, called after
	// RemoveNoSync has returned nil — its one write and flush cover every
	// record staged before — so a caller about to append pays nothing more.
	// Nothing that depends on the records staying gone may be released
	// before then: a crash first brings them back at recovery. After a
	// failed flush, which of the removes took is decided at recovery. The
	// log does not keep ids.
	RemoveNoSync(ids ...uint64) error
	// Replay calls fn for every live (appended, not removed) record in
	// append order. Replay during active use sees a consistent snapshot.
	// A record fn is handed is the log's own, the very slice Append kept
	// before a reopen: fn must not write it.
	Replay(fn func(id uint64, rec []byte) error) error
	// Cost returns the modeled flush latency a caller under virtual time
	// charges each durable Append: MemLog's configured FlushCost. A FileLog
	// pays its flush in wall time inside Append and Commit and returns 0.
	Cost() time.Duration
	// Commit blocks until every record written so far — appended or removed,
	// staged or not — is durable, joining the in-flight group commit if one
	// is running.
	Commit() error
	// Stats returns operation counters.
	Stats() Stats
	// Close releases resources. Appends after Close fail with ErrClosed.
	Close() error
}

// BatchLog is the name Log had for logs that could stage appends; every Log
// can now.
type BatchLog = Log

// Stats counts log activity.
type Stats struct {
	Appends      int64
	Removes      int64
	Syncs        int64 // fsync (or modeled flush) operations
	SyncNanos    int64 // total wall time spent inside fsync (FileLog only)
	BytesWritten int64 // bytes written to the backing store, post-compression
	BytesLogical int64 // bytes of record payload before compression
	Compactions  int64
}

// Options configure a log's durability/space trade-offs. The zero value is
// the paper's prototype: synchronous flush per append, no compression.
type Options struct {
	// NoSync disables the per-append fsync entirely (unsafe; for measuring
	// the flush's share of the critical path).
	NoSync bool
	// Compress flate-compresses record payloads larger than 64 bytes. The
	// paper's prototype "does not perform any compression on the log".
	Compress bool
	// FlushCost is the modeled per-append flush latency for MemLog. It is
	// ignored by FileLog.
	FlushCost time.Duration
}
