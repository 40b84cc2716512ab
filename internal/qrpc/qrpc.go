// Package qrpc implements Queued Remote Procedure Call, one of the two
// mechanisms at the heart of the Rover toolkit.
//
// QRPC "permits applications to continue to make non-blocking remote
// procedure call requests even when a host is disconnected, with requests
// and responses being exchanged upon network reconnection." Concretely:
//
//   - An application enqueues a request; the client engine assigns it a
//     sequence number, writes it to the stable operation log (the flush is
//     on the critical path, as in the paper), and returns a Promise.
//   - When a transport is connected, the engine drains the queue in
//     priority order. Disconnection at any point is harmless: unreplied
//     requests are redelivered on the next connection.
//   - The server engine executes each request at most once, caching
//     replies until the client acknowledges them, so redelivered requests
//     return the original reply instead of re-executing.
//   - Replies complete promises and fire application callbacks; the log
//     entry is removed before the acknowledgement is sent, so a crash at
//     any instant loses nothing.
//
// The engines are deliberately "sans-io" state machines: they never touch
// sockets, clocks, or goroutines. Entry points take explicit timestamps
// and a Sender; adapters in internal/transport pump them from real TCP
// connections, from the discrete-event network simulator, and from the
// store-and-forward mail transport. One code path serves experiments and
// deployment alike.
package qrpc

import (
	"errors"

	"rover/internal/wire"
)

// Priority orders queued requests; higher drains first. The paper: "the
// application specifies a priority that is used by the network scheduler
// to reorder QRPCs."
type Priority uint8

// Standard priorities. Applications may use any value; these name the
// conventional levels (prefetches ride Low, user-blocking work High).
const (
	PriorityLow        Priority = 2
	PriorityNormal     Priority = 5
	PriorityHigh       Priority = 8
	PriorityForeground Priority = 10
)

// Errors surfaced through promises and engine methods.
var (
	ErrAuthRejected = errors.New("qrpc: server rejected authentication")
	ErrEngineClosed = errors.New("qrpc: engine closed")
	ErrCancelled    = errors.New("qrpc: request cancelled")
)

// Sender transmits frames toward the peer. Send is best-effort: a false
// return means the frame was not accepted (link down) and the engine will
// retry after the next connect.
type Sender interface {
	SendFrame(f wire.Frame) bool
}

// Status codes carried in replies.
type Status byte

// Reply status values.
const (
	StatusOK        Status = 0 // handler succeeded; Result holds the value
	StatusAppError  Status = 1 // handler returned an application error
	StatusNoService Status = 2 // no handler registered for the service
)

// RemoteError is the promise error for a reply with non-OK status.
type RemoteError struct {
	Status  Status
	Message string
}

func (e *RemoteError) Error() string {
	switch e.Status {
	case StatusNoService:
		return "qrpc: no such service: " + e.Message
	default:
		return "qrpc: remote error: " + e.Message
	}
}

// ClientStats counts client-engine activity for the benchmark harness.
type ClientStats struct {
	Enqueued     int64
	Sent         int64 // request frames handed to a transport
	Resent       int64 // request frames sent more than once
	Replies      int64
	Duplicates   int64 // replies for already-completed requests
	AcksSent     int64 // seqs acknowledged (several may share one ack frame)
	AckFlushes   int64 // ack frames sent at a flush point with no request aboard
	BatchesSent  int64 // FrameBatch frames sent (coalesced pump cycles)
	ZBatchesSent int64 // compressed (FrameBatchZ) frames sent
	Connects     int64
	Disconnects  int64

	// BusyReceived counts FrameBusy refusals from servers past their
	// session high-water mark (see ServerConfig.MaxSessions). The engine
	// surfaces each via ClientConfig.OnBusy so the owner can rotate to a
	// backup server; queued requests stay queued and redeliver later.
	BusyReceived int64
}

// ServerStats counts server-engine activity.
type ServerStats struct {
	Requests      int64
	Executed      int64
	ReplaysServed int64 // duplicate requests answered from the reply cache
	Dropped       int64 // stale duplicates dropped
	AcksReceived  int64
	AuthFailures  int64
	CallbacksSent int64
	BatchesSent   int64 // FrameBatch frames sent (coalesced reply chunks)
	ZBatchesSent  int64 // compressed (FrameBatchZ) frames sent

	// ReplicatedReplies counts replies installed by a replica peer via
	// InstallReply (reply-cache continuity across failover).
	ReplicatedReplies int64

	// Session-journal counters (zero when the server has no journal).
	JournalRecords     int64 // exec/ack/prune records appended
	JournalCompactions int64 // snapshot+truncate cycles completed
	JournalRefused     int64 // requests refused because the journal is poisoned
	RecoveredSessions  int64 // sessions rebuilt from the journal at construction
	RecoveredReplies   int64 // cached replies rebuilt from the journal at construction
	JournalReshards    int64 // sessions rewritten into their home shard at recovery

	// Admission-control and budget counters (see ServerConfig.MaxSessions
	// and SessionBudgetBytes).
	SessionsRefused int64 // Hellos from NEW clients refused with FrameBusy
	BudgetRefused   int64 // new requests dropped: session over its reply budget
}
