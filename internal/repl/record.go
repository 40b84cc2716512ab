// Package repl is the home-pair replication layer: it keeps two Rover
// servers' object stores (and exactly-once session state) converged so a
// client can fail over from one to the other without losing accepted work.
//
// The design reuses the toolkit's own machinery instead of inventing a
// second wire protocol. Each server runs a Replicator holding an ordinary
// qrpc.Client pointed at its peer's engine: every committed mutation the
// local store observes becomes a replication record enqueued on that
// client. QRPC then provides, for free, exactly what a replication stream
// needs — durable queueing while the peer is down, redelivery after
// reconnection, in-order drain, and at-most-once application (the peer's
// reply cache absorbs duplicates). The queued backlog during a peer outage
// IS the replication lag, observable as the repl client's pending count.
//
// Two record kinds mirror the store's mutation vocabulary: operation
// commits (replayed deterministically at the peer, verified by checksum)
// and opaque state transfers (creates, plain commits, and anti-entropy
// catch-up). A third kind streams executed-request replies into the peer's
// session cache, so a client that fails over has its redelivered requests
// answered from cache there instead of re-executed.
//
// When a record arrives out of step — the peer restarted behind, or its
// history window was pruned — the receiver answers "behind, I have version
// V" and the sender pushes catch-up: the invocations since V when
// store.OpsSince still has them, the whole object otherwise. A digest sweep
// on every reconnection covers anything a crash threw away entirely.
package repl

import (
	"fmt"
	"strings"

	"rover/internal/rdo"
	"rover/internal/urn"
	"rover/internal/wire"
)

// Service names of the replication protocol, registered on each server's
// engine when replication is enabled.
const (
	// SvcApply applies one replication record; args Record, reply ApplyReply.
	SvcApply = "rover.repl.apply"
	// SvcDigest returns the receiver's object digest; empty args, reply
	// DigestReply.
	SvcDigest = "rover.repl.digest"
)

// ClientSuffix tags the QRPC identity a Replicator uses toward its peer:
// a server named "A" replicates as client "A!repl". The suffix lets the
// exec-record stream recognize (and not re-replicate) the peer's own
// replication traffic.
const ClientSuffix = "!repl"

// ClientID builds the replication identity for a server incarnation. A
// server without a durable replication log comes back from a restart with a
// fresh instance tag ("A#<boot ns>!repl", see New): the peer's session for
// the old identity remembers a sequence floor the reset client would fall
// below, and every record from the new incarnation would be dropped as a
// stale duplicate. Servers with a durable log keep instance empty and a
// stable identity.
func ClientID(serverID, instance string) string {
	if instance == "" {
		return serverID + ClientSuffix
	}
	return serverID + "#" + instance + ClientSuffix
}

// IsReplService reports whether service belongs to the replication
// protocol.
func IsReplService(service string) bool {
	return strings.HasPrefix(service, "rover.repl.")
}

// IsReplClient reports whether clientID is a Replicator's peer identity.
func IsReplClient(clientID string) bool {
	return strings.HasSuffix(clientID, ClientSuffix)
}

// Record kinds.
const (
	// KindOps: Version was produced by replaying Invs against the state at
	// PrevVersion. Check is proto.ObjectCheck of the sender's resulting
	// encoding; a receiver whose replay disagrees asks for the full object.
	// Catch-up records may span several versions (PrevVersion+len > Version
	// is fine — the ops are whatever OpsSince returned for the span).
	KindOps byte = 'O'
	// KindState: Object carries a full wire-encoded rdo.Object to install
	// as-is (create, opaque commit, or anti-entropy transfer).
	KindState byte = 'S'
	// KindExec: ClientID executed a request and Reply holds the
	// wire-encoded qrpc.Reply to install in the peer's session cache.
	KindExec byte = 'E'
)

// Record is one replication stream entry.
type Record struct {
	Kind        byte
	URN         urn.URN // Ops, State
	PrevVersion uint64  // Ops: base version
	Version     uint64  // Ops: resulting version
	Invs        []rdo.Invocation
	Src         string // Ops: exporting client the origin recorded (may be "")
	Check       uint32 // Ops: checksum of the resulting object encoding
	Object      []byte // State: full object encoding
	ClientID    string // Exec
	Reply       []byte // Exec: wire-encoded qrpc.Reply
}

// MarshalWire implements wire.Marshaler.
func (m *Record) MarshalWire(b *wire.Buffer) {
	b.PutByte(m.Kind)
	switch m.Kind {
	case KindOps:
		b.PutString(m.URN.String())
		b.PutUvarint(m.PrevVersion)
		b.PutUvarint(m.Version)
		b.PutUvarint(uint64(len(m.Invs)))
		for i := range m.Invs {
			m.Invs[i].MarshalWire(b)
		}
		b.PutString(m.Src)
		b.PutUint32(m.Check)
	case KindState:
		b.PutString(m.URN.String())
		b.PutBytes(m.Object)
	case KindExec:
		b.PutString(m.ClientID)
		b.PutBytes(m.Reply)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *Record) UnmarshalWire(r *wire.Reader) error {
	m.Kind = r.Byte()
	switch m.Kind {
	case KindOps:
		us := r.String()
		m.PrevVersion = r.Uvarint()
		m.Version = r.Uvarint()
		invs, err := rdo.ReadInvocations(r, uint64(r.Len()))
		if err != nil {
			return err
		}
		m.Invs = invs
		m.Src = r.String()
		m.Check = r.Uint32()
		if err := r.Err(); err != nil {
			return err
		}
		return parseURN(us, &m.URN)
	case KindState:
		us := r.String()
		m.Object = r.Bytes()
		if err := r.Err(); err != nil {
			return err
		}
		return parseURN(us, &m.URN)
	case KindExec:
		m.ClientID = r.String()
		m.Reply = r.Bytes()
		return r.Err()
	default:
		if err := r.Err(); err != nil {
			return err
		}
		return fmt.Errorf("repl: unknown record kind %q", m.Kind)
	}
}

// ApplyReply statuses.
const (
	// ApplyOK: applied, or a duplicate of something already applied.
	ApplyOK byte = 0
	// ApplyBehind: the receiver's object is at HaveVersion (0 = absent) and
	// cannot apply the record; the sender should push catch-up from there.
	ApplyBehind byte = 1
	// ApplyNeedState: the receiver could not use an ops record (replay
	// diverged from the checksum, or replay failed); the sender should push
	// the full object.
	ApplyNeedState byte = 2
)

// ApplyReply answers one SvcApply record.
type ApplyReply struct {
	Status      byte
	HaveVersion uint64 // receiver's current version when Status != ApplyOK
}

// MarshalWire implements wire.Marshaler.
func (m *ApplyReply) MarshalWire(b *wire.Buffer) {
	b.PutByte(m.Status)
	b.PutUvarint(m.HaveVersion)
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *ApplyReply) UnmarshalWire(r *wire.Reader) error {
	m.Status = r.Byte()
	m.HaveVersion = r.Uvarint()
	return r.Err()
}

// DigestEntry summarizes one object for the anti-entropy sweep.
type DigestEntry struct {
	URN     urn.URN
	Version uint64
	Check   uint32 // checksum of the full object encoding
}

// DigestReply lists every object the receiver holds. ServerID names the
// responder so the sweeper can order the deterministic divergence winner.
type DigestReply struct {
	ServerID string
	Entries  []DigestEntry
}

// MarshalWire implements wire.Marshaler.
func (m *DigestReply) MarshalWire(b *wire.Buffer) {
	b.PutString(m.ServerID)
	b.PutUvarint(uint64(len(m.Entries)))
	for i := range m.Entries {
		b.PutString(m.Entries[i].URN.String())
		b.PutUvarint(m.Entries[i].Version)
		b.PutUint32(m.Entries[i].Check)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *DigestReply) UnmarshalWire(r *wire.Reader) error {
	m.ServerID = r.String()
	n := r.Len()
	// Sized by the bytes present: an entry encodes to at least six.
	m.Entries = make([]DigestEntry, 0, min(n, r.Remaining()/6))
	for i := 0; i < n; i++ {
		var e DigestEntry
		us := r.String()
		e.Version = r.Uvarint()
		e.Check = r.Uint32()
		if err := r.Err(); err != nil {
			return err
		}
		if err := parseURN(us, &e.URN); err != nil {
			return err
		}
		m.Entries = append(m.Entries, e)
	}
	return r.Err()
}

func parseURN(s string, dst *urn.URN) error {
	u, err := urn.Parse(s)
	if err != nil {
		return fmt.Errorf("repl: %w", err)
	}
	*dst = u
	return nil
}
