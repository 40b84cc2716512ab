// Package proto defines the Rover service protocol spoken over QRPC: the
// service names the server registers and the argument/reply encodings for
// each. Both the access manager (client) and the Rover server depend on
// it; neither depends on the other.
package proto

import (
	"fmt"
	"hash/crc32"

	"rover/internal/rdo"
	"rover/internal/urn"
	"rover/internal/wire"
)

// objectCheckTable is the polynomial for ObjectCheck (Castagnoli, like
// every other checksum in the toolkit).
var objectCheckTable = crc32.MakeTable(crc32.Castagnoli)

// ObjectCheck computes the delta-import and lean-export integrity checksum
// over an object's wire encoding (rdo.Object.Encode is deterministic — state
// pairs are sorted — so server and client agree byte-for-byte whenever
// their replays agree).
func ObjectCheck(encoded []byte) uint32 {
	return crc32.Checksum(encoded, objectCheckTable)
}

// CheckOf is ObjectCheck(obj.Encode()) without allocating the encoding: the
// object is encoded into pooled scratch, hashed, and the scratch released.
func CheckOf(obj *rdo.Object) uint32 {
	b := wire.GetBuffer()
	obj.MarshalWire(b)
	check := ObjectCheck(b.Bytes())
	wire.PutBuffer(b)
	return check
}

// Service names. These are the "well-defined interface" through which all
// client/server interaction flows.
const (
	SvcImport    = "rover.import"
	SvcExport    = "rover.export"
	SvcInvoke    = "rover.invoke"
	SvcCreate    = "rover.create"
	SvcStat      = "rover.stat"
	SvcList      = "rover.list"
	SvcSubscribe = "rover.subscribe"
	SvcConflicts = "rover.conflicts"
	SvcCheckout  = "rover.checkout"
	SvcCheckin   = "rover.checkin"
)

// TopicInvalidate is the callback topic for object-change notifications.
// The payload is an InvalidateEvent.
const TopicInvalidate = "rover.invalidate"

// Export outcomes.
type Outcome byte

// The three ways an export can land.
const (
	// OutcomeCommitted: base version matched; operations applied cleanly.
	OutcomeCommitted Outcome = 0
	// OutcomeResolved: a conflict was detected and the type-specific
	// resolver merged the operations.
	OutcomeResolved Outcome = 1
	// OutcomeConflict: the resolver rejected the operations; they sit in
	// the server's manual-repair queue.
	OutcomeConflict Outcome = 2
)

func (o Outcome) String() string {
	switch o {
	case OutcomeCommitted:
		return "committed"
	case OutcomeResolved:
		return "resolved"
	case OutcomeConflict:
		return "conflict"
	default:
		return fmt.Sprintf("outcome(%d)", byte(o))
	}
}

// ImportArgs asks for an object. HaveVersion enables revalidation: when it
// matches the server's current version the reply is NotModified and omits
// the body, saving the transfer on slow links.
type ImportArgs struct {
	URN         urn.URN
	HaveVersion uint64
}

// MarshalWire implements wire.Marshaler.
func (m *ImportArgs) MarshalWire(b *wire.Buffer) {
	b.PutString(m.URN.String())
	b.PutUvarint(m.HaveVersion)
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *ImportArgs) UnmarshalWire(r *wire.Reader) error {
	us := r.String()
	m.HaveVersion = r.Uvarint()
	if err := r.Err(); err != nil {
		return err
	}
	return parseURN(us, &m.URN)
}

// ImportReply returns the object, a not-modified marker, or — when the
// client revalidated with a recent version the server still has operation
// history for — a delta: just the invocations that advance the client's
// committed copy to the current version. The delta fields trail the
// original encoding and are omitted entirely when Delta is false, so
// pre-delta decoders (which reject trailing bytes) still read every full
// and not-modified reply a new server produces.
type ImportReply struct {
	NotModified bool
	Object      []byte // wire-encoded rdo.Object when !NotModified && !Delta

	// Delta form: replay Ops (oldest first) against the committed copy at
	// FromVersion to obtain NewVersion. Check is ObjectCheck of the
	// server's post-replay encoding; a client whose replay disagrees
	// falls back to a full import.
	Delta       bool
	FromVersion uint64
	NewVersion  uint64
	Ops         []rdo.Invocation
	Check       uint32
}

// MarshalWire implements wire.Marshaler.
func (m *ImportReply) MarshalWire(b *wire.Buffer) {
	b.PutBool(m.NotModified)
	b.PutBytes(m.Object)
	if !m.Delta {
		return
	}
	b.PutBool(true)
	b.PutUvarint(m.FromVersion)
	b.PutUvarint(m.NewVersion)
	b.PutUvarint(uint64(len(m.Ops)))
	for i := range m.Ops {
		m.Ops[i].MarshalWire(b)
	}
	b.PutUint32(m.Check)
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *ImportReply) UnmarshalWire(r *wire.Reader) error {
	m.NotModified = r.Bool()
	m.Object = r.Bytes()
	m.Delta = false
	if r.Err() != nil || r.Remaining() == 0 {
		return r.Err()
	}
	m.Delta = r.Bool()
	m.FromVersion = r.Uvarint()
	m.NewVersion = r.Uvarint()
	var err error
	if m.Ops, err = readInvocations(r); err != nil {
		return err
	}
	m.Check = r.Uint32()
	return r.Err()
}

// ExportArgs ships a batch of tentative operations on one object. The
// Expect field trails the original encoding and is omitted entirely when
// HasExpect is false (the ImportReply delta-trailer convention), so a
// trailer-less client's bytes are what they always were.
type ExportArgs struct {
	URN     urn.URN
	BaseVer uint64
	Invs    []rdo.Invocation
	// ReadDeps carries writes-follow-reads dependencies: object versions
	// this batch's session had read when the operations were performed.
	ReadDep uint64

	// Expect is ObjectCheck of the state the client predicts a clean commit
	// produces: its working copy encoded at version BaseVer+1. A server
	// whose committed object hashes to it leaves ExportReply.Object empty.
	HasExpect bool
	Expect    uint32
}

// MarshalWire implements wire.Marshaler.
func (m *ExportArgs) MarshalWire(b *wire.Buffer) {
	b.PutString(m.URN.String())
	b.PutUvarint(m.BaseVer)
	b.PutUvarint(m.ReadDep)
	b.PutUvarint(uint64(len(m.Invs)))
	for i := range m.Invs {
		m.Invs[i].MarshalWire(b)
	}
	if m.HasExpect {
		b.PutUint32(m.Expect)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *ExportArgs) UnmarshalWire(r *wire.Reader) error {
	us := r.String()
	m.BaseVer = r.Uvarint()
	m.ReadDep = r.Uvarint()
	var err error
	if m.Invs, err = readInvocations(r); err != nil {
		return err
	}
	m.HasExpect, m.Expect = false, 0
	if r.Remaining() > 0 {
		m.HasExpect, m.Expect = true, r.Uint32()
	}
	if err := r.Err(); err != nil {
		return err
	}
	return parseURN(us, &m.URN)
}

// ExportReply reports the commit/resolve/conflict outcome. Object carries
// the server's post-export state so the client cache converges without a
// second round trip; it is empty only for a Committed outcome whose state
// hashed to ExportArgs.Expect — the client already holds those bytes.
type ExportReply struct {
	Outcome    Outcome
	NewVersion uint64
	Object     []byte
	Message    string
}

// MarshalWire implements wire.Marshaler.
func (m *ExportReply) MarshalWire(b *wire.Buffer) {
	b.PutByte(byte(m.Outcome))
	b.PutUvarint(m.NewVersion)
	b.PutBytes(m.Object)
	b.PutString(m.Message)
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *ExportReply) UnmarshalWire(r *wire.Reader) error {
	m.Outcome = Outcome(r.Byte())
	m.NewVersion = r.Uvarint()
	m.Object = r.Bytes()
	m.Message = r.String()
	return r.Err()
}

// InvokeArgs executes a method at the server (function shipping toward
// the fixed host — the complement of importing the RDO and running it
// locally).
type InvokeArgs struct {
	URN    urn.URN
	Method string
	Args   []string
}

// MarshalWire implements wire.Marshaler.
func (m *InvokeArgs) MarshalWire(b *wire.Buffer) {
	b.PutString(m.URN.String())
	b.PutString(m.Method)
	b.PutStringSlice(m.Args)
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *InvokeArgs) UnmarshalWire(r *wire.Reader) error {
	us := r.String()
	m.Method = r.String()
	m.Args = r.StringSlice()
	if err := r.Err(); err != nil {
		return err
	}
	return parseURN(us, &m.URN)
}

// InvokeReply carries the method result.
type InvokeReply struct {
	Result     string
	NewVersion uint64
	Mutated    bool
}

// MarshalWire implements wire.Marshaler.
func (m *InvokeReply) MarshalWire(b *wire.Buffer) {
	b.PutString(m.Result)
	b.PutUvarint(m.NewVersion)
	b.PutBool(m.Mutated)
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *InvokeReply) UnmarshalWire(r *wire.Reader) error {
	m.Result = r.String()
	m.NewVersion = r.Uvarint()
	m.Mutated = r.Bool()
	return r.Err()
}

// CreateArgs registers a new object at its home server.
type CreateArgs struct {
	Object []byte // wire-encoded rdo.Object
}

// MarshalWire implements wire.Marshaler.
func (m *CreateArgs) MarshalWire(b *wire.Buffer) { b.PutBytes(m.Object) }

// UnmarshalWire implements wire.Unmarshaler.
func (m *CreateArgs) UnmarshalWire(r *wire.Reader) error {
	m.Object = r.Bytes()
	return r.Err()
}

// CreateReply confirms creation.
type CreateReply struct {
	Version uint64
}

// MarshalWire implements wire.Marshaler.
func (m *CreateReply) MarshalWire(b *wire.Buffer) { b.PutUvarint(m.Version) }

// UnmarshalWire implements wire.Unmarshaler.
func (m *CreateReply) UnmarshalWire(r *wire.Reader) error {
	m.Version = r.Uvarint()
	return r.Err()
}

// StatArgs probes an object without transferring it.
type StatArgs struct {
	URN urn.URN
}

// MarshalWire implements wire.Marshaler.
func (m *StatArgs) MarshalWire(b *wire.Buffer) { b.PutString(m.URN.String()) }

// UnmarshalWire implements wire.Unmarshaler.
func (m *StatArgs) UnmarshalWire(r *wire.Reader) error {
	us := r.String()
	if err := r.Err(); err != nil {
		return err
	}
	return parseURN(us, &m.URN)
}

// StatReply describes an object.
type StatReply struct {
	Exists  bool
	Version uint64
	Type    string
	Size    uint64
}

// MarshalWire implements wire.Marshaler.
func (m *StatReply) MarshalWire(b *wire.Buffer) {
	b.PutBool(m.Exists)
	b.PutUvarint(m.Version)
	b.PutString(m.Type)
	b.PutUvarint(m.Size)
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *StatReply) UnmarshalWire(r *wire.Reader) error {
	m.Exists = r.Bool()
	m.Version = r.Uvarint()
	m.Type = r.String()
	m.Size = r.Uvarint()
	return r.Err()
}

// ListArgs enumerates objects under a prefix (prefetch planning).
type ListArgs struct {
	Prefix urn.URN
}

// MarshalWire implements wire.Marshaler.
func (m *ListArgs) MarshalWire(b *wire.Buffer) { b.PutString(m.Prefix.String()) }

// UnmarshalWire implements wire.Unmarshaler.
func (m *ListArgs) UnmarshalWire(r *wire.Reader) error {
	us := r.String()
	if err := r.Err(); err != nil {
		return err
	}
	return parseURN(us, &m.Prefix)
}

// ListEntry is one row of a listing.
type ListEntry struct {
	URN     urn.URN
	Version uint64
	Type    string
}

// ListReply enumerates matching objects.
type ListReply struct {
	Entries []ListEntry
}

// MarshalWire implements wire.Marshaler.
func (m *ListReply) MarshalWire(b *wire.Buffer) {
	b.PutUvarint(uint64(len(m.Entries)))
	for _, e := range m.Entries {
		b.PutString(e.URN.String())
		b.PutUvarint(e.Version)
		b.PutString(e.Type)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *ListReply) UnmarshalWire(r *wire.Reader) error {
	n := r.Len()
	m.Entries = make([]ListEntry, 0, n)
	for i := 0; i < n; i++ {
		var e ListEntry
		us := r.String()
		e.Version = r.Uvarint()
		e.Type = r.String()
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

// SubscribeArgs registers interest in invalidation callbacks for objects
// under a prefix.
type SubscribeArgs struct {
	Prefix urn.URN
}

// MarshalWire implements wire.Marshaler.
func (m *SubscribeArgs) MarshalWire(b *wire.Buffer) { b.PutString(m.Prefix.String()) }

// UnmarshalWire implements wire.Unmarshaler.
func (m *SubscribeArgs) UnmarshalWire(r *wire.Reader) error {
	us := r.String()
	if err := r.Err(); err != nil {
		return err
	}
	return parseURN(us, &m.Prefix)
}

// InvalidateEvent is the payload of TopicInvalidate callbacks.
type InvalidateEvent struct {
	URN        urn.URN
	NewVersion uint64
}

// MarshalWire implements wire.Marshaler.
func (m *InvalidateEvent) MarshalWire(b *wire.Buffer) {
	b.PutString(m.URN.String())
	b.PutUvarint(m.NewVersion)
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *InvalidateEvent) UnmarshalWire(r *wire.Reader) error {
	us := r.String()
	m.NewVersion = r.Uvarint()
	if err := r.Err(); err != nil {
		return err
	}
	return parseURN(us, &m.URN)
}

// CheckoutArgs requests an exclusive application-level lock on an object —
// the Cedar-style check-out the paper anticipates: "certain applications
// will be structured as a collection of independent atomic actions, where
// the importing action sets an appropriate application-level lock." While
// an object is checked out, only the holder's exports and server-side
// invocations apply; other clients' updates are refused outright instead
// of entering optimistic conflict resolution.
type CheckoutArgs struct {
	URN urn.URN
	// Force breaks another holder's lock (manual repair after a client is
	// lost; the grant is reported with the previous holder's name).
	Force bool
}

// MarshalWire implements wire.Marshaler.
func (m *CheckoutArgs) MarshalWire(b *wire.Buffer) {
	b.PutString(m.URN.String())
	b.PutBool(m.Force)
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *CheckoutArgs) UnmarshalWire(r *wire.Reader) error {
	us := r.String()
	m.Force = r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	return parseURN(us, &m.URN)
}

// CheckoutReply reports the lock outcome.
type CheckoutReply struct {
	Granted bool
	// Holder is the current holder when refused, or the displaced holder
	// when a forced grant broke a lock ("" for a clean grant).
	Holder string
}

// MarshalWire implements wire.Marshaler.
func (m *CheckoutReply) MarshalWire(b *wire.Buffer) {
	b.PutBool(m.Granted)
	b.PutString(m.Holder)
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *CheckoutReply) UnmarshalWire(r *wire.Reader) error {
	m.Granted = r.Bool()
	m.Holder = r.String()
	return r.Err()
}

// CheckinArgs releases a check-out lock.
type CheckinArgs struct {
	URN urn.URN
}

// MarshalWire implements wire.Marshaler.
func (m *CheckinArgs) MarshalWire(b *wire.Buffer) { b.PutString(m.URN.String()) }

// UnmarshalWire implements wire.Unmarshaler.
func (m *CheckinArgs) UnmarshalWire(r *wire.Reader) error {
	us := r.String()
	if err := r.Err(); err != nil {
		return err
	}
	return parseURN(us, &m.URN)
}

// ConflictEntry mirrors store.Conflict for the admin service.
type ConflictEntry struct {
	URN      urn.URN
	ClientID string
	BaseVer  uint64
	AtVer    uint64
	Message  string
}

// ConflictsReply lists the server's manual-repair queue.
type ConflictsReply struct {
	Conflicts []ConflictEntry
}

// MarshalWire implements wire.Marshaler.
func (m *ConflictsReply) MarshalWire(b *wire.Buffer) {
	b.PutUvarint(uint64(len(m.Conflicts)))
	for _, c := range m.Conflicts {
		b.PutString(c.URN.String())
		b.PutString(c.ClientID)
		b.PutUvarint(c.BaseVer)
		b.PutUvarint(c.AtVer)
		b.PutString(c.Message)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *ConflictsReply) UnmarshalWire(r *wire.Reader) error {
	n := r.Len()
	m.Conflicts = make([]ConflictEntry, 0, n)
	for i := 0; i < n; i++ {
		var c ConflictEntry
		us := r.String()
		c.ClientID = r.String()
		c.BaseVer = r.Uvarint()
		c.AtVer = r.Uvarint()
		c.Message = r.String()
		if err := r.Err(); err != nil {
			return err
		}
		if err := parseURN(us, &c.URN); err != nil {
			return err
		}
		m.Conflicts = append(m.Conflicts, c)
	}
	return r.Err()
}

// readInvocations reads a count-prefixed invocation list. The count is a
// peer's claim, so storage is sized by the bytes actually present (an
// invocation encodes to at least four).
func readInvocations(r *wire.Reader) ([]rdo.Invocation, error) {
	n := r.Len()
	invs := make([]rdo.Invocation, 0, min(n, r.Remaining()/4))
	for i := 0; i < n; i++ {
		var inv rdo.Invocation
		if err := inv.UnmarshalWire(r); err != nil {
			return nil, err
		}
		invs = append(invs, inv)
	}
	return invs, r.Err()
}

func parseURN(s string, dst *urn.URN) error {
	u, err := urn.Parse(s)
	if err != nil {
		return fmt.Errorf("proto: %w", err)
	}
	*dst = u
	return nil
}
