package qrpc

import (
	"fmt"

	"rover/internal/wire"
)

// Protocol messages. Each is the payload of one wire.Frame whose type tag
// is the corresponding wire.Frame* constant.

// Capability bits advertised in the Hello/Welcome exchange. Caps is an
// OPTIONAL trailing field: encoders omit it when zero (so a peer with
// nothing to advertise emits exactly the pre-capability wire format) and
// decoders read it only when bytes remain. That keeps both directions
// compatible with peers built before capabilities existed — an old
// decoder rejects trailing bytes, so a new encoder must never send any
// to a peer that has not proven it understands them. The server echoes
// capabilities only to clients that advertised some.
const (
	// CapCompressedBatch: the peer can decode wire.FrameBatchZ frames.
	CapCompressedBatch uint64 = 1 << 0
)

// Hello opens (or resumes) a session: client -> server, first frame after
// every connect, and the header of every mail-transport batch.
type Hello struct {
	ClientID string
	// Nonce is a client-chosen random value the Proof is computed over.
	// (A server-issued challenge would add a round trip per connect —
	// costly at 2.4 Kbit/s; the paper's threat model is authenticating
	// clients to a trusted server, not defeating network-level replay.)
	Nonce []byte
	// Proof is auth.Prove(key, ClientID, Nonce); empty when the server
	// runs without an auth registry.
	Proof []byte
	// LowSeq is the lowest unacknowledged sequence number in the client's
	// stable log; the server may discard idempotency state below it.
	LowSeq uint64
	// Caps advertises optional protocol capabilities (Cap* bits). Zero is
	// omitted from the encoding; see the Cap constants.
	Caps uint64
}

// MarshalWire implements wire.Marshaler.
func (m *Hello) MarshalWire(b *wire.Buffer) {
	b.PutString(m.ClientID)
	b.PutBytes(m.Nonce)
	b.PutBytes(m.Proof)
	b.PutUvarint(m.LowSeq)
	if m.Caps != 0 {
		b.PutUvarint(m.Caps)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *Hello) UnmarshalWire(r *wire.Reader) error {
	m.ClientID = r.String()
	m.Nonce = r.Bytes()
	m.Proof = r.Bytes()
	m.LowSeq = r.Uvarint()
	m.Caps = 0
	if r.Err() == nil && r.Remaining() > 0 {
		m.Caps = r.Uvarint()
	}
	return r.Err()
}

// Welcome accepts a session: server -> client.
type Welcome struct {
	ServerID string
	// HighSeq is the highest sequence number the server has executed for
	// this client (diagnostic; redelivery correctness does not depend on
	// it).
	HighSeq uint64
	// Caps is the intersection of the client's advertised capabilities and
	// the server's own. Zero is omitted from the encoding, and a server
	// never sends a nonzero Caps to a client whose Hello carried none.
	Caps uint64
}

// MarshalWire implements wire.Marshaler.
func (m *Welcome) MarshalWire(b *wire.Buffer) {
	b.PutString(m.ServerID)
	b.PutUvarint(m.HighSeq)
	if m.Caps != 0 {
		b.PutUvarint(m.Caps)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *Welcome) UnmarshalWire(r *wire.Reader) error {
	m.ServerID = r.String()
	m.HighSeq = r.Uvarint()
	m.Caps = 0
	if r.Err() == nil && r.Remaining() > 0 {
		m.Caps = r.Uvarint()
	}
	return r.Err()
}

// Request is one queued remote procedure call.
type Request struct {
	Seq      uint64
	Priority Priority
	Service  string // dispatch key at the server ("rover.import", ...)
	Args     []byte // service-specific payload
}

// MarshalWire implements wire.Marshaler.
func (m *Request) MarshalWire(b *wire.Buffer) {
	b.PutUvarint(m.Seq)
	b.PutByte(byte(m.Priority))
	b.PutString(m.Service)
	b.PutBytes(m.Args)
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *Request) UnmarshalWire(r *wire.Reader) error {
	m.Service = string(m.unmarshalNamed(r))
	return r.Err()
}

// unmarshalNamed decodes every field but Service and returns the service
// name as Bytes reads it. From an owned reader that is a view of the frame,
// which the server resolves against its handler table without building a
// string.
func (m *Request) unmarshalNamed(r *wire.Reader) []byte {
	m.Seq = r.Uvarint()
	m.Priority = Priority(r.Byte())
	service := r.Bytes()
	m.Args = r.Bytes()
	return service
}

// Reply answers one Request.
type Reply struct {
	Seq    uint64
	Status Status
	Result []byte // valid when Status == StatusOK
	ErrMsg string // valid otherwise
}

// MarshalWire implements wire.Marshaler.
func (m *Reply) MarshalWire(b *wire.Buffer) {
	b.PutUvarint(m.Seq)
	b.PutByte(byte(m.Status))
	b.PutBytes(m.Result)
	b.PutString(m.ErrMsg)
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *Reply) UnmarshalWire(r *wire.Reader) error {
	m.Seq = r.Uvarint()
	m.Status = Status(r.Byte())
	m.Result = r.Bytes()
	m.ErrMsg = r.String()
	return r.Err()
}

// readReplySeq checks that the bytes at r's position decode as one Reply
// and returns its seq. Result and ErrMsg are read as views, so the check
// builds nothing, even for an error reply.
func readReplySeq(r *wire.Reader) (uint64, error) {
	seq := r.Uvarint()
	r.Byte()
	r.View()
	r.View()
	return seq, r.Err()
}

// Ack tells the server which replies arrived, so it can discard its
// idempotency state for them.
type Ack struct {
	Seqs []uint64
}

// MarshalWire implements wire.Marshaler.
func (m *Ack) MarshalWire(b *wire.Buffer) {
	b.PutUvarintSlice(m.Seqs)
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *Ack) UnmarshalWire(r *wire.Reader) error {
	m.Seqs = r.UvarintSlice()
	return r.Err()
}

// Callback is a server-initiated notification (object-change callbacks for
// cache consistency).
type Callback struct {
	Topic   string
	Payload []byte
}

// MarshalWire implements wire.Marshaler.
func (m *Callback) MarshalWire(b *wire.Buffer) {
	b.PutString(m.Topic)
	b.PutBytes(m.Payload)
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *Callback) UnmarshalWire(r *wire.Reader) error {
	m.Topic = r.String()
	m.Payload = r.Bytes()
	return r.Err()
}

// Stable-log records. Two kinds survive a crash:
//
//   - request records ('Q'): the queued request itself;
//   - meta records ('M'): a sequence floor. Sequence numbers must never be
//     reused across client incarnations — the server's at-most-once reply
//     cache is keyed by them — and the request records alone cannot
//     guarantee that (a crash with an empty queue would reset the counter).
//     The client therefore reserves sequence numbers in chunks, persisting
//     the reservation before using it.
const (
	recRequest byte = 'Q'
	recMeta    byte = 'M'
)

// seqReserveChunk is how many sequence numbers each meta record reserves.
const seqReserveChunk = 1024

func encodeRequestRecord(req *Request) []byte {
	b := wire.GetBuffer()
	b.PutByte(recRequest)
	req.MarshalWire(b)
	return wire.Detach(b)
}

func encodeMetaRecord(floor uint64) []byte {
	b := wire.GetBuffer()
	b.PutByte(recMeta)
	b.PutUvarint(floor)
	return wire.Detach(b)
}

// decodeRecord parses a stable-log record: exactly one of req or meta
// applies, per isMeta.
func decodeRecord(p []byte) (req *Request, floor uint64, isMeta bool, err error) {
	r := wire.NewReader(p)
	switch r.Byte() {
	case recRequest:
		var rq Request
		if err := rq.UnmarshalWire(r); err != nil {
			return nil, 0, false, fmt.Errorf("qrpc: corrupt request record: %w", err)
		}
		if r.Remaining() != 0 {
			return nil, 0, false, fmt.Errorf("qrpc: trailing bytes in request record")
		}
		return &rq, 0, false, nil
	case recMeta:
		floor := r.Uvarint()
		if err := r.Err(); err != nil {
			return nil, 0, false, fmt.Errorf("qrpc: corrupt meta record: %w", err)
		}
		return nil, floor, true, nil
	default:
		return nil, 0, false, fmt.Errorf("qrpc: unknown log record kind")
	}
}
