// Package wire implements Rover's self-describing binary wire format.
//
// All Rover messages — QRPC requests and replies, imported object bodies,
// stable-log records — are encoded with the primitives in this package
// rather than encoding/gob or encoding/json. The format is deliberately
// simple (little-endian varints, length-prefixed byte strings) so that the
// byte counts reported by the benchmark harness are stable and meaningful,
// and so that log records written by one version of the toolkit remain
// readable by later versions.
//
// A Buffer accumulates an encoded value; a Reader consumes one with a
// sticky error, so decoding code can be written as a straight-line sequence
// of reads followed by a single error check.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Encoding limits. These bound untrusted input: a malicious or corrupt
// frame cannot cause an arbitrarily large allocation.
const (
	// MaxStringLen is the largest string or byte slice the decoder accepts.
	MaxStringLen = 16 << 20 // 16 MiB
	// MaxSliceLen is the largest element count the decoder accepts for
	// repeated fields.
	MaxSliceLen = 1 << 20
)

// Errors returned by Reader.
var (
	ErrTruncated = errors.New("wire: truncated input")
	ErrTooLarge  = errors.New("wire: length exceeds limit")
	ErrOverflow  = errors.New("wire: varint overflows 64 bits")
)

// Buffer accumulates an encoded message. The zero value is ready to use.
type Buffer struct {
	b []byte
}

// NewBuffer returns a Buffer with the given initial capacity.
func NewBuffer(capacity int) *Buffer {
	return &Buffer{b: make([]byte, 0, capacity)}
}

// Bytes returns the encoded contents. The returned slice aliases the
// buffer's storage and is invalidated by further writes.
func (b *Buffer) Bytes() []byte { return b.b }

// Len returns the number of encoded bytes.
func (b *Buffer) Len() int { return len(b.b) }

// Reset truncates the buffer for reuse, retaining its storage.
func (b *Buffer) Reset() { b.b = b.b[:0] }

// PutUvarint appends x in unsigned LEB128 form.
func (b *Buffer) PutUvarint(x uint64) {
	b.b = binary.AppendUvarint(b.b, x)
}

// PutVarint appends x in zig-zag signed LEB128 form.
func (b *Buffer) PutVarint(x int64) {
	b.b = binary.AppendVarint(b.b, x)
}

// PutByte appends a single raw byte.
func (b *Buffer) PutByte(x byte) { b.b = append(b.b, x) }

// PutBool appends a boolean as one byte (0 or 1).
func (b *Buffer) PutBool(x bool) {
	if x {
		b.b = append(b.b, 1)
	} else {
		b.b = append(b.b, 0)
	}
}

// PutUint32 appends x as 4 little-endian bytes (fixed width).
func (b *Buffer) PutUint32(x uint32) {
	b.b = binary.LittleEndian.AppendUint32(b.b, x)
}

// PutUint64 appends x as 8 little-endian bytes (fixed width).
func (b *Buffer) PutUint64(x uint64) {
	b.b = binary.LittleEndian.AppendUint64(b.b, x)
}

// PutFloat64 appends x as its IEEE-754 bit pattern, fixed width.
func (b *Buffer) PutFloat64(x float64) {
	b.PutUint64(math.Float64bits(x))
}

// PutString appends s with a uvarint length prefix.
func (b *Buffer) PutString(s string) {
	b.PutUvarint(uint64(len(s)))
	b.b = append(b.b, s...)
}

// PutBytes appends p with a uvarint length prefix.
func (b *Buffer) PutBytes(p []byte) {
	b.PutUvarint(uint64(len(p)))
	b.b = append(b.b, p...)
}

// PutStringSlice appends the slice as a count followed by each element.
func (b *Buffer) PutStringSlice(ss []string) {
	b.PutUvarint(uint64(len(ss)))
	for _, s := range ss {
		b.PutString(s)
	}
}

// PutUvarintSlice appends the slice as a count followed by each element in
// unsigned LEB128 form (sequence-number sets in acks and journal records).
func (b *Buffer) PutUvarintSlice(xs []uint64) {
	b.PutUvarint(uint64(len(xs)))
	for _, x := range xs {
		b.PutUvarint(x)
	}
}

// PutRaw appends p verbatim, with no length prefix.
func (b *Buffer) PutRaw(p []byte) { b.b = append(b.b, p...) }

// PutMessage appends m's encoding with a uvarint length prefix, the bytes
// PutBytes(Marshal(m)) appends, and returns the encoding's length: it ends
// the buffer. m is encoded in place and moved up past its prefix.
func (b *Buffer) PutMessage(m Marshaler) int {
	start := len(b.b)
	m.MarshalWire(b)
	n := len(b.b) - start
	b.b = binary.AppendUvarint(b.b, uint64(n))
	copy(b.b[len(b.b)-n:], b.b[start:start+n])
	binary.PutUvarint(b.b[start:], uint64(n))
	return n
}

// Raw is an encoding already made, marshaled as its bytes.
type Raw []byte

// MarshalWire implements Marshaler.
func (r Raw) MarshalWire(b *Buffer) { b.PutRaw(r) }

// Reader decodes a message produced by Buffer. Errors are sticky: after the
// first failure all subsequent reads return zero values, and Err reports
// the original error.
type Reader struct {
	b     []byte
	off   int
	err   error
	owned bool // Bytes aliases b instead of copying (OwnedReader)
}

// NewReader returns a Reader over p. The Reader does not copy p, but
// everything it returns is a copy: p may be a pooled, log or segment buffer
// that is written again once decoding is done.
func NewReader(p []byte) *Reader { return &Reader{b: p} }

// OwnedReader returns a Reader, by value, over bytes the caller owns and
// that nobody writes again: a frame payload that reached its receiver (see
// ReadFrame). Its Bytes results alias p, each capped at its own length so an
// append to one cannot write into the bytes behind it. Decoding through
// it and a concrete UnmarshalWire keeps both the reader and the message on
// the caller's stack.
func OwnedReader(p []byte) Reader { return Reader{b: p, owned: true} }

// Err returns the first decoding error encountered, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unconsumed bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Done reports whether the reader consumed its whole input without error.
func (r *Reader) Done() bool { return r.err == nil && r.off == len(r.b) }

// Finish returns the first decoding error, or an error if input remains: the
// end-of-message check Unmarshal makes.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes after message", r.Remaining())
	}
	return nil
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint reads an unsigned LEB128 value.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.b[r.off:])
	switch {
	case n > 0:
		r.off += n
		return x
	case n == 0:
		r.fail(ErrTruncated)
	default:
		r.fail(ErrOverflow)
	}
	return 0
}

// Varint reads a zig-zag signed LEB128 value.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Varint(r.b[r.off:])
	switch {
	case n > 0:
		r.off += n
		return x
	case n == 0:
		r.fail(ErrTruncated)
	default:
		r.fail(ErrOverflow)
	}
	return 0
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail(ErrTruncated)
		return 0
	}
	x := r.b[r.off]
	r.off++
	return x
}

// Bool reads a boolean encoded as one byte.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Uint32 reads 4 fixed-width little-endian bytes.
func (r *Reader) Uint32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.b) {
		r.fail(ErrTruncated)
		return 0
	}
	x := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return x
}

// Uint64 reads 8 fixed-width little-endian bytes.
func (r *Reader) Uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail(ErrTruncated)
		return 0
	}
	x := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return x
}

// Float64 reads an IEEE-754 double.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// field reads a length prefix and returns that many bytes of the input in
// place, capped at their own length; nil after an error.
func (r *Reader) field() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > MaxStringLen {
		r.fail(ErrTooLarge)
		return nil
	}
	if uint64(len(r.b)-r.off) < n {
		r.fail(ErrTruncated)
		return nil
	}
	end := r.off + int(n)
	p := r.b[r.off:end:end]
	r.off = end
	return p
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.field()) }

// Bytes reads a length-prefixed byte slice. From an OwnedReader the result
// aliases the input with cap == len; otherwise it is a copy.
func (r *Reader) Bytes() []byte {
	p := r.field()
	if r.owned || p == nil {
		return p
	}
	return append(make([]byte, 0, len(p)), p...)
}

// View reads a length-prefixed field and returns it in place from any
// Reader, even one from NewReader: the bytes alias the input, for a caller
// that checks or skips a field without keeping it. Nil after an error.
func (r *Reader) View() []byte { return r.field() }

// StringSlice reads a count-prefixed slice of strings.
func (r *Reader) StringSlice() []string {
	n := r.Len()
	if r.err != nil {
		return nil
	}
	ss := make([]string, 0, min(n, 1024))
	for range n {
		ss = append(ss, r.String())
		if r.err != nil {
			return nil
		}
	}
	return ss
}

// UvarintSlice reads a count-prefixed slice of uvarints.
func (r *Reader) UvarintSlice() []uint64 { return r.AppendUvarintSlice(nil) }

// AppendUvarintSlice reads a count-prefixed slice of uvarints, appending them
// to dst; nil after an error. With room in dst (a stack array, say) a short
// one is read without allocating.
func (r *Reader) AppendUvarintSlice(dst []uint64) []uint64 {
	n := r.Len()
	if r.err != nil {
		return nil
	}
	dst = slices.Grow(dst, min(n, 1024))
	for range n {
		dst = append(dst, r.Uvarint())
		if r.err != nil {
			return nil
		}
	}
	return dst
}

// Len reads a count-prefixed length for a repeated field, validating it
// against MaxSliceLen. It returns 0 after an error.
func (r *Reader) Len() int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > MaxSliceLen {
		r.fail(ErrTooLarge)
		return 0
	}
	return int(n)
}

// Marshaler is implemented by message types that encode themselves into a
// Buffer.
type Marshaler interface {
	MarshalWire(b *Buffer)
}

// Unmarshaler is implemented by message types that decode themselves from a
// Reader.
type Unmarshaler interface {
	UnmarshalWire(r *Reader) error
}

// Marshal encodes m into a fresh byte slice. The message is built in pooled
// scratch and copied out once at its final size, so a call costs one
// allocation however many fields m appends.
func Marshal(m Marshaler) []byte {
	b := GetBuffer()
	m.MarshalWire(b)
	return Detach(b)
}

// Unmarshal decodes p into m, requiring that the whole input is consumed.
func Unmarshal(p []byte, m Unmarshaler) error {
	r := NewReader(p)
	if err := m.UnmarshalWire(r); err != nil {
		return err
	}
	return r.Finish()
}
