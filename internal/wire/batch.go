package wire

import (
	"errors"
	"slices"
	"sync"
)

// FrameBatch coalescing.
//
// A batch frame packs several application frames into one transport frame
// so that a pump cycle's worth of requests (plus piggybacked acks), or a
// chunk of server replies, crosses the transport as a single write / a
// single simulated transmission. The outer frame's CRC covers the whole
// batch, so sub-frames carry no per-frame checksum of their own.
//
// Batch payload layout:
//
//	count[uvarint] { type[1] length[uvarint] payload[length] }*count
//
// Batches never nest: a FrameBatch sub-frame is a decode error. This keeps
// unbatching non-recursive and bounds amplification from corrupt input.

// Errors returned by batch decoding.
var (
	ErrBatchNested    = errors.New("wire: nested frame batch")
	ErrBatchTruncated = errors.New("wire: truncated frame batch")
)

// MaxBatchFrames bounds the number of sub-frames a decoder accepts in one
// batch (an anti-amplification limit for untrusted input).
const MaxBatchFrames = 1 << 16

// AppendBatchPayload appends the batch encoding of frames to dst and
// returns the result. It is the caller's job to wrap the result in a
// Frame{Type: FrameBatch}. Sub-frames of type FrameBatch are not allowed.
func AppendBatchPayload(dst []byte, frames []Frame) []byte {
	var b Buffer
	b.b = dst
	b.PutUvarint(uint64(len(frames)))
	for _, f := range frames {
		b.PutByte(f.Type)
		b.PutBytes(f.Payload)
	}
	return b.b
}

// BatchFrames packs frames into a single FrameBatch frame. The payload is
// freshly allocated (transports may retain it asynchronously). A batch of
// one is wasteful but legal; callers normally send a lone frame directly.
func BatchFrames(frames []Frame) Frame {
	size := 1
	for _, f := range frames {
		size += 6 + len(f.Payload)
	}
	return Frame{Type: FrameBatch, Payload: AppendBatchPayload(make([]byte, 0, size), frames)}
}

// UnbatchFrames decodes a batch payload into its sub-frames. The payload is
// the receiver's (see ReadFrame), so sub-frame payloads alias it, each capped
// at its own length. Nested batches are rejected.
func UnbatchFrames(p []byte) ([]Frame, error) { return AppendUnbatched(nil, p) }

// AppendUnbatched is UnbatchFrames appending the sub-frames to dst, so a
// receiver decodes into a stack array instead of a fresh slice per batch.
func AppendUnbatched(dst []Frame, p []byte) ([]Frame, error) {
	r := OwnedReader(p)
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > MaxBatchFrames {
		return nil, ErrTooLarge
	}
	dst = slices.Grow(dst, int(min(n, 256)))
	for range n {
		typ := r.Byte()
		payload := r.Bytes()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if typ == FrameBatch {
			return nil, ErrBatchNested
		}
		dst = append(dst, Frame{Type: typ, Payload: payload})
	}
	if !r.Done() {
		return nil, ErrBatchTruncated
	}
	return dst, nil
}

// BatchCount returns the number of sub-frames in a batch payload without
// decoding them. Transports use it for logical per-frame accounting.
func BatchCount(p []byte) (int, error) {
	r := NewReader(p)
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return 0, err
	}
	if n > MaxBatchFrames {
		return 0, ErrTooLarge
	}
	return int(n), nil
}

// LogicalFrames returns how many application frames f represents: the
// sub-frame count for a well-formed batch (plain or compressed), 1
// otherwise. Compressed batches are not inflated — their header
// duplicates the count for exactly this purpose.
func LogicalFrames(f Frame) int {
	var n int
	var err error
	switch f.Type {
	case FrameBatch:
		n, err = BatchCount(f.Payload)
	case FrameBatchZ:
		n, err = ZBatchCount(f.Payload)
	default:
		return 1
	}
	if err != nil {
		return 1
	}
	return n
}

// bufferPool recycles Buffers for encode-scratch use on hot paths. Pooled
// buffers keep their storage, so steady-state encoding allocates nothing.
var bufferPool = sync.Pool{New: func() any { return new(Buffer) }}

// maxPooledBuffer caps the capacity of buffers returned to the pool, so one
// giant import doesn't pin its storage forever.
const maxPooledBuffer = 1 << 20

// GetBuffer returns an empty Buffer from the pool.
func GetBuffer() *Buffer {
	b := bufferPool.Get().(*Buffer)
	b.Reset()
	return b
}

// PutBuffer returns b to the pool. The caller must not touch b (or any
// slice obtained from b.Bytes()) afterwards; copy encodings that outlive
// the call before releasing.
func PutBuffer(b *Buffer) {
	if b == nil || cap(b.b) > maxPooledBuffer {
		return
	}
	bufferPool.Put(b)
}

// Detach returns b's contents copied out at their exact size and puts b
// back in the pool: encoding into GetBuffer scratch and detaching costs one
// allocation however many fields were appended.
func Detach(b *Buffer) []byte {
	out := append([]byte(nil), b.b...)
	PutBuffer(b)
	return out
}
