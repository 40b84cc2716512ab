package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// A Frame is the unit of exchange between Rover transports. Each frame
// carries a type tag (interpreted by the QRPC layer) and an opaque payload.
//
// On byte-stream transports frames are delimited as:
//
//	magic[2] version[1] type[1] length[uvarint] payload[length] crc32[4]
//
// The CRC covers type and payload and catches corruption on unreliable
// media (the paper's dial-up links); corrupt frames are dropped, and QRPC's
// redelivery machinery recovers them.
type Frame struct {
	Type    byte
	Payload []byte
}

// Frame type tags. The QRPC protocol messages are defined in
// internal/qrpc; the tags live here so transports can log them.
const (
	FrameHello      byte = 1 // client -> server session open
	FrameWelcome    byte = 2 // server -> client session accept
	FrameRequest    byte = 3 // client -> server QRPC request
	FrameReply      byte = 4 // server -> client QRPC reply
	FrameAck        byte = 5 // client -> server reply acknowledgement
	FrameCallback   byte = 6 // server -> client object-change notification
	FramePing       byte = 7 // liveness / link-quality probe
	FramePong       byte = 8
	FrameBatch      byte = 9  // multiple coalesced frames in one transport frame (see batch.go)
	FrameAuthReject byte = 10 // server -> client authentication failure
	FrameBatchZ     byte = 11 // deflate-compressed FrameBatch (see batchz.go); negotiated
	FrameBusy       byte = 12 // server -> client: admission refused (session high-water mark); retry elsewhere/later
)

// frame header constants.
const (
	frameMagic0  = 'R'
	frameMagic1  = 'o'
	frameVersion = 1

	// MaxFramePayload bounds a single frame. Larger application payloads
	// must be split by the caller.
	MaxFramePayload = 32 << 20
)

// Errors returned by frame decoding.
var (
	ErrBadMagic    = errors.New("wire: bad frame magic")
	ErrBadVersion  = errors.New("wire: unsupported frame version")
	ErrBadChecksum = errors.New("wire: frame checksum mismatch")
	ErrFrameSize   = errors.New("wire: frame exceeds size limit")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends the encoded form of f to dst and returns the result.
func AppendFrame(dst []byte, f Frame) []byte {
	dst = append(dst, frameMagic0, frameMagic1, frameVersion, f.Type)
	dst = binary.AppendUvarint(dst, uint64(len(f.Payload)))
	dst = append(dst, f.Payload...)
	return binary.LittleEndian.AppendUint32(dst, frameCRC(f.Type, f.Payload))
}

// typeCRC[t] is the CRC of the one-byte type tag t, where every frame's
// checksum starts: looked up, so no frame builds a slice to checksum its tag.
var typeCRC = func() (t [256]uint32) {
	for i := range t {
		t[i] = crc32.Update(0, crcTable, []byte{byte(i)})
	}
	return t
}()

// frameCRC is the checksum a frame carries: over its type, then its payload.
func frameCRC(typ byte, payload []byte) uint32 {
	return crc32.Update(typeCRC[typ], crcTable, payload)
}

// EncodeFrame returns the encoded form of f.
func EncodeFrame(f Frame) []byte {
	return AppendFrame(make([]byte, 0, len(f.Payload)+16), f)
}

// EncodedFrameSize returns the on-the-wire size in bytes of a frame with a
// payload of n bytes. The network simulator uses this to charge link
// transmission time.
func EncodedFrameSize(n int) int {
	var lenBuf [binary.MaxVarintLen64]byte
	return 4 + binary.PutUvarint(lenBuf[:], uint64(n)) + n + 4
}

// frameReadChunk bounds ReadFrame's first allocation, unless more than that
// is already buffered. A frame's length field is only a claim: the buffer
// grows as the bytes arrive, so a header alone cannot make the reader
// allocate MaxFramePayload.
const frameReadChunk = 64 << 10

// ReadFrame reads one frame from r, blocking as needed. It returns io.EOF
// cleanly at end of stream and io.ErrUnexpectedEOF for a torn frame.
//
// The payload is the receiver's: it is never written again, so decoders may
// alias it (see OwnedReader). It shares one allocation with the CRC behind
// it — a frame of up to frameReadChunk bytes costs exactly one — and is
// capped at its own length.
func ReadFrame(r *bufio.Reader) (Frame, error) {
	p, err := r.Peek(4) // not io.ReadFull: a header array it read into would escape
	if err != nil {
		if len(p) == 0 {
			return Frame{}, err // io.EOF between frames is clean shutdown
		}
		return Frame{}, unexpectedEOF(err)
	}
	hdr := [4]byte(p)
	r.Discard(4) // cannot fail: Peek buffered them
	if hdr[0] != frameMagic0 || hdr[1] != frameMagic1 {
		return Frame{}, ErrBadMagic
	}
	if hdr[2] != frameVersion {
		return Frame{}, fmt.Errorf("%w: %d", ErrBadVersion, hdr[2])
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return Frame{}, unexpectedEOF(err)
	}
	if n > MaxFramePayload {
		return Frame{}, ErrFrameSize
	}
	total := int(n) + 4
	buf := make([]byte, min(total, max(frameReadChunk, r.Buffered())))
	for got := 0; ; {
		if _, err := io.ReadFull(r, buf[got:]); err != nil {
			return Frame{}, unexpectedEOF(err)
		}
		if got = len(buf); got == total {
			break
		}
		buf = append(buf, make([]byte, min(total-got, got))...) // doubles
	}
	if frameCRC(hdr[3], buf[:n]) != binary.LittleEndian.Uint32(buf[n:]) {
		return Frame{}, ErrBadChecksum
	}
	return Frame{Type: hdr[3], Payload: buf[:n:n]}, nil
}

// unexpectedEOF maps the end of the stream inside a frame to
// io.ErrUnexpectedEOF.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// DecodeFrame decodes a single frame from p, returning the frame and the
// number of bytes consumed. The payload is copied out of p and, like
// ReadFrame's, belongs to the receiver.
func DecodeFrame(p []byte) (Frame, int, error) {
	if len(p) < 4 {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	if p[0] != frameMagic0 || p[1] != frameMagic1 {
		return Frame{}, 0, ErrBadMagic
	}
	if p[2] != frameVersion {
		return Frame{}, 0, fmt.Errorf("%w: %d", ErrBadVersion, p[2])
	}
	typ := p[3]
	n, k := binary.Uvarint(p[4:])
	if k <= 0 {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	if n > MaxFramePayload {
		return Frame{}, 0, ErrFrameSize
	}
	off := 4 + k
	if len(p) < off+int(n)+4 {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	payload := make([]byte, n)
	copy(payload, p[off:])
	off += int(n)
	want := binary.LittleEndian.Uint32(p[off:])
	off += 4
	if frameCRC(typ, payload) != want {
		return Frame{}, 0, ErrBadChecksum
	}
	return Frame{Type: typ, Payload: payload}, off, nil
}

// FrameTypeName returns a human-readable name for a frame type tag.
func FrameTypeName(t byte) string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameWelcome:
		return "welcome"
	case FrameRequest:
		return "request"
	case FrameReply:
		return "reply"
	case FrameAck:
		return "ack"
	case FrameCallback:
		return "callback"
	case FramePing:
		return "ping"
	case FramePong:
		return "pong"
	case FrameBatch:
		return "batch"
	case FrameAuthReject:
		return "auth-reject"
	case FrameBatchZ:
		return "batch-z"
	case FrameBusy:
		return "busy"
	default:
		return fmt.Sprintf("unknown(%d)", t)
	}
}
