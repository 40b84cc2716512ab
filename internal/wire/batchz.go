package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rover/internal/compress"
)

// FrameBatchZ: a deflate-compressed FrameBatch for the paper's starved
// links (CSLIP, WaveLAN), where bytes dominate and CPU is cheap.
//
// Z-batch payload layout:
//
//	count[uvarint] rawLen[uvarint] deflated[...]
//
// where inflating the deflated tail must yield exactly rawLen bytes of
// plain batch payload (count[uvarint]{type,len,payload}*), and the
// leading count duplicates the batch's sub-frame count. The duplication
// lets observers — logical-frame accounting in transports, the network
// simulator — count application frames without paying for an inflate.
//
// Whether a peer understands FrameBatchZ is negotiated out of band (the
// QRPC Hello/Welcome capability bits); an engine never emits it blind.
// Compression is skip-if-not-smaller: when deflate does not beat the
// plain encoding (including frame framing overhead), the plain form is
// sent, so a Z frame on the wire is always a net win.

// ErrBatchCompressed reports a Z-batch whose deflated tail failed to
// inflate back to the promised rawLen bytes — corruption that frame CRCs
// cannot catch (the CRC covers the compressed bytes, which may have been
// mangled before framing). Transports treat it like a bad checksum: drop
// the frame and let QRPC redelivery recover.
var ErrBatchCompressed = errors.New("wire: corrupt compressed batch")

// CoalesceFrames packs frames into the smallest single frame an engine
// can send: the lone frame itself when there is exactly one and
// compression is off, a plain FrameBatch otherwise, or a FrameBatchZ
// when compressOK and deflate actually shrinks the encoding. A Z batch
// of one is legal — it is how a single large import reply compresses.
// frames must be non-empty and must not contain batch frames.
func CoalesceFrames(frames []Frame, compressOK bool) Frame {
	if !compressOK {
		if len(frames) == 1 {
			return frames[0]
		}
		return BatchFrames(frames)
	}
	raw := BatchFrames(frames).Payload
	plainWire := EncodedFrameSize(len(raw))
	if len(frames) == 1 {
		plainWire = EncodedFrameSize(len(frames[0].Payload))
	}
	// The deflated bytes are appended straight behind the header, so a Z
	// payload is allocated once, at about its own size, and only when
	// deflate shrinks the batch.
	var z Buffer
	z.PutUvarint(uint64(len(frames)))
	z.PutUvarint(uint64(len(raw)))
	if p, ok := compress.AppendDeflate(z.b, raw); ok && EncodedFrameSize(len(p)) < plainWire {
		return Frame{Type: FrameBatchZ, Payload: p}
	}
	if len(frames) == 1 {
		return frames[0]
	}
	return Frame{Type: FrameBatch, Payload: raw}
}

// zBatchHeader decodes the count and rawLen prefix of a Z-batch payload,
// returning the offset where the deflated tail begins.
func zBatchHeader(p []byte) (count, rawLen uint64, off int, err error) {
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, 0, 0, ErrBatchCompressed
	}
	off = n
	rawLen, n = binary.Uvarint(p[off:])
	if n <= 0 {
		return 0, 0, 0, ErrBatchCompressed
	}
	off += n
	if count > MaxBatchFrames || rawLen > MaxFramePayload {
		return 0, 0, 0, ErrTooLarge
	}
	return count, rawLen, off, nil
}

// InflateBatchFrame decompresses a FrameBatchZ frame into the equivalent
// plain FrameBatch frame. Any other frame type passes through unchanged,
// so receive paths can call it unconditionally before dispatching.
func InflateBatchFrame(f Frame) (Frame, error) {
	if f.Type != FrameBatchZ {
		return f, nil
	}
	count, rawLen, off, err := zBatchHeader(f.Payload)
	if err != nil {
		return Frame{}, err
	}
	raw, err := compress.Inflate(f.Payload[off:], int(rawLen))
	if err != nil {
		return Frame{}, fmt.Errorf("%w: %v", ErrBatchCompressed, err)
	}
	if uint64(len(raw)) != rawLen {
		return Frame{}, fmt.Errorf("%w: inflated %d bytes, header promised %d", ErrBatchCompressed, len(raw), rawLen)
	}
	if n, err := BatchCount(raw); err != nil || uint64(n) != count {
		return Frame{}, fmt.Errorf("%w: sub-frame count mismatch", ErrBatchCompressed)
	}
	return Frame{Type: FrameBatch, Payload: raw}, nil
}

// ZBatchCount returns the sub-frame count of a Z-batch payload without
// inflating it.
func ZBatchCount(p []byte) (int, error) {
	count, _, _, err := zBatchHeader(p)
	if err != nil {
		return 0, err
	}
	return int(count), nil
}
