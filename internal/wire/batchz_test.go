package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

func compressibleFrames(n int) []Frame {
	frames := make([]Frame, n)
	for i := range frames {
		frames[i] = Frame{Type: FrameRequest, Payload: []byte(strings.Repeat("rover toolkit ", 40))}
	}
	return frames
}

func TestCoalesceCompressRoundTrip(t *testing.T) {
	frames := compressibleFrames(3)
	f := CoalesceFrames(frames, true)
	if f.Type != FrameBatchZ {
		t.Fatalf("coalesced to %v, want FrameBatchZ", f.Type)
	}
	plain := BatchFrames(frames)
	if EncodedFrameSize(len(f.Payload)) >= EncodedFrameSize(len(plain.Payload)) {
		t.Fatal("compressed frame not smaller than plain batch")
	}
	if n, err := ZBatchCount(f.Payload); err != nil || n != 3 {
		t.Fatalf("ZBatchCount = %d, %v, want 3", n, err)
	}
	zf, err := InflateBatchFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := UnbatchFrames(zf.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 3 {
		t.Fatalf("inflated to %d frames, want 3", len(subs))
	}
	for i, sf := range subs {
		if sf.Type != frames[i].Type || !bytes.Equal(sf.Payload, frames[i].Payload) {
			t.Fatalf("frame %d mangled by round trip", i)
		}
	}
}

func TestCoalesceCompressSingleFrame(t *testing.T) {
	// A batch-of-one is legal: it is how a single large reply compresses.
	frames := compressibleFrames(1)
	f := CoalesceFrames(frames, true)
	if f.Type != FrameBatchZ {
		t.Fatalf("coalesced to %v, want FrameBatchZ", f.Type)
	}
	zf, err := InflateBatchFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := UnbatchFrames(zf.Payload)
	if err != nil || len(subs) != 1 || !bytes.Equal(subs[0].Payload, frames[0].Payload) {
		t.Fatalf("round trip: %v, %d frames", err, len(subs))
	}
}

func TestCoalesceSkipsWhenNotSmaller(t *testing.T) {
	// Incompressible content: deflate cannot win, so the plain forms go out.
	payload := make([]byte, 512)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range payload {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		payload[i] = byte(x)
	}
	one := CoalesceFrames([]Frame{{Type: FrameRequest, Payload: payload}}, true)
	if one.Type != FrameRequest {
		t.Fatalf("single incompressible frame coalesced to %v, want the lone frame", one.Type)
	}
	// Two identical halves DO compress (deflate finds the repeat); what
	// matters is the decision is made against the encoded wire size, so a
	// Z frame on the wire is always strictly smaller than the plain batch.
	two := CoalesceFrames([]Frame{
		{Type: FrameRequest, Payload: payload},
		{Type: FrameRequest, Payload: append([]byte(nil), payload...)},
	}, true)
	if two.Type == FrameBatchZ {
		raw := AppendBatchPayload(nil, []Frame{
			{Type: FrameRequest, Payload: payload},
			{Type: FrameRequest, Payload: payload},
		})
		if EncodedFrameSize(len(two.Payload)) >= EncodedFrameSize(len(raw)) {
			t.Fatal("Z frame chosen but not smaller on the wire")
		}
	}
}

func TestCoalesceWithoutCapability(t *testing.T) {
	frames := compressibleFrames(2)
	f := CoalesceFrames(frames, false)
	if f.Type != FrameBatch {
		t.Fatalf("coalesced to %v, want plain FrameBatch when the peer lacks the capability", f.Type)
	}
	lone := CoalesceFrames(frames[:1], false)
	if lone.Type != FrameRequest {
		t.Fatalf("single frame coalesced to %v, want the frame itself", lone.Type)
	}
}

func TestInflateBatchFrameRejectsCorruption(t *testing.T) {
	f := CoalesceFrames(compressibleFrames(2), true)
	if f.Type != FrameBatchZ {
		t.Fatal("setup: expected a Z frame")
	}
	// Mangle the deflated tail (past the two uvarint headers).
	bad := Frame{Type: FrameBatchZ, Payload: append([]byte(nil), f.Payload...)}
	for i := len(bad.Payload) - 8; i < len(bad.Payload); i++ {
		bad.Payload[i] ^= 0xA5
	}
	if _, err := InflateBatchFrame(bad); err == nil {
		t.Fatal("corrupt deflate stream inflated without error")
	}
	// Bytes after the final deflate block: rawLen and the count still match,
	// so only the decoder noticing its input was not consumed catches it.
	junk := Frame{Type: FrameBatchZ, Payload: append(append([]byte(nil), f.Payload...), "JUNKJUNK"...)}
	if _, err := InflateBatchFrame(junk); !errors.Is(err, ErrBatchCompressed) {
		t.Fatalf("Z batch with a trailing tail: err=%v, want ErrBatchCompressed", err)
	}
	// Oversized rawLen claim must be rejected before inflating.
	var b Buffer
	b.PutUvarint(1)
	b.PutUvarint(MaxFramePayload + 1)
	b.PutRaw([]byte{0x00})
	if _, err := InflateBatchFrame(Frame{Type: FrameBatchZ, Payload: b.Bytes()}); err == nil {
		t.Fatal("rawLen over MaxFramePayload accepted")
	}
	// Count mismatch between header and inflated batch.
	var c Buffer
	c.PutUvarint(7) // batch actually holds 2
	rest := f.Payload
	if _, n := uvarintSplit(rest); n > 0 {
		c.PutRaw(rest[n:])
	}
	if _, err := InflateBatchFrame(Frame{Type: FrameBatchZ, Payload: c.Bytes()}); err == nil {
		t.Fatal("sub-frame count mismatch accepted")
	}
}

// uvarintSplit returns the value and length of the leading uvarint.
func uvarintSplit(p []byte) (uint64, int) {
	r := NewReader(p)
	v := r.Uvarint()
	if r.Err() != nil {
		return 0, 0
	}
	return v, len(p) - r.Remaining()
}

func TestStreamReaderRecoversFromCorruptZBatch(t *testing.T) {
	good1 := Frame{Type: FrameRequest, Payload: []byte("before")}
	zf := CoalesceFrames(compressibleFrames(2), true)
	if zf.Type != FrameBatchZ {
		t.Fatal("setup: expected a Z frame")
	}
	// Corrupt the deflated bytes BEFORE framing: the frame CRC is computed
	// over the corrupt payload, so only the inflate step can catch it.
	for i := len(zf.Payload) - 8; i < len(zf.Payload); i++ {
		zf.Payload[i] ^= 0x5A
	}
	good2 := Frame{Type: FrameReply, Payload: []byte("after")}

	var stream []byte
	stream = AppendFrame(stream, good1)
	stream = AppendFrame(stream, zf)
	stream = AppendFrame(stream, good2)

	s := NewStreamReader(bufio.NewReader(bytes.NewReader(stream)))
	f1, err := s.Next()
	if err != nil || string(f1.Payload) != "before" {
		t.Fatalf("frame 1: %v, %q", err, f1.Payload)
	}
	f2, err := s.Next()
	if err != nil || string(f2.Payload) != "after" {
		t.Fatalf("frame 2 after corrupt Z batch: %v, %q", err, f2.Payload)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("want clean EOF, got %v", err)
	}
	if s.SkippedFrames != 1 {
		t.Errorf("SkippedFrames = %d, want 1", s.SkippedFrames)
	}
}

func TestStreamReaderInflatesGoodZBatch(t *testing.T) {
	zf := CoalesceFrames(compressibleFrames(2), true)
	var stream []byte
	stream = AppendFrame(stream, zf)
	s := NewStreamReader(bufio.NewReader(bytes.NewReader(stream)))
	f, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameBatch {
		t.Fatalf("stream yielded %v, want the inflated FrameBatch", f.Type)
	}
	if subs, err := UnbatchFrames(f.Payload); err != nil || len(subs) != 2 {
		t.Fatalf("unbatch: %v, %d frames", err, len(subs))
	}
}

func TestLogicalFramesCountsZBatch(t *testing.T) {
	zf := CoalesceFrames(compressibleFrames(5), true)
	if zf.Type != FrameBatchZ {
		t.Fatal("setup: expected a Z frame")
	}
	if n := LogicalFrames(zf); n != 5 {
		t.Fatalf("LogicalFrames = %d, want 5 without inflating", n)
	}
}

// FuzzInflateBatchFrame: whatever arrives in a FrameBatchZ, the receive path
// never panics, never yields more than the header promised, never sizes an
// allocation from the header alone, and agrees with the count observers read
// without inflating.
func FuzzInflateBatchFrame(f *testing.F) {
	for _, n := range []int{1, 2, 5, 40} {
		z := CoalesceFrames(compressibleFrames(n), true).Payload
		f.Add(z)
		f.Add(z[:len(z)/2])
		f.Add(append(append([]byte(nil), z...), "JUNKJUNK"...))
		flipped := append([]byte(nil), z...)
		for i := len(flipped) - 8; i < len(flipped); i++ {
			flipped[i] ^= 0xA5
		}
		f.Add(flipped)
	}
	var huge Buffer // 20 bytes claiming the 32 MiB maximum
	huge.PutUvarint(1)
	huge.PutUvarint(MaxFramePayload)
	huge.PutRaw(make([]byte, 14))
	f.Add(huge.Bytes())

	f.Fuzz(func(t *testing.T, p []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := InflateBatchFrame(Frame{Type: FrameBatchZ, Payload: p})
		runtime.ReadMemStats(&after)
		// A rebuilt inflate context is ~45 KB; the result may be a small
		// multiple of the compressed bytes, doubled while it grows.
		if spent := after.TotalAlloc - before.TotalAlloc; spent > 1<<20+64*uint64(len(p)) {
			t.Fatalf("%d-byte Z payload made InflateBatchFrame allocate %d bytes", len(p), spent)
		}
		if err != nil {
			return
		}
		count, rawLen, _, herr := zBatchHeader(p)
		if herr != nil || uint64(len(got.Payload)) != rawLen {
			t.Fatalf("accepted: header err=%v, %d bytes inflated, %d promised", herr, len(got.Payload), rawLen)
		}
		n, cerr := ZBatchCount(p)
		if inner, err := BatchCount(got.Payload); got.Type != FrameBatch || cerr != nil || err != nil || n != inner || uint64(n) != count {
			t.Fatalf("accepted: type %v, ZBatchCount %d (%v), inflated batch counts %d (%v)", got.Type, n, cerr, inner, err)
		}
		// The sub-frames themselves may still be malformed; a batch that does
		// decode holds exactly the advertised number.
		if subs, err := UnbatchFrames(got.Payload); err == nil && len(subs) != n {
			t.Fatalf("accepted: %d sub-frames, header says %d", len(subs), n)
		}
	})
}

func BenchmarkCoalesceZ(b *testing.B) {
	frames := compressibleFrames(4)
	b.ReportAllocs()
	for b.Loop() {
		if f := CoalesceFrames(frames, true); f.Type != FrameBatchZ {
			b.Fatal("not compressed")
		}
	}
}
