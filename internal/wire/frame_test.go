package wire

import (
	"bufio"
	"bytes"
	"io"
	"runtime"
	"testing"
	"testing/quick"
)

func TestFrameRoundTripBytes(t *testing.T) {
	frames := []Frame{
		{Type: FrameHello, Payload: nil},
		{Type: FrameRequest, Payload: []byte("hello")},
		{Type: FrameReply, Payload: bytes.Repeat([]byte{0xAA}, 1000)},
	}
	var buf []byte
	for _, f := range frames {
		buf = AppendFrame(buf, f)
	}
	for _, want := range frames {
		got, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("DecodeFrame: %v", err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("frame mismatch: got type %d len %d", got.Type, len(got.Payload))
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Errorf("%d leftover bytes", len(buf))
	}
}

func TestFrameRoundTripStream(t *testing.T) {
	var stream bytes.Buffer
	frames := []Frame{
		{Type: FramePing, Payload: []byte{}},
		{Type: FrameBatch, Payload: []byte("batch contents")},
	}
	for _, f := range frames {
		stream.Write(EncodeFrame(f))
	}
	r := bufio.NewReader(&stream)
	for _, want := range frames {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("frame mismatch: got %+v, want %+v", got, want)
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Errorf("at end of stream: got %v, want io.EOF", err)
	}
}

func TestFrameChecksumCatchesCorruption(t *testing.T) {
	enc := EncodeFrame(Frame{Type: FrameRequest, Payload: []byte("payload data")})
	for i := 3; i < len(enc); i++ { // skip magic/version (distinct errors)
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x01
		_, _, err := DecodeFrame(mut)
		if err == nil {
			t.Errorf("corruption at byte %d not detected", i)
		}
	}
}

func TestFrameBadMagic(t *testing.T) {
	enc := EncodeFrame(Frame{Type: FramePing})
	enc[0] = 'X'
	if _, _, err := DecodeFrame(enc); err != ErrBadMagic {
		t.Errorf("got %v, want ErrBadMagic", err)
	}
}

func TestFrameBadVersion(t *testing.T) {
	enc := EncodeFrame(Frame{Type: FramePing})
	enc[2] = 99
	_, _, err := DecodeFrame(enc)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("version")) {
		t.Errorf("got %v, want version error", err)
	}
}

func TestFrameTornStream(t *testing.T) {
	enc := EncodeFrame(Frame{Type: FrameReply, Payload: []byte("0123456789")})
	for cut := 1; cut < len(enc); cut++ {
		r := bufio.NewReader(bytes.NewReader(enc[:cut]))
		_, err := ReadFrame(r)
		if err == nil {
			t.Fatalf("torn frame at %d decoded successfully", cut)
		}
		if err == io.EOF {
			t.Errorf("torn frame at %d returned clean EOF", cut)
		}
	}
}

// TestReadFrameHeaderAlone: a length field is a claim, not a size to
// allocate. Eight bytes claiming the 32 MiB maximum cost one 64 KiB read
// buffer before the stream runs out, not 32 MiB.
func TestReadFrameHeaderAlone(t *testing.T) {
	var hdr Buffer
	hdr.PutRaw([]byte{frameMagic0, frameMagic1, frameVersion, FrameReply})
	hdr.PutUvarint(MaxFramePayload)
	input := hdr.Bytes()
	r := bufio.NewReader(bytes.NewReader(input))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(r)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("header alone: got %v, want io.ErrUnexpectedEOF", err)
	}
	if spent := after.TotalAlloc - before.TotalAlloc; spent > frameReadChunk+uint64(len(input)) {
		t.Fatalf("%d-byte header claiming %d bytes made ReadFrame allocate %d bytes", len(input), MaxFramePayload, spent)
	}
}

// TestReadFrameGrows reads payloads on both sides of the first read
// allocation: whatever it took to get there, the payload is whole, checked,
// and capped at its length.
func TestReadFrameGrows(t *testing.T) {
	for _, n := range []int{0, 1, frameReadChunk - 5, frameReadChunk - 4, frameReadChunk - 3, 3*frameReadChunk + 7, 1 << 20} {
		payload := bytes.Repeat([]byte{byte(n), 0x5A, 0xC3}, n/3+1)[:n]
		enc := EncodeFrame(Frame{Type: FrameReply, Payload: payload})
		got, err := ReadFrame(bufio.NewReader(bytes.NewReader(enc)))
		if err != nil || !bytes.Equal(got.Payload, payload) || cap(got.Payload) != n {
			t.Fatalf("%d-byte payload: err %v, equal %v, cap %d", n, err, bytes.Equal(got.Payload, payload), cap(got.Payload))
		}
		if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(enc[:len(enc)-1]))); err != io.ErrUnexpectedEOF {
			t.Fatalf("%d-byte payload, last byte missing: got %v", n, err)
		}
	}
}

// TestReadFrameAllocs: a small frame's payload and CRC share one
// allocation, and nothing else on the read path allocates.
func TestReadFrameAllocs(t *testing.T) {
	enc := EncodeFrame(Frame{Type: FrameRequest, Payload: bytes.Repeat([]byte{7}, 80)})
	src := bytes.NewReader(enc)
	r := bufio.NewReader(src)
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(enc)
		r.Reset(src)
		if _, err := ReadFrame(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("ReadFrame of an 80-byte frame: %.1f allocations, want 1", allocs)
	}
}

// TestAppendFrameAllocs: encoding into a buffer with room allocates nothing
// (the type byte's CRC comes from a table).
func TestAppendFrameAllocs(t *testing.T) {
	f := Frame{Type: FrameReply, Payload: bytes.Repeat([]byte{9}, 80)}
	dst := make([]byte, 0, 128)
	if allocs := testing.AllocsPerRun(100, func() { dst = AppendFrame(dst[:0], f) }); allocs != 0 {
		t.Fatalf("AppendFrame into room: %.1f allocations, want 0", allocs)
	}
}

func TestEncodedFrameSize(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 1 << 16} {
		f := Frame{Type: FrameRequest, Payload: make([]byte, n)}
		if got, want := EncodedFrameSize(n), len(EncodeFrame(f)); got != want {
			t.Errorf("EncodedFrameSize(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFrameTypeName(t *testing.T) {
	if FrameTypeName(FrameRequest) != "request" {
		t.Error("FrameTypeName(FrameRequest)")
	}
	if FrameTypeName(200) != "unknown(200)" {
		t.Errorf("FrameTypeName(200) = %q", FrameTypeName(200))
	}
}

// Property: every frame round-trips through both the byte and stream paths.
func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(typ byte, payload []byte) bool {
		in := Frame{Type: typ, Payload: payload}
		enc := EncodeFrame(in)
		got, n, err := DecodeFrame(enc)
		if err != nil || n != len(enc) {
			return false
		}
		if got.Type != typ || !bytes.Equal(got.Payload, payload) {
			return false
		}
		sgot, err := ReadFrame(bufio.NewReader(bytes.NewReader(enc)))
		return err == nil && sgot.Type == typ && bytes.Equal(sgot.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
