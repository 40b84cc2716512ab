package wire

import (
	"bytes"
	"errors"
	"testing"
)

func TestBatchRoundTrip(t *testing.T) {
	in := []Frame{
		{Type: FrameAck, Payload: []byte("acks")},
		{Type: FrameRequest, Payload: []byte("req-1")},
		{Type: FrameRequest, Payload: nil},
		{Type: FrameReply, Payload: bytes.Repeat([]byte{0xAB}, 4096)},
	}
	bf := BatchFrames(in)
	if bf.Type != FrameBatch {
		t.Fatalf("batch frame type = %d, want %d", bf.Type, FrameBatch)
	}
	if n, err := BatchCount(bf.Payload); err != nil || n != len(in) {
		t.Fatalf("BatchCount = %d, %v; want %d, nil", n, err, len(in))
	}
	if n := LogicalFrames(bf); n != len(in) {
		t.Fatalf("LogicalFrames = %d, want %d", n, len(in))
	}
	out, err := UnbatchFrames(bf.Payload)
	if err != nil {
		t.Fatalf("UnbatchFrames: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("unbatched %d frames, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Type != in[i].Type || !bytes.Equal(out[i].Payload, in[i].Payload) {
			t.Fatalf("frame %d mismatch: got %v want %v", i, out[i], in[i])
		}
	}
	// Sub-frame payloads alias the batch payload the receiver owns, each
	// capped at its own length: appending to one cannot reach the next.
	for i, f := range out {
		if cap(f.Payload) != len(f.Payload) {
			t.Fatalf("sub-frame %d: cap %d != len %d", i, cap(f.Payload), len(f.Payload))
		}
	}
	if &out[0].Payload[0] != &bf.Payload[3] { // count, type, length, then payload
		t.Fatal("sub-frame 0 was copied out of the batch")
	}
	_ = append(out[0].Payload, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE)
	if !bytes.Equal(out[1].Payload, in[1].Payload) {
		t.Fatalf("appending to sub-frame 0 changed sub-frame 1: %q", out[1].Payload)
	}
}

func TestAppendUnbatchedAllocs(t *testing.T) {
	bf := BatchFrames([]Frame{{Type: FrameAck, Payload: []byte{1, 7}}, {Type: FrameRequest, Payload: []byte("r")}})
	var arr [4]Frame
	out, err := AppendUnbatched(arr[:0], bf.Payload)
	if err != nil || len(out) != 2 || &out[0] != &arr[0] {
		t.Fatalf("AppendUnbatched into a 4-frame array: %d frames, err %v, reused %v", len(out), err, len(out) > 0 && &out[0] == &arr[0])
	}
	if allocs := testing.AllocsPerRun(100, func() { out, _ = AppendUnbatched(arr[:0], bf.Payload) }); allocs != 0 {
		t.Fatalf("AppendUnbatched into room allocated %.0f times per batch", allocs)
	}
}

func TestBatchEmpty(t *testing.T) {
	bf := BatchFrames(nil)
	out, err := UnbatchFrames(bf.Payload)
	if err != nil {
		t.Fatalf("UnbatchFrames(empty): %v", err)
	}
	if len(out) != 0 {
		t.Fatalf("unbatched %d frames from empty batch", len(out))
	}
}

func TestBatchRejectsNesting(t *testing.T) {
	inner := BatchFrames([]Frame{{Type: FramePing}})
	bf := BatchFrames([]Frame{inner})
	if _, err := UnbatchFrames(bf.Payload); !errors.Is(err, ErrBatchNested) {
		t.Fatalf("nested batch err = %v, want ErrBatchNested", err)
	}
}

func TestBatchRejectsCorrupt(t *testing.T) {
	bf := BatchFrames([]Frame{{Type: FrameRequest, Payload: []byte("hello")}})
	// Truncated payload.
	if _, err := UnbatchFrames(bf.Payload[:len(bf.Payload)-2]); err == nil {
		t.Fatal("truncated batch decoded without error")
	}
	// Trailing garbage.
	withJunk := append(append([]byte{}, bf.Payload...), 0x01)
	if _, err := UnbatchFrames(withJunk); !errors.Is(err, ErrBatchTruncated) {
		t.Fatalf("trailing-garbage err = %v, want ErrBatchTruncated", err)
	}
	// Absurd count.
	huge := NewBuffer(8)
	huge.PutUvarint(MaxBatchFrames + 1)
	if _, err := UnbatchFrames(huge.Bytes()); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized-count err = %v, want ErrTooLarge", err)
	}
	if _, err := BatchCount(huge.Bytes()); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("BatchCount oversized err = %v, want ErrTooLarge", err)
	}
}

func TestLogicalFramesPlain(t *testing.T) {
	if n := LogicalFrames(Frame{Type: FrameRequest, Payload: []byte("x")}); n != 1 {
		t.Fatalf("LogicalFrames(plain) = %d, want 1", n)
	}
	if n := LogicalFrames(Frame{Type: FrameBatch, Payload: nil}); n != 1 {
		t.Fatalf("LogicalFrames(corrupt batch) = %d, want 1", n)
	}
}

func TestBufferPool(t *testing.T) {
	b := GetBuffer()
	b.PutString("scratch")
	if b.Len() == 0 {
		t.Fatal("pooled buffer ignored writes")
	}
	PutBuffer(b)
	b2 := GetBuffer()
	if b2.Len() != 0 {
		t.Fatal("pooled buffer not reset on reuse")
	}
	PutBuffer(b2)
	PutBuffer(nil) // must not panic
}
