package wire

import (
	"bufio"
	"bytes"
	"io"
	"runtime"
	"testing"
	"unsafe"
)

func TestStreamReaderSkipsCorruptFrames(t *testing.T) {
	good1 := Frame{Type: FrameRequest, Payload: []byte("first")}
	bad := EncodeFrame(Frame{Type: FrameRequest, Payload: []byte("damaged")})
	bad[len(bad)-1] ^= 0xFF // break the CRC
	good2 := Frame{Type: FrameReply, Payload: []byte("second")}

	var stream []byte
	stream = AppendFrame(stream, good1)
	stream = append(stream, bad...)
	stream = AppendFrame(stream, good2)

	s := NewStreamReader(bufio.NewReader(bytes.NewReader(stream)))
	f1, err := s.Next()
	if err != nil || string(f1.Payload) != "first" {
		t.Fatalf("frame 1: %v, %q", err, f1.Payload)
	}
	f2, err := s.Next()
	if err != nil || string(f2.Payload) != "second" {
		t.Fatalf("frame 2 after corrupt frame: %v, %q", err, f2.Payload)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("want clean EOF, got %v", err)
	}
	if s.SkippedFrames != 1 {
		t.Errorf("SkippedFrames = %d, want 1", s.SkippedFrames)
	}
}

func TestStreamReaderResyncsPastGarbage(t *testing.T) {
	good1 := Frame{Type: FrameRequest, Payload: []byte("alpha")}
	good2 := Frame{Type: FrameAck, Payload: []byte("omega")}
	var stream []byte
	stream = AppendFrame(stream, good1)
	stream = append(stream, []byte("not a frame at all")...)
	stream = AppendFrame(stream, good2)

	s := NewStreamReader(bufio.NewReader(bytes.NewReader(stream)))
	f1, err := s.Next()
	if err != nil || string(f1.Payload) != "alpha" {
		t.Fatalf("frame 1: %v, %q", err, f1.Payload)
	}
	f2, err := s.Next()
	if err != nil || string(f2.Payload) != "omega" {
		t.Fatalf("frame 2 after garbage: %v, %q", err, f2.Payload)
	}
	if s.SkippedBytes == 0 {
		t.Error("expected skipped bytes while resyncing")
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("want clean EOF, got %v", err)
	}
}

func TestStreamReaderCorruptLengthRecovers(t *testing.T) {
	// Corrupt the length varint of an interior frame: the reader consumes a
	// wrong byte count, desyncs, and must still find the following frame.
	mid := EncodeFrame(Frame{Type: FrameRequest, Payload: bytes.Repeat([]byte("x"), 40)})
	mid[4] ^= 0x20 // length byte (payload < 128, so offset 4 is the 1-byte varint): 40 -> 8
	var stream []byte
	stream = AppendFrame(stream, Frame{Type: FrameRequest, Payload: []byte("head")})
	stream = append(stream, mid...)
	stream = AppendFrame(stream, Frame{Type: FrameReply, Payload: []byte("tail")})
	stream = AppendFrame(stream, Frame{Type: FrameReply, Payload: []byte("last")})

	s := NewStreamReader(bufio.NewReader(bytes.NewReader(stream)))
	var got []string
	for {
		f, err := s.Next()
		if err != nil {
			break
		}
		got = append(got, string(f.Payload))
	}
	if len(got) < 2 || got[0] != "head" || got[len(got)-1] != "last" {
		t.Fatalf("recovered frames %q; want head...last", got)
	}
}

func TestStreamReaderTornTail(t *testing.T) {
	full := EncodeFrame(Frame{Type: FrameRequest, Payload: []byte("whole")})
	var stream []byte
	stream = AppendFrame(stream, Frame{Type: FrameRequest, Payload: []byte("ok")})
	stream = append(stream, full[:len(full)-3]...) // torn mid-frame

	s := NewStreamReader(bufio.NewReader(bytes.NewReader(stream)))
	if f, err := s.Next(); err != nil || string(f.Payload) != "ok" {
		t.Fatalf("frame 1: %v, %q", err, f.Payload)
	}
	if _, err := s.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn tail: want ErrUnexpectedEOF, got %v", err)
	}
}

// within reports whether p lies inside buf.
func within(p, buf []byte) bool {
	lo, at := uintptr(unsafe.Pointer(unsafe.SliceData(buf))), uintptr(unsafe.Pointer(unsafe.SliceData(p)))
	return at >= lo && at+uintptr(len(p)) <= lo+uintptr(len(buf))
}

// FuzzReadFrame: whatever bytes a peer sends, the receive path — ReadFrame,
// resync past garbage, inflate, unbatch — never panics, allocates in
// proportion to the bytes that arrived rather than to what a header claims,
// agrees with DecodeFrame on the leading frame, and hands out sub-frames that
// are capped views inside the batch they arrived in. The corpus under
// testdata/fuzz/FuzzReadFrame holds the first frames of real TCP sessions,
// each way: 64-byte echoes, and a mail folder imported with compression on.
func FuzzReadFrame(f *testing.F) {
	bad := EncodeFrame(Frame{Type: FrameRequest, Payload: []byte("damaged")})
	bad[len(bad)-1] ^= 0xFF
	var stream []byte
	stream = append(stream, "not a frame"...)
	stream = append(stream, bad...)
	stream = AppendFrame(stream, BatchFrames([]Frame{{Type: FrameAck, Payload: []byte{1, 3}}, {Type: FrameRequest, Payload: []byte("req")}}))
	stream = AppendFrame(stream, CoalesceFrames(compressibleFrames(3), true))
	f.Add(stream)
	var huge Buffer // a header alone, claiming the 32 MiB maximum
	huge.PutRaw([]byte{frameMagic0, frameMagic1, frameVersion, FrameReply})
	huge.PutUvarint(MaxFramePayload)
	f.Add(huge.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		br := bufio.NewReader(src)
		rf, rerr := ReadFrame(br)
		df, dn, derr := DecodeFrame(data)
		if (rerr == nil) != (derr == nil) {
			t.Fatalf("leading frame: ReadFrame err %v, DecodeFrame err %v", rerr, derr)
		}
		if rerr == nil {
			read := len(data) - src.Len() - br.Buffered()
			if rf.Type != df.Type || !bytes.Equal(rf.Payload, df.Payload) || read != dn {
				t.Fatalf("leading frame: ReadFrame %v over %d bytes, DecodeFrame %v over %d", rf.Type, read, df.Type, dn)
			}
			if cap(rf.Payload) != len(rf.Payload) {
				t.Fatalf("ReadFrame payload cap %d, len %d", cap(rf.Payload), len(rf.Payload))
			}
		}

		s := NewStreamReader(bufio.NewReader(bytes.NewReader(data)))
		got := make([]Frame, 0, 16)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for {
			fr, err := s.Next()
			if err != nil {
				break
			}
			got = append(got, fr)
		}
		runtime.ReadMemStats(&after)
		// One read buffer of at most 64 KiB before bytes arrive, payloads at
		// most twice what arrived, a rebuilt inflate context (~45 KB) and
		// what a Z batch inflates to (bounded as in FuzzInflateBatchFrame).
		if spent := after.TotalAlloc - before.TotalAlloc; spent > 1<<20+64*uint64(len(data)) {
			t.Fatalf("%d input bytes made the stream reader allocate %d bytes", len(data), spent)
		}
		for _, fr := range got {
			if fr.Type != FrameBatch {
				continue
			}
			subs, err := UnbatchFrames(fr.Payload)
			if err != nil {
				continue
			}
			for i, sub := range subs {
				if cap(sub.Payload) != len(sub.Payload) || len(sub.Payload) > 0 && !within(sub.Payload, fr.Payload) {
					t.Fatalf("sub-frame %d of %d: not a capped view inside its batch (len %d, cap %d)", i, len(subs), len(sub.Payload), cap(sub.Payload))
				}
			}
		}
	})
}
