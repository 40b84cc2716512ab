package wire

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestUvarintRoundTrip(t *testing.T) {
	values := []uint64{0, 1, 127, 128, 300, 1 << 20, 1 << 40, math.MaxUint64}
	var b Buffer
	for _, v := range values {
		b.PutUvarint(v)
	}
	r := NewReader(b.Bytes())
	for _, v := range values {
		if got := r.Uvarint(); got != v {
			t.Errorf("Uvarint: got %d, want %d", got, v)
		}
	}
	if !r.Done() {
		t.Errorf("reader not done: err=%v remaining=%d", r.Err(), r.Remaining())
	}
}

func TestVarintRoundTrip(t *testing.T) {
	values := []int64{0, 1, -1, 63, -64, 64, -65, math.MaxInt64, math.MinInt64}
	var b Buffer
	for _, v := range values {
		b.PutVarint(v)
	}
	r := NewReader(b.Bytes())
	for _, v := range values {
		if got := r.Varint(); got != v {
			t.Errorf("Varint: got %d, want %d", got, v)
		}
	}
	if !r.Done() {
		t.Errorf("reader not done: err=%v", r.Err())
	}
}

func TestMixedRoundTrip(t *testing.T) {
	var b Buffer
	b.PutString("urn:rover:mail/inbox")
	b.PutBool(true)
	b.PutBool(false)
	b.PutByte(0xAB)
	b.PutUint32(0xDEADBEEF)
	b.PutUint64(1 << 60)
	b.PutFloat64(3.14159)
	b.PutBytes([]byte{1, 2, 3})
	b.PutStringSlice([]string{"a", "", "ccc"})

	r := NewReader(b.Bytes())
	if got := r.String(); got != "urn:rover:mail/inbox" {
		t.Errorf("String: got %q", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.Byte(); got != 0xAB {
		t.Errorf("Byte: got %#x", got)
	}
	if got := r.Uint32(); got != 0xDEADBEEF {
		t.Errorf("Uint32: got %#x", got)
	}
	if got := r.Uint64(); got != 1<<60 {
		t.Errorf("Uint64: got %d", got)
	}
	if got := r.Float64(); got != 3.14159 {
		t.Errorf("Float64: got %v", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes: got %v", got)
	}
	ss := r.StringSlice()
	if len(ss) != 3 || ss[0] != "a" || ss[1] != "" || ss[2] != "ccc" {
		t.Errorf("StringSlice: got %q", ss)
	}
	if !r.Done() {
		t.Errorf("reader not done: err=%v remaining=%d", r.Err(), r.Remaining())
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader([]byte{0x05, 'a'}) // claims 5 bytes, has 1
	if got := r.String(); got != "" {
		t.Errorf("String on truncated input: got %q", got)
	}
	if r.Err() != ErrTruncated {
		t.Errorf("Err: got %v, want ErrTruncated", r.Err())
	}
	// All further reads must return zero values without panicking.
	if r.Uvarint() != 0 || r.Byte() != 0 || r.Bool() || r.String() != "" {
		t.Error("reads after error returned non-zero values")
	}
	if r.Err() != ErrTruncated {
		t.Errorf("sticky error changed: %v", r.Err())
	}
}

func TestStringLimit(t *testing.T) {
	var b Buffer
	b.PutUvarint(MaxStringLen + 1)
	r := NewReader(b.Bytes())
	_ = r.String()
	if r.Err() != ErrTooLarge {
		t.Errorf("oversized string: got %v, want ErrTooLarge", r.Err())
	}
}

func TestSliceLimit(t *testing.T) {
	var b Buffer
	b.PutUvarint(MaxSliceLen + 1)
	r := NewReader(b.Bytes())
	r.StringSlice()
	if r.Err() != ErrTooLarge {
		t.Errorf("oversized slice: got %v, want ErrTooLarge", r.Err())
	}
}

func TestBytesDoesNotAliasInput(t *testing.T) {
	var b Buffer
	b.PutBytes([]byte{1, 2, 3})
	input := b.Bytes()
	r := NewReader(input)
	got := r.Bytes()
	input[1] = 99 // mutate the raw input
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("Bytes aliases reader input: %v", got)
	}
}

// TestOwnedReaderAliases: over bytes the receiver owns, Bytes returns views
// capped at their own length, Strings are still copies, and the end checks
// are the ones Unmarshal makes.
func TestOwnedReaderAliases(t *testing.T) {
	var b Buffer
	b.PutBytes([]byte{1, 2, 3})
	b.PutString("svc")
	b.PutBytes([]byte{4, 5})
	input := b.Bytes()
	r := OwnedReader(input)
	first, s, second := r.Bytes(), r.String(), r.Bytes()
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if &first[0] != &input[1] || &second[0] != &input[len(input)-2] || cap(first) != 3 || cap(second) != 2 {
		t.Fatalf("Bytes from an owned reader: not capped views of the input (cap %d, %d)", cap(first), cap(second))
	}
	_ = append(first, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE)
	input[5] = 'X' // under the decoded string
	if s != "svc" || !bytes.Equal(second, []byte{4, 5}) {
		t.Fatalf("after writes near the views: string %q, second %v", s, second)
	}
	r = OwnedReader(append(input, 0))
	r.Bytes()
	if r.Finish() == nil {
		t.Fatal("Finish accepted a trailing byte")
	}
}

func TestReaderEmptyInput(t *testing.T) {
	r := NewReader(nil)
	if !r.Done() {
		t.Error("empty reader should be done")
	}
	r.Byte()
	if r.Err() != ErrTruncated {
		t.Errorf("Byte on empty: got %v", r.Err())
	}
}

// Property: any (uint64, int64, string, []byte) tuple round-trips.
func TestQuickRoundTrip(t *testing.T) {
	f := func(u uint64, i int64, s string, p []byte, bl bool) bool {
		var b Buffer
		b.PutUvarint(u)
		b.PutVarint(i)
		b.PutString(s)
		b.PutBytes(p)
		b.PutBool(bl)
		r := NewReader(b.Bytes())
		gu := r.Uvarint()
		gi := r.Varint()
		gs := r.String()
		gp := r.Bytes()
		gb := r.Bool()
		return r.Done() && gu == u && gi == i && gs == s &&
			bytes.Equal(gp, p) && gb == bl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: truncating an encoded buffer at any point yields an error, never
// a panic or silent success for multi-field messages.
func TestQuickTruncation(t *testing.T) {
	f := func(s string, p []byte) bool {
		var b Buffer
		b.PutString(s)
		b.PutBytes(p)
		b.PutUint64(42)
		enc := b.Bytes()
		for cut := 0; cut < len(enc); cut++ {
			r := NewReader(enc[:cut])
			_ = r.String()
			r.Bytes()
			r.Uint64()
			if r.Err() == nil {
				return false // truncated input decoded without error
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBufferHelpers(t *testing.T) {
	b := NewBuffer(64)
	b.PutRaw([]byte{1, 2})
	b.PutString("x")
	if b.Len() != 4 {
		t.Errorf("Len = %d", b.Len())
	}
	r := NewReader(b.Bytes())
	if r.Byte() != 1 || r.Byte() != 2 {
		t.Error("PutRaw bytes")
	}
	if r.Remaining() != 2 {
		t.Errorf("Remaining = %d", r.Remaining())
	}
	if got := r.String(); got != "x" {
		t.Errorf("String = %q", got)
	}
	b.Reset()
	if b.Len() != 0 {
		t.Error("Reset")
	}
}

type testMsg struct {
	A uint64
	S string
}

func (m *testMsg) MarshalWire(b *Buffer) {
	b.PutUvarint(m.A)
	b.PutString(m.S)
}

func (m *testMsg) UnmarshalWire(r *Reader) error {
	m.A = r.Uvarint()
	m.S = r.String()
	return r.Err()
}

func TestMarshalUnmarshal(t *testing.T) {
	in := &testMsg{A: 7, S: "hello"}
	enc := Marshal(in)
	var out testMsg
	if err := Unmarshal(enc, &out); err != nil {
		t.Fatal(err)
	}
	if out != *in {
		t.Errorf("round trip %+v", out)
	}
	// Trailing bytes are an error.
	if err := Unmarshal(append(enc, 0xFF), &out); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Truncation is an error.
	if err := Unmarshal(enc[:1], &out); err == nil {
		t.Error("truncated input accepted")
	}
}

func TestLenHelper(t *testing.T) {
	var b Buffer
	b.PutUvarint(3)
	r := NewReader(b.Bytes())
	if got := r.Len(); got != 3 {
		t.Errorf("Len = %d", got)
	}
	var big Buffer
	big.PutUvarint(MaxSliceLen + 1)
	r2 := NewReader(big.Bytes())
	r2.Len()
	if r2.Err() != ErrTooLarge {
		t.Errorf("oversized Len: %v", r2.Err())
	}
}

func TestVarintOverflow(t *testing.T) {
	// 10 bytes of continuation bits overflow a 64-bit varint.
	over := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}
	r := NewReader(over)
	r.Uvarint()
	if r.Err() != ErrOverflow {
		t.Errorf("Uvarint overflow: %v", r.Err())
	}
	r2 := NewReader(over)
	r2.Varint()
	if r2.Err() != ErrOverflow {
		t.Errorf("Varint overflow: %v", r2.Err())
	}
	// Truncated varint.
	r3 := NewReader([]byte{0x80})
	r3.Varint()
	if r3.Err() != ErrTruncated {
		t.Errorf("Varint truncated: %v", r3.Err())
	}
}

func TestFixedWidthTruncation(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.Uint32()
	if r.Err() != ErrTruncated {
		t.Errorf("Uint32: %v", r.Err())
	}
	r2 := NewReader([]byte{1, 2, 3, 4})
	r2.Uint64()
	if r2.Err() != ErrTruncated {
		t.Errorf("Uint64: %v", r2.Err())
	}
}

func TestUvarintSliceRoundTrip(t *testing.T) {
	cases := [][]uint64{nil, {}, {0}, {1, 2, 3}, {math.MaxUint64, 0, 42}}
	for _, xs := range cases {
		var b Buffer
		b.PutUvarintSlice(xs)
		r := NewReader(b.Bytes())
		got := r.UvarintSlice()
		if r.Err() != nil {
			t.Fatalf("%v: Err = %v", xs, r.Err())
		}
		if len(got) != len(xs) {
			t.Fatalf("%v: got %v", xs, got)
		}
		for i := range xs {
			if got[i] != xs[i] {
				t.Fatalf("%v: got %v", xs, got)
			}
		}
	}
}

func TestUvarintSliceLimit(t *testing.T) {
	var b Buffer
	b.PutUvarint(MaxSliceLen + 1)
	r := NewReader(b.Bytes())
	r.UvarintSlice()
	if r.Err() != ErrTooLarge {
		t.Errorf("oversized uvarint slice: got %v, want ErrTooLarge", r.Err())
	}
}

func TestUvarintSliceTruncated(t *testing.T) {
	var b Buffer
	b.PutUvarint(1 << 19) // huge claimed count, no elements — alloc must be capped
	r := NewReader(b.Bytes())
	if got := r.UvarintSlice(); got != nil {
		t.Errorf("truncated slice: got %v", got)
	}
	if r.Err() != ErrTruncated {
		t.Errorf("Err = %v, want ErrTruncated", r.Err())
	}
}

// TestPutMessageIsPutBytesOfMarshal: a message encoded in place behind its
// length prefix is byte for byte what PutBytes of its own encoding writes,
// across the sizes where the prefix grows from one byte to three.
func TestPutMessageIsPutBytesOfMarshal(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 16383, 16384} {
		msg := Raw(bytes.Repeat([]byte{0xA5}, n))
		var got, want Buffer
		got.PutString("head")
		want.PutString("head")
		if m := got.PutMessage(msg); m != n {
			t.Errorf("n=%d: PutMessage reported %d bytes", n, m)
		}
		want.PutBytes(Marshal(msg))
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("n=%d: PutMessage wrote %d bytes, PutBytes of Marshal %d", n, got.Len(), want.Len())
		}
	}
}
