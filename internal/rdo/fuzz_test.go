package rdo

import (
	"bytes"
	"runtime"
	"testing"

	"rover/internal/urn"
	"rover/internal/wire"
)

// FuzzDecodeObject: an object's encoding arrives from clients (a created
// object), replica peers and disk segments. The decoder never panics or
// allocates out of proportion to its input whatever a count claims, and an
// object it accepts encodes to the canonical encoding of its fields — kept
// bytes or not — which decodes to the same object and encodes to the same
// bytes again.
func FuzzDecodeObject(f *testing.F) {
	o := New(urn.MustParse("urn:rover:cal.mit.edu/counter"), "counter")
	o.Version = 7
	o.Code = "proc get {} { state get count 0 }"
	o.Set("count", "42")
	o.Set("owner", "adj")
	f.Add(o.Encode())
	f.Add(New(urn.MustParse("urn:rover:h/x"), "t").Encode())
	// A count the input cannot back: this 21-byte object claiming 2^20
	// state entries allocated 84 MB.
	var huge wire.Buffer
	huge.PutString("urn:rover:h/x")
	huge.PutString("t")
	huge.PutUvarint(1)
	huge.PutString("")
	huge.PutUvarint(wire.MaxSliceLen)
	f.Add(huge.Bytes())
	// Input that decodes but is not what the encoder writes: it must not be
	// kept as the object's encoding.
	for _, p := range nonCanonicalSeeds() {
		f.Add(p)
	}

	f.Fuzz(func(t *testing.T, p []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		o, err := Decode(p)
		runtime.ReadMemStats(&after)
		if spent := after.TotalAlloc - before.TotalAlloc; spent > 1<<20+64*uint64(len(p)) {
			t.Fatalf("%d input bytes made the decoder allocate %d bytes", len(p), spent)
		}
		if err != nil {
			return
		}
		enc := o.Encode()
		var fresh wire.Buffer
		plainCopy(o).MarshalWire(&fresh)
		if !bytes.Equal(enc, fresh.Bytes()) {
			t.Fatalf("decoded object encodes to % x, its fields to % x", enc, fresh.Bytes())
		}
		again, err := Decode(enc)
		if err != nil || !Equal(again, o) || !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("object did not survive re-encoding: %v\n got %+v\nwant %+v", err, again, o)
		}
	})
}
