package proto

import (
	"bytes"
	"encoding/hex"
	"testing"

	"rover/internal/rdo"
	"rover/internal/urn"
	"rover/internal/wire"
)

// goldenExportArgs is what the toolkit encoded for this export before the
// Expect trailer existed (taken from the parent commit): a client that
// sends no trailer must keep producing exactly these bytes.
const goldenExportArgs = "1075726e3a726f7665723a756e69742f630101011075726e3a726f7665723a756e69742f630361646401013501"

func goldenArgs() *ExportArgs {
	c := urn.MustParse("urn:rover:unit/c")
	return &ExportArgs{URN: c, BaseVer: 1, ReadDep: 1,
		Invs: []rdo.Invocation{{Object: c, Method: "add", Args: []string{"5"}, BaseVer: 1}}}
}

func TestExportExpectTrailer(t *testing.T) {
	golden, _ := hex.DecodeString(goldenExportArgs)
	plain := goldenArgs()
	if got := wire.Marshal(plain); !bytes.Equal(got, golden) {
		t.Fatalf("trailer-less ExportArgs changed on the wire:\n got %x\nwant %x", got, golden)
	}
	var dec ExportArgs
	if err := wire.Unmarshal(golden, &dec); err != nil || dec.HasExpect || dec.Expect != 0 {
		t.Fatalf("trailer-less decode: %+v, %v", dec, err)
	}

	// The trailer is exactly four bytes after the original encoding; a
	// zero checksum is still a checksum.
	for _, check := range []uint32{0, 0xDEADBEEF} {
		lean := goldenArgs()
		lean.HasExpect, lean.Expect = true, check
		enc := wire.Marshal(lean)
		if len(enc) != len(golden)+4 || !bytes.Equal(enc[:len(golden)], golden) {
			t.Fatalf("Expect %#x is not a 4-byte trailer: %x", check, enc)
		}
		dec = ExportArgs{}
		if err := wire.Unmarshal(enc, &dec); err != nil || !dec.HasExpect || dec.Expect != check {
			t.Fatalf("Expect %#x decoded as %+v, %v", check, dec, err)
		}
	}

	// A partial trailer is truncation, a longer one trailing garbage.
	for _, tail := range [][]byte{{1}, {1, 2, 3}, {1, 2, 3, 4, 5}} {
		if err := wire.Unmarshal(append(bytes.Clone(golden), tail...), &dec); err == nil {
			t.Errorf("%d trailing bytes accepted", len(tail))
		}
	}
}

// FuzzExportArgs: bytes a client wrote never panic the decoder, and
// whatever decodes re-encodes to itself — in particular the optional
// trailer is either absent or exactly four bytes.
func FuzzExportArgs(f *testing.F) {
	golden, _ := hex.DecodeString(goldenExportArgs)
	f.Add(golden)
	lean := goldenArgs()
	lean.HasExpect, lean.Expect = true, 0xDEADBEEF
	f.Add(wire.Marshal(lean))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m ExportArgs
		if err := wire.Unmarshal(data, &m); err != nil {
			return
		}
		enc := wire.Marshal(&m)
		var again ExportArgs
		if err := wire.Unmarshal(enc, &again); err != nil {
			t.Fatalf("re-decode of %x: %v", enc, err)
		}
		if !bytes.Equal(wire.Marshal(&again), enc) {
			t.Fatalf("encode∘decode is not the identity on %x", enc)
		}
		if again.HasExpect != m.HasExpect || again.Expect != m.Expect || len(again.Invs) != len(m.Invs) {
			t.Fatalf("decoded %+v, re-decoded %+v", m, again)
		}
	})
}

// FuzzExportReply: same for the reply, whose Object may now be empty.
func FuzzExportReply(f *testing.F) {
	f.Add(wire.Marshal(&ExportReply{Outcome: OutcomeCommitted, NewVersion: 2}))
	f.Add(wire.Marshal(&ExportReply{Outcome: OutcomeResolved, NewVersion: 9, Object: []byte{1, 2, 3}, Message: "merged"}))
	f.Add(wire.Marshal(&ExportReply{Outcome: OutcomeConflict, NewVersion: 3, Object: rdo.New(u, "t").Encode(), Message: "rejected"}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m ExportReply
		if err := wire.Unmarshal(data, &m); err != nil {
			return
		}
		enc := wire.Marshal(&m)
		var again ExportReply
		if err := wire.Unmarshal(enc, &again); err != nil {
			t.Fatalf("re-decode of %x: %v", enc, err)
		}
		if again.Outcome != m.Outcome || again.NewVersion != m.NewVersion ||
			!bytes.Equal(again.Object, m.Object) || again.Message != m.Message {
			t.Fatalf("decoded %+v, re-decoded %+v", m, again)
		}
		if !bytes.Equal(wire.Marshal(&again), enc) {
			t.Fatalf("encode∘decode is not the identity on %x", enc)
		}
	})
}
