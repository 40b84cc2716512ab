package repl_test

import (
	"reflect"
	"runtime"
	"testing"

	"rover/internal/rdo"
	"rover/internal/repl"
	"rover/internal/urn"
	"rover/internal/wire"
)

// message is a replication message as the decoder sees it.
type message interface {
	wire.Marshaler
	wire.Unmarshaler
}

// FuzzReplRecord: a replication peer's bytes reach Record (SvcApply
// arguments), ApplyReply and DigestReply. None of the three decoders
// panics or allocates out of proportion to the input whatever a count
// claims, and whatever one accepts re-encodes to bytes that decode to the
// same message.
func FuzzReplRecord(f *testing.F) {
	u := urn.MustParse("urn:rover:pair/slots")
	for _, m := range []wire.Marshaler{
		&repl.Record{Kind: repl.KindOps, URN: u, PrevVersion: 3, Version: 4, Src: "mobile-1", Check: 7,
			Invs: []rdo.Invocation{{Object: u, Method: "book", Args: []string{"s1", "who"}, BaseVer: 3}}},
		&repl.Record{Kind: repl.KindState, URN: u, Object: []byte("opaque-encoding")},
		&repl.Record{Kind: repl.KindExec, ClientID: "mobile-1", Reply: []byte("wire-reply")},
		&repl.ApplyReply{Status: repl.ApplyBehind, HaveVersion: 41},
		&repl.DigestReply{ServerID: "pair-a", Entries: []repl.DigestEntry{{URN: u, Version: 2, Check: 9}}},
	} {
		f.Add(wire.Marshal(m))
	}
	// Counts the input cannot back: a 20-byte ops record claiming 2^20
	// invocations allocated 80 MB, and a 5-byte digest claiming 2^20 entries
	// 48 MB.
	var ops wire.Buffer
	ops.PutByte(repl.KindOps)
	ops.PutString("urn:rover:h/x")
	ops.PutUvarint(1)
	ops.PutUvarint(2)
	ops.PutUvarint(wire.MaxSliceLen)
	f.Add(ops.Bytes())
	var dig wire.Buffer
	dig.PutString("a")
	dig.PutUvarint(wire.MaxSliceLen)
	f.Add(dig.Bytes())

	f.Fuzz(func(t *testing.T, p []byte) {
		decodeReencode(t, p, &repl.Record{}, &repl.Record{})
		decodeReencode(t, p, &repl.ApplyReply{}, &repl.ApplyReply{})
		decodeReencode(t, p, &repl.DigestReply{}, &repl.DigestReply{})
	})
}

// decodeReencode decodes p into m, bounding what that allocates, and when
// p is accepted checks that m's encoding decodes into again as m.
func decodeReencode(t *testing.T, p []byte, m, again message) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := wire.Unmarshal(p, m)
	runtime.ReadMemStats(&after)
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 1<<20+64*uint64(len(p)) {
		t.Fatalf("%T: %d input bytes made the decoder allocate %d bytes", m, len(p), spent)
	}
	if err != nil {
		return
	}
	if err := wire.Unmarshal(wire.Marshal(m), again); err != nil || !reflect.DeepEqual(again, m) {
		t.Fatalf("%T did not survive re-encoding: %v\n got %+v\nwant %+v", m, err, again, m)
	}
}
