package proto

import (
	"bytes"
	"testing"

	"rover/internal/rdo"
	"rover/internal/wire"
)

type message interface {
	wire.Marshaler
	wire.Unmarshaler
}

// protoMessages lists every proto message but ExportArgs and ExportReply,
// which have fuzzers of their own, each with one valid value to seed from.
var protoMessages = []struct {
	fresh func() message
	seed  message
}{
	{func() message { return new(ImportArgs) }, &ImportArgs{URN: u, HaveVersion: 7}},
	{func() message { return new(ImportReply) }, &ImportReply{Delta: true, FromVersion: 3, NewVersion: 4,
		Ops: []rdo.Invocation{{Object: u, Method: "add", Args: []string{"1"}, BaseVer: 3}}, Check: 0xDEADBEEF}},
	{func() message { return new(InvokeArgs) }, &InvokeArgs{URN: u, Method: "m", Args: []string{"x", ""}}},
	{func() message { return new(InvokeReply) }, &InvokeReply{Result: "r", NewVersion: 4, Mutated: true}},
	{func() message { return new(CreateArgs) }, &CreateArgs{Object: rdo.New(u, "t").Encode()}},
	{func() message { return new(CreateReply) }, &CreateReply{Version: 1}},
	{func() message { return new(StatArgs) }, &StatArgs{URN: u}},
	{func() message { return new(StatReply) }, &StatReply{Exists: true, Version: 2, Type: "t", Size: 100}},
	{func() message { return new(ListArgs) }, &ListArgs{Prefix: u}},
	{func() message { return new(ListReply) }, &ListReply{Entries: []ListEntry{{URN: u, Version: 1, Type: "t"}}}},
	{func() message { return new(SubscribeArgs) }, &SubscribeArgs{Prefix: u}},
	{func() message { return new(InvalidateEvent) }, &InvalidateEvent{URN: u, NewVersion: 5}},
	{func() message { return new(CheckoutArgs) }, &CheckoutArgs{URN: u, Force: true}},
	{func() message { return new(CheckoutReply) }, &CheckoutReply{Granted: true, Holder: "laptop"}},
	{func() message { return new(CheckinArgs) }, &CheckinArgs{URN: u}},
	{func() message { return new(ConflictsReply) }, &ConflictsReply{Conflicts: []ConflictEntry{
		{URN: u, ClientID: "c", BaseVer: 1, AtVer: 2, Message: "m"}}}},
}

// FuzzProtoMessages: the first byte picks a message type, the rest are a
// peer's bytes for it. They never panic the decoder, and whatever decodes
// re-encodes to itself.
func FuzzProtoMessages(f *testing.F) {
	for i, m := range protoMessages {
		f.Add(append([]byte{byte(i)}, wire.Marshal(m.seed)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		typ := protoMessages[int(data[0])%len(protoMessages)]
		m := typ.fresh()
		if err := wire.Unmarshal(data[1:], m); err != nil {
			return
		}
		enc := wire.Marshal(m)
		again := typ.fresh()
		if err := wire.Unmarshal(enc, again); err != nil {
			t.Fatalf("re-decode of %T %x: %v", m, enc, err)
		}
		if !bytes.Equal(wire.Marshal(again), enc) {
			t.Fatalf("encode∘decode is not the identity on %T %x", m, enc)
		}
	})
}
