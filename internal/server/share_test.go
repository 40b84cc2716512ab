package server

import (
	"bytes"
	"testing"

	"rover/internal/proto"
	"rover/internal/rdo"
	"rover/internal/wire"
)

// TestImportKeptEncodingIsCanonical: the server answers an import with the
// encoding its store object keeps when it has one (a loaded snapshot, a
// disk fault-in) and re-encodes the fields otherwise. Either way the bytes
// on the wire are the canonical encoding of the object: before an export
// commits and after it changes the object's version and state.
func TestImportKeptEncodingIsCanonical(t *testing.T) {
	r := newRig(t)
	obj := counter("kept")
	obj.Set("count", "1")
	if err := r.srv.Store().Create(obj); err != nil {
		t.Fatal(err)
	}
	if err := r.srv.Store().LoadSnapshot(r.srv.Store().Snapshot()); err != nil {
		t.Fatal(err)
	}
	imported := func(want *rdo.Object) {
		t.Helper()
		res, err := r.call(proto.SvcImport, &proto.ImportArgs{URN: obj.URN})
		if err != nil {
			t.Fatal(err)
		}
		var rep proto.ImportReply
		if err := wire.Unmarshal(res, &rep); err != nil {
			t.Fatal(err)
		}
		if enc := want.Encode(); !bytes.Equal(rep.Object, enc) {
			t.Fatalf("import sent % x\nwant the canonical % x", rep.Object, enc)
		}
	}
	want := counter("kept")
	want.Version = 1
	want.Set("count", "1")
	imported(want)

	inv := rdo.Invocation{Object: obj.URN, Method: "add", Args: []string{"1"}, BaseVer: 1}
	res, err := r.call(proto.SvcExport, &proto.ExportArgs{URN: obj.URN, BaseVer: 1, Invs: []rdo.Invocation{inv}})
	if err != nil {
		t.Fatal(err)
	}
	var rep proto.ExportReply
	if err := wire.Unmarshal(res, &rep); err != nil || rep.Outcome != proto.OutcomeCommitted {
		t.Fatalf("export: %+v, %v", rep, err)
	}
	want.Version = 2
	want.Set("count", "2")
	imported(want)
}

// TestFullImportReplyIsMarshalOfReply: a full import's reply, written with
// the object encoded straight into it, is byte for byte the ImportReply
// marshaled around the object's own encoding — for an object written since
// it was stored (no kept encoding) and for one decoded from a snapshot —
// whether the client asked for everything or is ahead of the server.
func TestFullImportReplyIsMarshalOfReply(t *testing.T) {
	r := newRig(t)
	obj := paddedCounter("full")
	if err := r.srv.Store().Create(obj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string) {
		t.Helper()
		cur, err := r.srv.Store().Get(obj.URN)
		if err != nil {
			t.Fatal(err)
		}
		want := wire.Marshal(&proto.ImportReply{Object: cur.Encode()})
		for _, have := range []uint64{0, cur.Version + 1} {
			res, err := r.call(proto.SvcImport, &proto.ImportArgs{URN: obj.URN, HaveVersion: have})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res, want) {
				t.Fatalf("%s object, HaveVersion %d: reply % x\nwant % x", kind, have, res, want)
			}
		}
	}
	check("written")
	if err := r.srv.Store().LoadSnapshot(r.srv.Store().Snapshot()); err != nil {
		t.Fatal(err)
	}
	check("decoded")
}
