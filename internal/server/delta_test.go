package server

import (
	"strings"
	"testing"

	"rover/internal/proto"
	"rover/internal/rdo"
	"rover/internal/store"
	"rover/internal/wire"
)

// paddedCounter is a counter with enough state that a full object encoding
// dwarfs a few-op delta (delta replies are only chosen when they are
// strictly smaller on the wire).
func paddedCounter(path string) *rdo.Object {
	o := counter(path)
	o.Set("pad", strings.Repeat("bulk state the delta need not resend ", 30))
	return o
}

func (r *rig) importReply(t *testing.T, args *proto.ImportArgs) *proto.ImportReply {
	t.Helper()
	res, err := r.call(proto.SvcImport, args)
	if err != nil {
		t.Fatal(err)
	}
	var rep proto.ImportReply
	if err := wire.Unmarshal(res, &rep); err != nil {
		t.Fatal(err)
	}
	return &rep
}

func (r *rig) invokeOK(t *testing.T, args *proto.InvokeArgs) {
	t.Helper()
	if _, err := r.call(proto.SvcInvoke, args); err != nil {
		t.Fatal(err)
	}
}

func TestImportDeltaReply(t *testing.T) {
	r := newRig(t)
	obj := paddedCounter("d")
	r.srv.Store().Create(obj)
	u := obj.URN
	r.invokeOK(t, &proto.InvokeArgs{URN: u, Method: "add", Args: []string{"2"}})
	r.invokeOK(t, &proto.InvokeArgs{URN: u, Method: "add", Args: []string{"3"}})

	rep := r.importReply(t, &proto.ImportArgs{URN: u, HaveVersion: 1})
	if !rep.Delta || rep.NotModified {
		t.Fatalf("want delta reply, got %+v", rep)
	}
	if rep.FromVersion != 1 || rep.NewVersion != 3 || len(rep.Ops) != 2 {
		t.Fatalf("delta shape: from=%d new=%d ops=%d", rep.FromVersion, rep.NewVersion, len(rep.Ops))
	}
	if rep.Ops[0].Method != "add" || rep.Ops[0].Args[0] != "2" || rep.Ops[1].Args[0] != "3" {
		t.Fatalf("ops: %+v", rep.Ops)
	}
	// The checksum matches the server's current full encoding.
	cur, err := r.srv.Store().Get(u)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Check != proto.ObjectCheck(cur.Encode()) {
		t.Error("delta checksum does not match the server's object")
	}
}

func TestImportHaveVersionAheadOfServer(t *testing.T) {
	// A client AHEAD of the server (the server was restored from an old
	// backup) must get the authoritative full object, never a delta or
	// NotModified computed against history the server no longer has.
	r := newRig(t)
	obj := paddedCounter("d")
	r.srv.Store().Create(obj)
	u := obj.URN
	r.invokeOK(t, &proto.InvokeArgs{URN: u, Method: "add", Args: []string{"1"}})

	rep := r.importReply(t, &proto.ImportArgs{URN: u, HaveVersion: 99})
	if rep.Delta || rep.NotModified || len(rep.Object) == 0 {
		t.Fatalf("want full object, got %+v", rep)
	}
	dec, err := rdo.Decode(rep.Object)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Version != 2 {
		t.Fatalf("full object at version %d, want the server's 2", dec.Version)
	}
}

func TestImportFullWhenHistoryPruned(t *testing.T) {
	r := newRig(t)
	r.srv.Store().(*store.Store).SetHistoryLimit(2)
	obj := paddedCounter("d")
	r.srv.Store().Create(obj)
	u := obj.URN
	for i := 0; i < 5; i++ {
		r.invokeOK(t, &proto.InvokeArgs{URN: u, Method: "add", Args: []string{"1"}})
	}
	// HaveVersion 1 predates the retained window: full object.
	rep := r.importReply(t, &proto.ImportArgs{URN: u, HaveVersion: 1})
	if rep.Delta || len(rep.Object) == 0 {
		t.Fatalf("pruned history should force a full object, got %+v", rep)
	}
	// HaveVersion inside the window: delta.
	rep = r.importReply(t, &proto.ImportArgs{URN: u, HaveVersion: 4})
	if !rep.Delta || len(rep.Ops) != 2 {
		t.Fatalf("in-window revalidation should be a delta, got %+v", rep)
	}
}

func TestImportDeltaSkippedWhenNotSmaller(t *testing.T) {
	// A tiny object with fat invocation history: the delta encoding loses
	// to the full object and the server must notice.
	r := newRig(t)
	obj := counter("tiny")
	r.srv.Store().Create(obj)
	u := obj.URN
	for i := 0; i < 6; i++ {
		r.invokeOK(t, &proto.InvokeArgs{URN: u, Method: "add", Args: []string{strings.Repeat("1", 1)}})
	}
	rep := r.importReply(t, &proto.ImportArgs{URN: u, HaveVersion: 1})
	cur, err := r.srv.Store().Get(u)
	if err != nil {
		t.Fatal(err)
	}
	full := len(wire.Marshal(&proto.ImportReply{Object: cur.Encode()}))
	if rep.Delta {
		if enc := len(wire.Marshal(rep)); enc >= full {
			t.Fatalf("server chose a delta (%d bytes) not smaller than full (%d)", enc, full)
		}
	}
}
