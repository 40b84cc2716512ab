package proto

import (
	"runtime"
	"testing"
	"testing/quick"

	"rover/internal/rdo"
	"rover/internal/urn"
	"rover/internal/wire"
)

var u = urn.MustParse("urn:rover:h/obj")

func roundTrip(t *testing.T, in wire.Marshaler, out wire.Unmarshaler) {
	t.Helper()
	if err := wire.Unmarshal(wire.Marshal(in), out); err != nil {
		t.Fatalf("round trip %T: %v", in, err)
	}
}

func TestImportRoundTrip(t *testing.T) {
	var args ImportArgs
	roundTrip(t, &ImportArgs{URN: u, HaveVersion: 7}, &args)
	if args.URN != u || args.HaveVersion != 7 {
		t.Errorf("%+v", args)
	}
	var rep ImportReply
	roundTrip(t, &ImportReply{NotModified: true, Object: []byte{1, 2}}, &rep)
	if !rep.NotModified || len(rep.Object) != 2 {
		t.Errorf("%+v", rep)
	}
}

func TestExportRoundTrip(t *testing.T) {
	in := &ExportArgs{
		URN:     u,
		BaseVer: 3,
		ReadDep: 2,
		Invs: []rdo.Invocation{
			{Object: u, Method: "m1", Args: []string{"a", "b"}, BaseVer: 3},
			{Object: u, Method: "m2", Args: nil, BaseVer: 3},
		},
	}
	var args ExportArgs
	roundTrip(t, in, &args)
	if args.BaseVer != 3 || args.ReadDep != 2 || len(args.Invs) != 2 ||
		args.Invs[0].Method != "m1" || args.Invs[0].Args[1] != "b" {
		t.Errorf("%+v", args)
	}
	var rep ExportReply
	roundTrip(t, &ExportReply{Outcome: OutcomeResolved, NewVersion: 9, Message: "merged"}, &rep)
	if rep.Outcome != OutcomeResolved || rep.NewVersion != 9 || rep.Message != "merged" {
		t.Errorf("%+v", rep)
	}
}

func TestInvokeCreateStatRoundTrip(t *testing.T) {
	var ia InvokeArgs
	roundTrip(t, &InvokeArgs{URN: u, Method: "m", Args: []string{"x"}}, &ia)
	if ia.Method != "m" || len(ia.Args) != 1 {
		t.Errorf("%+v", ia)
	}
	var ir InvokeReply
	roundTrip(t, &InvokeReply{Result: "r", NewVersion: 4, Mutated: true}, &ir)
	if ir.Result != "r" || !ir.Mutated || ir.NewVersion != 4 {
		t.Errorf("%+v", ir)
	}
	var ca CreateArgs
	roundTrip(t, &CreateArgs{Object: []byte{9}}, &ca)
	var cr CreateReply
	roundTrip(t, &CreateReply{Version: 1}, &cr)
	var sa StatArgs
	roundTrip(t, &StatArgs{URN: u}, &sa)
	var sr StatReply
	roundTrip(t, &StatReply{Exists: true, Version: 2, Type: "t", Size: 100}, &sr)
	if !sr.Exists || sr.Size != 100 {
		t.Errorf("%+v", sr)
	}
}

func TestListSubscribeConflictsRoundTrip(t *testing.T) {
	var la ListArgs
	roundTrip(t, &ListArgs{Prefix: u}, &la)
	var lr ListReply
	roundTrip(t, &ListReply{Entries: []ListEntry{{URN: u, Version: 1, Type: "t"}}}, &lr)
	if len(lr.Entries) != 1 || lr.Entries[0].URN != u {
		t.Errorf("%+v", lr)
	}
	var sa SubscribeArgs
	roundTrip(t, &SubscribeArgs{Prefix: u}, &sa)
	var ie InvalidateEvent
	roundTrip(t, &InvalidateEvent{URN: u, NewVersion: 5}, &ie)
	if ie.NewVersion != 5 {
		t.Errorf("%+v", ie)
	}
	var cs ConflictsReply
	roundTrip(t, &ConflictsReply{Conflicts: []ConflictEntry{
		{URN: u, ClientID: "c", BaseVer: 1, AtVer: 2, Message: "m"},
	}}, &cs)
	if len(cs.Conflicts) != 1 || cs.Conflicts[0].Message != "m" {
		t.Errorf("%+v", cs)
	}
}

func TestBadURNRejected(t *testing.T) {
	var b wire.Buffer
	b.PutString("junk")
	b.PutUvarint(0)
	var args ImportArgs
	if err := wire.Unmarshal(b.Bytes(), &args); err == nil {
		t.Error("bad URN accepted")
	}
}

func TestOutcomeString(t *testing.T) {
	if OutcomeCommitted.String() != "committed" ||
		OutcomeResolved.String() != "resolved" ||
		OutcomeConflict.String() != "conflict" {
		t.Error("Outcome strings")
	}
	if Outcome(77).String() != "outcome(77)" {
		t.Error("unknown outcome")
	}
}

// Property: export args round-trip for arbitrary method/arg content.
func TestQuickExportRoundTrip(t *testing.T) {
	f := func(base uint64, methods []string) bool {
		in := &ExportArgs{URN: u, BaseVer: base}
		for _, m := range methods {
			in.Invs = append(in.Invs, rdo.Invocation{Object: u, Method: m, Args: []string{m, m + "2"}})
		}
		var out ExportArgs
		if err := wire.Unmarshal(wire.Marshal(in), &out); err != nil {
			return false
		}
		if out.BaseVer != base || len(out.Invs) != len(in.Invs) {
			return false
		}
		for i := range in.Invs {
			if out.Invs[i].Method != in.Invs[i].Method || len(out.Invs[i].Args) != 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestListCountsCannotOutgrowInput: a listing or repair-queue reply whose
// count claims 2^20 rows, in a few bytes, is refused without sizing a slice
// for the claim (64 MB and more before the cap).
func TestListCountsCannotOutgrowInput(t *testing.T) {
	var b wire.Buffer
	b.PutUvarint(wire.MaxSliceLen)
	for _, m := range []wire.Unmarshaler{&ListReply{}, &ConflictsReply{}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := wire.Unmarshal(b.Bytes(), m)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%T: a count with no rows behind it decoded", m)
		}
		if spent := after.TotalAlloc - before.TotalAlloc; spent > 1<<20 {
			t.Errorf("%T: %d input bytes allocated %d bytes", m, b.Len(), spent)
		}
	}
}

// TestIsLockRefusal: the server's refusal is recognised for the object it
// names, whatever the holder is called, and nothing else is: not another
// object's refusal, not a method error that mentions a check-out, not the
// check-in refusal.
func TestIsLockRefusal(t *testing.T) {
	other := urn.MustParse("urn:rover:h/other")
	for _, holder := range []string{"cli-1", `odd "holder" by x`, ""} {
		if msg := LockRefusal(u, holder).Error(); !IsLockRefusal(msg, u) || IsLockRefusal(msg, other) {
			t.Fatalf("refusal %q: recognised for %s %v, for %s %v", msg, u, IsLockRefusal(msg, u), other, IsLockRefusal(msg, other))
		}
	}
	for _, msg := range []string{
		`server: export: rscript: not checked out`,
		`server: ` + u.String() + ` is checked out by "cli-1", not you`,
		`server: ` + u.String() + ` is checked out by cli-1`,
	} {
		if IsLockRefusal(msg, u) {
			t.Fatalf("%q taken for a lock refusal", msg)
		}
	}
}
