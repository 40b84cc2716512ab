package server

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"rover/internal/proto"
	"rover/internal/qrpc"
	"rover/internal/rdo"
	"rover/internal/resolve"
	"rover/internal/store"
	"rover/internal/store/disk"
	"rover/internal/wire"
)

// backends runs fn against a server over each store backend.
func backends(t *testing.T, fn func(t *testing.T, srv *Server)) {
	t.Run("memory", func(t *testing.T) {
		fn(t, newServerOn(t, store.New(), nil))
	})
	t.Run("disk", func(t *testing.T) {
		st, err := disk.Open(disk.Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		fn(t, newServerOn(t, st, nil))
	})
}

func newServerOn(t *testing.T, st store.Backend, reg *resolve.Registry) *Server {
	t.Helper()
	srv, err := New(Config{Engine: qrpc.NewServer(qrpc.ServerConfig{ServerID: "unit"}), Store: st, Resolvers: reg})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// export calls the export handler directly, as the engine would.
func export(t *testing.T, srv *Server, clientID string, args *proto.ExportArgs) *proto.ExportReply {
	t.Helper()
	res, err := srv.handleExport(clientID, qrpc.Request{Service: proto.SvcExport, Args: wire.Marshal(args)})
	if err != nil {
		t.Fatal(err)
	}
	var rep proto.ExportReply
	if err := wire.Unmarshal(res, &rep); err != nil {
		t.Fatal(err)
	}
	return &rep
}

// expectAfter is what a client computes before exporting: the checksum of
// its working copy (base with the ops applied) stamped base.Version+1.
func expectAfter(t *testing.T, base *rdo.Object, invs []rdo.Invocation) uint32 {
	t.Helper()
	work := base.Clone()
	env, err := rdo.NewEnv(work, rdo.EnvOptions{Sandbox: rdo.Trusted})
	if err != nil {
		t.Fatal(err)
	}
	for _, inv := range invs {
		if _, err := env.Invoke(inv.Method, inv.Args...); err != nil {
			t.Fatal(err)
		}
	}
	work.Version = base.Version + 1
	return proto.ObjectCheck(work.Encode())
}

// requireStoreObject: whenever a reply carries an object it is the store's
// object AT rep.NewVersion, byte for byte.
func requireStoreObject(t *testing.T, srv *Server, rep *proto.ExportReply) {
	t.Helper()
	got, err := rdo.Decode(rep.Object)
	if err != nil {
		t.Fatalf("reply object: %v", err)
	}
	if got.Version != rep.NewVersion {
		t.Fatalf("reply object at version %d, NewVersion %d", got.Version, rep.NewVersion)
	}
	cur, err := srv.Store().Get(got.URN)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version == rep.NewVersion && !bytes.Equal(cur.Encode(), rep.Object) {
		t.Fatalf("reply object differs from the store's at version %d", rep.NewVersion)
	}
}

func TestLeanExportReply(t *testing.T) {
	backends(t, func(t *testing.T, srv *Server) {
		obj := counter("lean")
		srv.Store().Create(obj)
		u := obj.URN
		add := func(base uint64, n string) []rdo.Invocation {
			return []rdo.Invocation{{Object: u, Method: "add", Args: []string{n}, BaseVer: base}}
		}
		cur := func() *rdo.Object {
			o, err := srv.Store().Get(u)
			if err != nil {
				t.Fatal(err)
			}
			return o
		}

		// The client predicted the committed state: no object comes back.
		invs := add(1, "5")
		check := expectAfter(t, cur(), invs)
		rep := export(t, srv, "cli", &proto.ExportArgs{URN: u, BaseVer: 1, Invs: invs, HasExpect: true, Expect: check})
		if rep.Outcome != proto.OutcomeCommitted || rep.NewVersion != 2 || len(rep.Object) != 0 {
			t.Fatalf("predicted commit: %+v", rep)
		}
		if got := srv.Stats().LeanReplies; got != 1 {
			t.Fatalf("LeanReplies = %d, want 1", got)
		}
		if proto.ObjectCheck(cur().Encode()) != check {
			t.Fatal("store holds something other than what the checksum promised")
		}

		// A redelivery of that export (its reply was lost) is recognized
		// as committed and, the object not having moved, is still lean.
		rep = export(t, srv, "cli", &proto.ExportArgs{URN: u, BaseVer: 1, Invs: invs, HasExpect: true, Expect: check})
		if rep.Outcome != proto.OutcomeCommitted || rep.NewVersion != 2 || len(rep.Object) != 0 {
			t.Fatalf("redelivered export: %+v", rep)
		}
		if st := srv.Stats(); st.DuplicateExports != 1 || st.LeanReplies != 2 {
			t.Fatalf("after redelivery: %+v", st)
		}

		// A diverged prediction costs nothing but the bytes: the commit
		// stands and the object rides along.
		invs2 := add(2, "1")
		rep = export(t, srv, "cli", &proto.ExportArgs{URN: u, BaseVer: 2, Invs: invs2, HasExpect: true, Expect: check})
		if rep.Outcome != proto.OutcomeCommitted || rep.NewVersion != 3 {
			t.Fatalf("mispredicted commit: %+v", rep)
		}
		requireStoreObject(t, srv, rep)

		// The first export redelivered NOW finds the object moved on: still
		// "committed", but the client's copy is stale, so it gets the
		// current object.
		rep = export(t, srv, "cli", &proto.ExportArgs{URN: u, BaseVer: 1, Invs: invs, HasExpect: true, Expect: check})
		if rep.Outcome != proto.OutcomeCommitted || rep.NewVersion != 3 {
			t.Fatalf("late redelivery: %+v", rep)
		}
		requireStoreObject(t, srv, rep)

		// No trailer, no lean reply — whatever the state.
		invs3 := add(3, "1")
		rep = export(t, srv, "cli", &proto.ExportArgs{URN: u, BaseVer: 3, Invs: invs3})
		if rep.Outcome != proto.OutcomeCommitted || rep.NewVersion != 4 {
			t.Fatalf("trailer-less commit: %+v", rep)
		}
		requireStoreObject(t, srv, rep)

		// Resolved: the server merged onto a state the client never saw.
		// Even a checksum that happens to match the result is ignored.
		stale := add(1, "7")
		merged := cur()
		merged.Set("count", "14")
		merged.Version = 5
		rep = export(t, srv, "other", &proto.ExportArgs{URN: u, BaseVer: 1, Invs: stale,
			HasExpect: true, Expect: proto.ObjectCheck(merged.Encode())})
		if rep.Outcome != proto.OutcomeResolved || rep.NewVersion != 5 {
			t.Fatalf("resolved: %+v", rep)
		}
		requireStoreObject(t, srv, rep)

		// Conflict (base from the future), checksum of the pristine state.
		rep = export(t, srv, "other", &proto.ExportArgs{URN: u, BaseVer: 99, Invs: add(99, "1"),
			HasExpect: true, Expect: proto.ObjectCheck(cur().Encode())})
		if rep.Outcome != proto.OutcomeConflict || rep.NewVersion != 5 {
			t.Fatalf("conflict: %+v", rep)
		}
		requireStoreObject(t, srv, rep)

		if got := srv.Stats().LeanReplies; got != 2 {
			t.Fatalf("LeanReplies = %d after the carrying replies, want 2", got)
		}
	})
}

// TestLeanExportRejectedConflict: a resolver's rejection carries the
// pristine object even if the client sent a checksum matching it.
func TestLeanExportRejectedConflict(t *testing.T) {
	srv := newServerOn(t, store.New(), resolve.NewRegistry(resolve.Reject))
	obj := counter("rej")
	srv.Store().Create(obj)
	w, _ := srv.Store().Get(obj.URN)
	srv.Store().Commit(w, 1)
	pristine, _ := srv.Store().Get(obj.URN)
	rep := export(t, srv, "cli", &proto.ExportArgs{URN: obj.URN, BaseVer: 1,
		Invs:      []rdo.Invocation{{Object: obj.URN, Method: "add", Args: []string{"1"}, BaseVer: 1}},
		HasExpect: true, Expect: proto.ObjectCheck(pristine.Encode())})
	if rep.Outcome != proto.OutcomeConflict {
		t.Fatalf("outcome %v", rep.Outcome)
	}
	requireStoreObject(t, srv, rep)
	if got := srv.Stats().LeanReplies; got != 0 {
		t.Fatalf("LeanReplies = %d", got)
	}
}

// TestLeanExportRedeliveredAtReplica: after a failover the export lands on
// the peer, which holds the commit as installed operations (what
// replication applies) rather than as something it executed. It answers
// like the primary would: committed, and lean while the object has not
// moved.
func TestLeanExportRedeliveredAtReplica(t *testing.T) {
	backends(t, func(t *testing.T, replica *Server) {
		obj := counter("fo")
		replica.Store().Create(obj)
		u := obj.URN
		invs := []rdo.Invocation{{Object: u, Method: "add", Args: []string{"5"}, BaseVer: 1}}
		base, _ := replica.Store().Get(u)
		check := expectAfter(t, base, invs)
		// The primary committed the export and streamed it here.
		applied := base.Clone()
		applied.Set("count", "5")
		if _, err := replica.Store().InstallOps(applied, 1, invs, "mobile"); err != nil {
			t.Fatal(err)
		}
		args := &proto.ExportArgs{URN: u, BaseVer: 1, Invs: invs, HasExpect: true, Expect: check}
		rep := export(t, replica, "mobile", args)
		if rep.Outcome != proto.OutcomeCommitted || rep.NewVersion != 2 || len(rep.Object) != 0 {
			t.Fatalf("failed-over redelivery: %+v", rep)
		}
		if st := replica.Stats(); st.DuplicateExports != 1 || st.LeanReplies != 1 {
			t.Fatalf("stats %+v", st)
		}
		// Somebody else moves the object before a second redelivery.
		export(t, replica, "other", &proto.ExportArgs{URN: u, BaseVer: 2,
			Invs: []rdo.Invocation{{Object: u, Method: "add", Args: []string{"1"}, BaseVer: 2}}})
		rep = export(t, replica, "mobile", args)
		if rep.Outcome != proto.OutcomeCommitted || rep.NewVersion != 3 {
			t.Fatalf("redelivery after the object moved: %+v", rep)
		}
		requireStoreObject(t, replica, rep)
		if st := replica.Stats(); st.DuplicateExports != 2 || st.LeanReplies != 1 {
			t.Fatalf("stats %+v", st)
		}
	})
}

// TestExportExpectReplyIsCommittedObject: with exporters racing on one
// object, the object in each reply is the one THAT export committed — the
// version it names, never a later one another exporter produced between
// the commit and the reply.
func TestExportExpectReplyIsCommittedObject(t *testing.T) {
	backends(t, func(t *testing.T, srv *Server) {
		obj := counter("race")
		srv.Store().Create(obj)
		u := obj.URN
		const clients, rounds = 4, 25
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				id := fmt.Sprintf("cli-%d", c)
				for i := 0; i < rounds; i++ {
					ver, _ := srv.Store().Version(u)
					args := &proto.ExportArgs{URN: u, BaseVer: ver, HasExpect: i%2 == 0,
						Invs: []rdo.Invocation{{Object: u, Method: "add", Args: []string{"1"}, BaseVer: ver}}}
					res, err := srv.handleExport(id, qrpc.Request{Args: wire.Marshal(args)})
					if err != nil {
						errs <- err
						return
					}
					var rep proto.ExportReply
					if err := wire.Unmarshal(res, &rep); err != nil {
						errs <- err
						return
					}
					got, err := rdo.Decode(rep.Object)
					if err != nil || got.Version != rep.NewVersion {
						errs <- fmt.Errorf("reply names version %d, carries %+v (%v)", rep.NewVersion, got, err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		final, _ := srv.Store().Get(u)
		if v, _ := final.Get("count"); v != fmt.Sprint(clients*rounds) {
			t.Fatalf("count %q after %d commuting adds", v, clients*rounds)
		}
	})
}

// goldenExportReply is the parent commit's reply to the export below
// (counter object of server_test.go, `add 5` on version 1): a client that
// sends no trailer must keep getting exactly these bytes.
const goldenExportReply = "0002e1011075726e3a726f7665723a756e69742f6307636f756e74657202bc010a090970726f6320676574207b7d207b2073746174652067657420636f756e742030207d0a090970726f6320616464207b6e7d207b2073746174652073657420636f756e74205b65787072207b5b73746174652067657420636f756e7420305d202b20246e7d5d207d0a090970726f6320626f6f6d207b7d207b206572726f7220226d6574686f64206661696c75726522207d0a090970726f63207370696e207b7d207b207768696c65207b317d207b736574207820317d207d0a090105636f756e74013500"

func TestExportExpectAbsentIsOldProtocol(t *testing.T) {
	r := newRig(t)
	obj := counter("c")
	r.srv.Store().Create(obj)
	u := obj.URN
	res, err := r.call(proto.SvcExport, &proto.ExportArgs{URN: u, BaseVer: 1, ReadDep: 1,
		Invs: []rdo.Invocation{{Object: u, Method: "add", Args: []string{"5"}, BaseVer: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(res); got != goldenExportReply {
		t.Fatalf("reply to a trailer-less export changed:\n got %s\nwant %s", got, goldenExportReply)
	}
}
