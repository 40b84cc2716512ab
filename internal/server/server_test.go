package server

import (
	"context"
	"strings"
	"testing"
	"time"

	"rover/internal/proto"
	"rover/internal/qrpc"
	"rover/internal/rdo"
	"rover/internal/resolve"
	"rover/internal/stable"
	"rover/internal/transport"
	"rover/internal/urn"
	"rover/internal/wire"
)

// rig drives the server's services through a raw QRPC client over a pipe.
type rig struct {
	t      *testing.T
	srv    *Server
	engine *qrpc.Server
	client *qrpc.Client
	pipe   *transport.Pipe
}

func newRig(t *testing.T) *rig {
	t.Helper()
	engine := qrpc.NewServer(qrpc.ServerConfig{ServerID: "unit"})
	srv, err := New(Config{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := qrpc.NewClient(qrpc.ClientConfig{
		ClientID: "unit-cli",
		Log:      stable.NewMemLog(stable.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	pipe := transport.NewPipe(cli, engine, nil)
	t.Cleanup(func() { pipe.Close() })
	pipe.SetConnected(true)
	return &rig{t: t, srv: srv, engine: engine, client: cli, pipe: pipe}
}

// call performs one service request and returns the raw result.
func (r *rig) call(svc string, msg wire.Marshaler) ([]byte, error) {
	r.t.Helper()
	p, err := r.client.Enqueue(svc, wire.Marshal(msg), qrpc.PriorityNormal, 0)
	if err != nil {
		r.t.Fatal(err)
	}
	r.pipe.Kick()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return p.Wait(ctx)
}

func counter(path string) *rdo.Object {
	o := rdo.New(urn.MustParse("urn:rover:unit/"+path), "counter")
	o.Code = `
		proc get {} { state get count 0 }
		proc add {n} { state set count [expr {[state get count 0] + $n}] }
		proc boom {} { error "method failure" }
		proc spin {} { while {1} {set x 1} }
	`
	return o
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("server without engine accepted")
	}
}

func TestImportAndNotModified(t *testing.T) {
	r := newRig(t)
	obj := counter("c")
	r.srv.Store().Create(obj)

	res, err := r.call(proto.SvcImport, &proto.ImportArgs{URN: obj.URN})
	if err != nil {
		t.Fatal(err)
	}
	var rep proto.ImportReply
	if err := wire.Unmarshal(res, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.NotModified {
		t.Fatal("fresh import NotModified")
	}
	got, err := rdo.Decode(rep.Object)
	if err != nil || got.Version != 1 {
		t.Fatalf("imported %+v, %v", got, err)
	}
	// Revalidation with the current version yields NotModified, no body.
	res, err = r.call(proto.SvcImport, &proto.ImportArgs{URN: obj.URN, HaveVersion: 1})
	if err != nil {
		t.Fatal(err)
	}
	var rep2 proto.ImportReply
	wire.Unmarshal(res, &rep2)
	if !rep2.NotModified || len(rep2.Object) != 0 {
		t.Errorf("revalidation: %+v", rep2)
	}
	// Missing object: application error.
	if _, err := r.call(proto.SvcImport, &proto.ImportArgs{URN: urn.MustParse("urn:rover:unit/ghost")}); err == nil ||
		!strings.Contains(err.Error(), "no such object") {
		t.Errorf("missing import: %v", err)
	}
}

func TestExportPaths(t *testing.T) {
	r := newRig(t)
	obj := counter("c")
	r.srv.Store().Create(obj)
	u := obj.URN

	export := func(base uint64, method string, args ...string) (*proto.ExportReply, error) {
		res, err := r.call(proto.SvcExport, &proto.ExportArgs{
			URN: u, BaseVer: base,
			Invs: []rdo.Invocation{{Object: u, Method: method, Args: args}},
		})
		if err != nil {
			return nil, err
		}
		var rep proto.ExportReply
		if err := wire.Unmarshal(res, &rep); err != nil {
			return nil, err
		}
		return &rep, nil
	}

	// Clean commit.
	rep, err := export(1, "add", "5")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != proto.OutcomeCommitted || rep.NewVersion != 2 {
		t.Fatalf("commit: %+v", rep)
	}
	// Stale base, commuting op: resolved.
	rep, err = export(1, "add", "3")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != proto.OutcomeResolved || rep.NewVersion != 3 {
		t.Fatalf("resolve: %+v", rep)
	}
	got, _ := r.srv.Store().Get(u)
	if v, _ := got.Get("count"); v != "8" {
		t.Errorf("merged count %q", v)
	}
	// Matching base, failing method: application error, no version bump.
	if _, err := export(3, "boom"); err == nil || !strings.Contains(err.Error(), "method failure") {
		t.Fatalf("boom: %v", err)
	}
	if v, _ := r.srv.Store().Version(u); v != 3 {
		t.Errorf("version after failed export: %d", v)
	}
	// Base from the future: conflict.
	rep, err = export(99, "add", "1")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != proto.OutcomeConflict || !strings.Contains(rep.Message, "ahead of server") {
		t.Fatalf("future base: %+v", rep)
	}
	if len(r.srv.Conflicts()) != 1 {
		t.Errorf("repair queue: %+v", r.srv.Conflicts())
	}
	// Empty exports are rejected.
	if _, err := r.call(proto.SvcExport, &proto.ExportArgs{URN: u, BaseVer: 3}); err == nil {
		t.Error("empty export accepted")
	}
}

func TestExportConflictRejectedByResolver(t *testing.T) {
	engine := qrpc.NewServer(qrpc.ServerConfig{})
	srv, err := New(Config{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	srv.Resolvers().Register("counter", resolve.Reject)
	cli, _ := qrpc.NewClient(qrpc.ClientConfig{ClientID: "c", Log: stable.NewMemLog(stable.Options{})})
	pipe := transport.NewPipe(cli, engine, nil)
	defer pipe.Close()
	pipe.SetConnected(true)
	obj := counter("c")
	srv.Store().Create(obj)
	// Bump to version 2 so base 1 conflicts.
	w, _ := srv.Store().Get(obj.URN)
	srv.Store().Commit(w, 1)

	p, _ := cli.Enqueue(proto.SvcExport, wire.Marshal(&proto.ExportArgs{
		URN: obj.URN, BaseVer: 1,
		Invs: []rdo.Invocation{{Object: obj.URN, Method: "add", Args: []string{"1"}}},
	}), qrpc.PriorityNormal, 0)
	pipe.Kick()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := p.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var rep proto.ExportReply
	wire.Unmarshal(res, &rep)
	if rep.Outcome != proto.OutcomeConflict {
		t.Fatalf("outcome %v", rep.Outcome)
	}
	if len(srv.Conflicts()) != 1 {
		t.Error("conflict not queued")
	}
	// The reply carries the server's state so the client converges.
	got, err := rdo.Decode(rep.Object)
	if err != nil || got.Version != 2 {
		t.Errorf("conflict reply object: %+v %v", got, err)
	}
}

// TestConflictQueue: both ways an export ends in the repair queue — a
// resolver's refusal and a base version from the future — queue one entry
// each, in order. Conflicts hands out a copy, and the conflicts service
// reads the same queue.
func TestConflictQueue(t *testing.T) {
	r := newRig(t)
	r.srv.Resolvers().Register("counter", resolve.Reject)
	obj := counter("c")
	r.srv.Store().Create(obj)
	u := obj.URN
	w, _ := r.srv.Store().Get(u)
	r.srv.Store().Commit(w, 1) // version 2: base 1 is stale
	for _, base := range []uint64{1, 99} {
		res, err := r.call(proto.SvcExport, &proto.ExportArgs{URN: u, BaseVer: base,
			Invs: []rdo.Invocation{{Object: u, Method: "add", Args: []string{"1"}}}})
		if err != nil {
			t.Fatal(err)
		}
		var rep proto.ExportReply
		if err := wire.Unmarshal(res, &rep); err != nil || rep.Outcome != proto.OutcomeConflict {
			t.Fatalf("base %d: %+v %v", base, rep, err)
		}
	}
	cs := r.srv.Conflicts()
	if len(cs) != 2 || cs[0].BaseVer != 1 || cs[1].BaseVer != 99 {
		t.Fatalf("queue %+v", cs)
	}
	if c := cs[0]; c.URN != u || c.ClientID != "unit-cli" || c.AtVer != 2 || len(c.Invs) != 1 {
		t.Fatalf("entry %+v", c)
	}
	cs[0].Message = "edited"
	if r.srv.Conflicts()[0].Message == "edited" {
		t.Fatal("Conflicts returned the queue itself, not a copy")
	}
	res, err := r.call(proto.SvcConflicts, &proto.StatArgs{URN: u})
	if err != nil {
		t.Fatal(err)
	}
	var cr proto.ConflictsReply
	if err := wire.Unmarshal(res, &cr); err != nil || len(cr.Conflicts) != 2 || cr.Conflicts[1].BaseVer != 99 {
		t.Fatalf("conflicts service: %+v %v", cr, err)
	}
}

func TestConflictReplyCarriesPristineState(t *testing.T) {
	// Regression: a rejected export's reply must carry the server's
	// committed state, NOT the resolver's working copy — a rejecting
	// replay may have partially applied the batch before the failing op,
	// and clients adopt the reply object as committed truth. Found by the
	// convergence fuzzer (internal/access TestQuickConvergence).
	r := newRig(t)
	obj := rdo.New(urn.MustParse("urn:rover:unit/slots"), "slots")
	obj.Code = `
		proc book {slot who} {
			if {[state exists $slot]} { error "taken" }
			state set $slot $who
		}
	`
	r.srv.Store().Create(obj)
	u := obj.URN
	// Commit a booking so the batch below conflicts (stale base) and its
	// second op fails mid-replay.
	w, _ := r.srv.Store().Get(u)
	w.Set("sX", "someone")
	r.srv.Store().Commit(w, 1)

	res, err := r.call(proto.SvcExport, &proto.ExportArgs{
		URN: u, BaseVer: 1,
		Invs: []rdo.Invocation{
			{Object: u, Method: "book", Args: []string{"sY", "me"}}, // applies to the clone...
			{Object: u, Method: "book", Args: []string{"sX", "me"}}, // ...then this fails
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var rep proto.ExportReply
	wire.Unmarshal(res, &rep)
	if rep.Outcome != proto.OutcomeConflict {
		t.Fatalf("outcome %v", rep.Outcome)
	}
	replyObj, err := rdo.Decode(rep.Object)
	if err != nil {
		t.Fatal(err)
	}
	if _, tainted := replyObj.Get("sY"); tainted {
		t.Fatal("conflict reply leaked partially-replayed state (sY)")
	}
	server, _ := r.srv.Store().Get(u)
	if !rdo.Equal(replyObj, server) {
		t.Errorf("reply object != committed state:\n reply %v\n store %v", replyObj.State, server.State)
	}
}

func TestInvokePaths(t *testing.T) {
	r := newRig(t)
	obj := counter("c")
	r.srv.Store().Create(obj)
	u := obj.URN

	invoke := func(method string, args ...string) (*proto.InvokeReply, error) {
		res, err := r.call(proto.SvcInvoke, &proto.InvokeArgs{URN: u, Method: method, Args: args})
		if err != nil {
			return nil, err
		}
		var rep proto.InvokeReply
		if err := wire.Unmarshal(res, &rep); err != nil {
			return nil, err
		}
		return &rep, nil
	}
	rep, err := invoke("add", "4")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Mutated || rep.NewVersion != 2 {
		t.Fatalf("mutating invoke: %+v", rep)
	}
	rep, err = invoke("get")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mutated || rep.Result != "4" || rep.NewVersion != 2 {
		t.Fatalf("read invoke: %+v", rep)
	}
	if _, err := invoke("nosuch"); err == nil {
		t.Error("unknown method succeeded")
	}
	// Runaway method: the restricted budget kills it.
	if _, err := invoke("spin"); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("spin: %v", err)
	}
}

func TestCreatePaths(t *testing.T) {
	r := newRig(t)
	obj := counter("fresh")

	res, err := r.call(proto.SvcCreate, &proto.CreateArgs{Object: obj.Encode()})
	if err != nil {
		t.Fatal(err)
	}
	var rep proto.CreateReply
	wire.Unmarshal(res, &rep)
	if rep.Version != 1 {
		t.Fatalf("create: %+v", rep)
	}
	// Identical duplicate create is idempotent.
	if _, err := r.call(proto.SvcCreate, &proto.CreateArgs{Object: obj.Encode()}); err != nil {
		t.Errorf("idempotent create: %v", err)
	}
	// Different code at the same URN is an error.
	obj2 := rdo.New(obj.URN, "counter")
	obj2.Code = `proc other {} {}`
	if _, err := r.call(proto.SvcCreate, &proto.CreateArgs{Object: obj2.Encode()}); err == nil {
		t.Error("conflicting create accepted")
	}
	// Code that fails to load is rejected outright.
	bad := rdo.New(urn.MustParse("urn:rover:unit/bad"), "t")
	bad.Code = `proc broken {} {unclosed`
	if _, err := r.call(proto.SvcCreate, &proto.CreateArgs{Object: bad.Encode()}); err == nil {
		t.Error("unloadable code accepted")
	}
}

func TestStatListConflictsServices(t *testing.T) {
	r := newRig(t)
	r.srv.Store().Create(counter("a/1"))
	r.srv.Store().Create(counter("a/2"))

	res, _ := r.call(proto.SvcStat, &proto.StatArgs{URN: urn.MustParse("urn:rover:unit/a/1")})
	var st proto.StatReply
	wire.Unmarshal(res, &st)
	if !st.Exists || st.Type != "counter" || st.Size == 0 {
		t.Errorf("stat: %+v", st)
	}
	res, _ = r.call(proto.SvcList, &proto.ListArgs{Prefix: urn.MustParse("urn:rover:unit/a")})
	var lr proto.ListReply
	wire.Unmarshal(res, &lr)
	if len(lr.Entries) != 2 {
		t.Errorf("list: %+v", lr.Entries)
	}
	res, _ = r.call(proto.SvcConflicts, &proto.StatArgs{URN: urn.MustParse("urn:rover:unit/a")})
	var cr proto.ConflictsReply
	if err := wire.Unmarshal(res, &cr); err != nil || len(cr.Conflicts) != 0 {
		t.Errorf("conflicts: %+v %v", cr, err)
	}
}

func TestGetStateHostCommand(t *testing.T) {
	r := newRig(t)
	cfg := rdo.New(urn.MustParse("urn:rover:unit/config"), "config")
	cfg.Set("limit", "7")
	r.srv.Store().Create(cfg)
	worker := rdo.New(urn.MustParse("urn:rover:unit/worker"), "w")
	worker.Code = `
		proc ok {} { rover.getstate urn:rover:unit/config limit }
		proc def {} { rover.getstate urn:rover:unit/config missing fallback }
		proc missing {} { rover.getstate urn:rover:unit/config missing }
		proc badurn {} { rover.getstate notaurn k }
		proc noobj {} { rover.getstate urn:rover:unit/ghost k }
	`
	r.srv.Store().Create(worker)
	invoke := func(m string) (string, error) {
		res, err := r.call(proto.SvcInvoke, &proto.InvokeArgs{URN: worker.URN, Method: m})
		if err != nil {
			return "", err
		}
		var rep proto.InvokeReply
		wire.Unmarshal(res, &rep)
		return rep.Result, nil
	}
	if v, err := invoke("ok"); err != nil || v != "7" {
		t.Errorf("ok: %q %v", v, err)
	}
	if v, err := invoke("def"); err != nil || v != "fallback" {
		t.Errorf("def: %q %v", v, err)
	}
	for _, m := range []string{"missing", "badurn", "noobj"} {
		if _, err := invoke(m); err == nil {
			t.Errorf("%s succeeded", m)
		}
	}
}

// TestCreateWithHostileCodeIsRefused: a Create whose code cannot load is an
// application error for that request alone — here code that asks for a
// repetition whose length overflows an int, which once panicked the
// server — and the next request is served.
func TestCreateWithHostileCodeIsRefused(t *testing.T) {
	r := newRig(t)
	bad := rdo.New(urn.MustParse("urn:rover:unit/hostile"), "counter")
	bad.Code = `string repeat ab 4611686018427387905`
	if _, err := r.call(proto.SvcCreate, &proto.CreateArgs{Object: bad.Encode()}); err == nil ||
		!strings.Contains(err.Error(), "result too large") {
		t.Fatalf("create with hostile code: %v", err)
	}
	if _, err := r.srv.Store().Get(bad.URN); err == nil {
		t.Error("the refused object was stored")
	}
	good := counter("after")
	if _, err := r.call(proto.SvcCreate, &proto.CreateArgs{Object: good.Encode()}); err != nil {
		t.Fatalf("create after the refused one: %v", err)
	}
	if _, err := r.call(proto.SvcImport, &proto.ImportArgs{URN: good.URN}); err != nil {
		t.Fatalf("import after the refused create: %v", err)
	}
}
