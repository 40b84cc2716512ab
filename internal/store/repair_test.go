package store_test

// The repair queue is the server's, not a Backend's: an export no resolver
// can merge is queued at the server and leaves nothing behind in the store.
// These checks drive conflicting exports through a server built on each
// backend and pin both halves of that split.

import (
	"context"
	"testing"
	"time"

	"rover/internal/proto"
	"rover/internal/qrpc"
	"rover/internal/rdo"
	"rover/internal/resolve"
	"rover/internal/server"
	"rover/internal/stable"
	"rover/internal/store"
	"rover/internal/transport"
	"rover/internal/urn"
	"rover/internal/wire"
)

// conflictedExports serves st from a server whose resolver rejects every
// conflict, commits the object once so base 1 is stale, and sends one
// export per base. Each must come back a conflict. It returns the object's
// URN and the server's repair queue.
func conflictedExports(t *testing.T, st store.Backend, bases ...uint64) (urn.URN, []server.Conflict) {
	t.Helper()
	engine := qrpc.NewServer(qrpc.ServerConfig{ServerID: "repair"})
	srv, err := server.New(server.Config{Engine: engine, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	srv.Resolvers().Register("t", resolve.Reject)
	cli, err := qrpc.NewClient(qrpc.ClientConfig{ClientID: "repair-cli", Log: stable.NewMemLog(stable.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	pipe := transport.NewPipe(cli, engine, nil)
	t.Cleanup(func() { pipe.Close() })
	pipe.SetConnected(true)

	o := confObj("q")
	o.Code = `proc add {n} { state set n [expr {[state get n 0] + $n}] }`
	if err := st.Create(o); err != nil {
		t.Fatal(err)
	}
	w, _ := st.Get(o.URN)
	if _, err := st.Commit(w, 1); err != nil {
		t.Fatal(err)
	}
	for _, base := range bases {
		args := &proto.ExportArgs{URN: o.URN, BaseVer: base,
			Invs: []rdo.Invocation{{Object: o.URN, Method: "add", Args: []string{"1"}}}}
		p, err := cli.Enqueue(proto.SvcExport, wire.Marshal(args), qrpc.PriorityNormal, 0)
		if err != nil {
			t.Fatal(err)
		}
		pipe.Kick()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		res, err := p.Wait(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		var rep proto.ExportReply
		if err := wire.Unmarshal(res, &rep); err != nil || rep.Outcome != proto.OutcomeConflict {
			t.Fatalf("base %d: %+v %v", base, rep, err)
		}
	}
	return o.URN, srv.Conflicts()
}

// untouched checks that the conflicted exports committed nothing.
func untouched(t *testing.T, st store.Backend, u urn.URN) {
	t.Helper()
	got, err := st.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 2 {
		t.Fatalf("store at v%d after conflicts, want v2", got.Version)
	}
	if _, ok := got.Get("n"); ok {
		t.Fatal("a conflicted export changed the stored state")
	}
}

func TestConflictQueue(t *testing.T) {
	st := store.New()
	u, cs := conflictedExports(t, st, 1, 99)
	if len(cs) != 2 || cs[0].BaseVer != 1 || cs[1].BaseVer != 99 {
		t.Fatalf("queue %+v", cs)
	}
	if c := cs[0]; c.URN != u || c.ClientID != "repair-cli" || c.AtVer != 2 || len(c.Invs) != 1 {
		t.Fatalf("entry %+v", c)
	}
	untouched(t, st, u)
}

func TestConformanceConflictQueue(t *testing.T) {
	forEachBackend(t, func(t *testing.T, st store.Backend) {
		u, cs := conflictedExports(t, st, 1)
		if len(cs) != 1 || cs[0].URN != u || cs[0].ClientID != "repair-cli" {
			t.Fatalf("queue %+v", cs)
		}
		if v, _ := st.Version(u); cs[0].AtVer != v {
			t.Fatalf("entry at v%d, store at v%d", cs[0].AtVer, v)
		}
		untouched(t, st, u)
	})
}
