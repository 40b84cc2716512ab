package server

import (
	"errors"
	"sync/atomic"
	"testing"

	"rover/internal/proto"
	"rover/internal/qrpc"
	"rover/internal/rdo"
	"rover/internal/store"
	"rover/internal/store/disk"
	"rover/internal/urn"
	"rover/internal/wire"
)

// countingStore counts the commits the server attempts: one per replay of
// the operations it was sent.
type countingStore struct {
	store.Backend
	commits atomic.Int32
}

func (c *countingStore) CommitOps(obj *rdo.Object, expect uint64, invs []rdo.Invocation) (uint64, error) {
	c.commits.Add(1)
	return c.Backend.CommitOps(obj, expect, invs)
}

func (c *countingStore) CommitOpsBy(obj *rdo.Object, expect uint64, invs []rdo.Invocation, src string) (uint64, error) {
	c.commits.Add(1)
	return c.Backend.CommitOpsBy(obj, expect, invs, src)
}

// TestStoreErrorIsNotARace: only a lost commit race is retried on fresh
// state. An export or an invoke whose commit fails for another reason — a
// closed disk store here — returns that error after the one replay, not
// sixteen replays and a "starved by concurrent commits".
func TestStoreErrorIsNotARace(t *testing.T) {
	ds, err := disk.Open(disk.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cs := &countingStore{Backend: ds}
	srv, err := New(Config{Engine: qrpc.NewServer(qrpc.ServerConfig{ServerID: "unit"}), Store: cs})
	if err != nil {
		t.Fatal(err)
	}
	o := counter("closed")
	if err := ds.Create(o); err != nil {
		t.Fatal(err)
	}
	// Create left the object resident, so Get still serves it once closed.
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	inv := rdo.Invocation{Object: o.URN, Method: "add", Args: []string{"1"}, BaseVer: 1}
	export := proto.ExportArgs{URN: o.URN, BaseVer: 1, Invs: []rdo.Invocation{inv}}
	if _, err := srv.handleExport("c", qrpc.Request{Args: wire.Marshal(&export)}); !errors.Is(err, disk.ErrClosed) {
		t.Errorf("export after Close: %v, want an error wrapping disk.ErrClosed", err)
	}
	if n := cs.commits.Swap(0); n != 1 {
		t.Errorf("export after Close replayed %d times, want 1", n)
	}
	invoke := proto.InvokeArgs{URN: o.URN, Method: "add", Args: []string{"1"}}
	if _, err := srv.handleInvoke("c", qrpc.Request{Args: wire.Marshal(&invoke)}); !errors.Is(err, disk.ErrClosed) {
		t.Errorf("invoke after Close: %v, want an error wrapping disk.ErrClosed", err)
	}
	if n := cs.commits.Load(); n != 1 {
		t.Errorf("invoke after Close ran %d times, want 1", n)
	}
}

// unreadableHistory is a store whose history cannot be read back, as a disk
// store's is when a record in the chain is damaged.
type unreadableHistory struct{ *countingStore }

var errHistory = errors.New("history record does not read back")

func (u unreadableHistory) WasCommitted(urn.URN, uint64, []rdo.Invocation, string) (bool, error) {
	return false, errHistory
}

// TestUnreadableHistoryRefusesExport: an export whose base is behind the
// store may be a redelivery of one that already committed. When the store
// cannot read the history that would tell, the export is refused with that
// error: answering it as new would send it to the resolver and could run it
// a second time.
func TestUnreadableHistoryRefusesExport(t *testing.T) {
	cs := &countingStore{Backend: store.New()}
	srv, err := New(Config{Engine: qrpc.NewServer(qrpc.ServerConfig{ServerID: "unit"}), Store: unreadableHistory{cs}})
	if err != nil {
		t.Fatal(err)
	}
	o := counter("redelivered")
	if err := cs.Create(o); err != nil {
		t.Fatal(err)
	}
	inv := rdo.Invocation{Object: o.URN, Method: "add", Args: []string{"1"}, BaseVer: 1}
	export := proto.ExportArgs{URN: o.URN, BaseVer: 1, Invs: []rdo.Invocation{inv}}
	if _, err := srv.handleExport("c", qrpc.Request{Args: wire.Marshal(&export)}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.handleExport("c", qrpc.Request{Args: wire.Marshal(&export)}); !errors.Is(err, errHistory) {
		t.Fatalf("redelivered export over an unreadable history: %v, want an error wrapping %v", err, errHistory)
	}
	if n := cs.commits.Load(); n != 1 {
		t.Errorf("the export committed %d times, want once", n)
	}
	if v, _ := cs.Version(o.URN); v != 2 {
		t.Errorf("object at v%d after the refused redelivery, want v2", v)
	}
}
