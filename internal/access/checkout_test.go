package access

import (
	"strings"
	"testing"

	"rover/internal/qrpc"
	"rover/internal/rdo"
	"rover/internal/urn"
)

// Checkout/checkin: the pessimistic (Cedar-style) alternative to
// optimistic conflict resolution.

func TestCheckoutExcludesOtherWriters(t *testing.T) {
	engine, srv := newServerRig(t)
	srv.Store().Create(counterObj("shared"))
	u := urn.MustParse("urn:rover:home/shared")
	r1 := newRig(t, "cli-1", engine, srv, nil)
	// Client 2 manages exports manually so the test controls when its
	// update hits the lock.
	r2 := newRig(t, "cli-2", engine, srv, func(c *Config) { c.AutoExport = false })
	wait(t, r1.am.Import(u, ImportOptions{}))
	wait(t, r2.am.Import(u, ImportOptions{}))

	// Client 1 checks out.
	res := wait(t, r1.am.Checkout(u, false, qrpc.PriorityNormal))
	if !res.Granted || res.Holder != "" {
		t.Fatalf("checkout: %+v", res)
	}
	if locks := srv.Locks(); locks[u] != "cli-1" {
		t.Fatalf("lock table: %v", locks)
	}

	// Client 2 cannot check out, export, or invoke remotely.
	res2 := wait(t, r2.am.Checkout(u, false, qrpc.PriorityNormal))
	if res2.Granted || res2.Holder != "cli-1" {
		t.Fatalf("second checkout: %+v", res2)
	}
	r2.am.Invoke(u, "add", "5")
	f, err := r2.am.Export(u, qrpc.PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	if err := waitErr(t, f); err == nil || !strings.Contains(err.Error(), "checked out") {
		t.Fatalf("export under lock: %v", err)
	}
	if err := waitErr(t, r2.am.InvokeRemote(u, "add", []string{"1"}, qrpc.PriorityNormal)); err == nil ||
		!strings.Contains(err.Error(), "checked out") {
		t.Fatalf("remote invoke under lock: %v", err)
	}
	// Reads remain allowed.
	if _, err := r2.am.Import(u, ImportOptions{Revalidate: true}).Wait(t.Context()); err != nil {
		t.Fatalf("import under lock: %v", err)
	}

	// The holder works normally.
	r1.am.Invoke(u, "add", "3")
	waitUntil(t, func() bool { return !r1.am.Tentative(u) })
	got, _ := srv.Store().Get(u)
	if v, _ := got.Get("count"); v != "3" {
		t.Errorf("holder's update: %q", v)
	}

	// Check in; client 2's queued work can now land.
	wait(t, r1.am.Checkin(u, qrpc.PriorityNormal))
	if len(srv.Locks()) != 0 {
		t.Fatal("lock not released")
	}
	f2, err := r2.am.Export(u, qrpc.PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	wait(t, f2)
	got, _ = srv.Store().Get(u)
	if v, _ := got.Get("count"); v != "8" {
		t.Errorf("post-release merge: %q", v)
	}
}

func TestCheckoutForceBreak(t *testing.T) {
	engine, srv := newServerRig(t)
	srv.Store().Create(counterObj("shared"))
	u := urn.MustParse("urn:rover:home/shared")
	r1 := newRig(t, "cli-1", engine, srv, nil)
	r2 := newRig(t, "cli-2", engine, srv, nil)

	if res := wait(t, r1.am.Checkout(u, false, qrpc.PriorityNormal)); !res.Granted {
		t.Fatal("initial checkout failed")
	}
	// cli-1 vanishes (its laptop fell in a lake); cli-2 force-breaks.
	res := wait(t, r2.am.Checkout(u, true, qrpc.PriorityNormal))
	if !res.Granted || res.Holder != "cli-1" {
		t.Fatalf("force break: %+v", res)
	}
	if srv.Locks()[u] != "cli-2" {
		t.Fatalf("lock table: %v", srv.Locks())
	}
}

func TestCheckoutValidation(t *testing.T) {
	engine, srv := newServerRig(t)
	srv.Store().Create(counterObj("shared"))
	u := urn.MustParse("urn:rover:home/shared")
	r1 := newRig(t, "cli-1", engine, srv, nil)
	r2 := newRig(t, "cli-2", engine, srv, nil)

	// Checkout of a missing object fails.
	if err := waitErr(t, r1.am.Checkout(urn.MustParse("urn:rover:home/ghost"), false, 0)); err == nil {
		t.Error("checkout of missing object granted")
	}
	// Checkin without a lock fails.
	if err := waitErr(t, r1.am.Checkin(u, 0)); err == nil {
		t.Error("checkin without lock succeeded")
	}
	// Checkin of someone else's lock fails.
	wait(t, r1.am.Checkout(u, false, 0))
	if err := waitErr(t, r2.am.Checkin(u, 0)); err == nil || !strings.Contains(err.Error(), "not you") {
		t.Errorf("foreign checkin: %v", err)
	}
	// Re-checkout by the holder is idempotent.
	if res := wait(t, r1.am.Checkout(u, false, 0)); !res.Granted {
		t.Error("re-checkout by holder refused")
	}
}

// TestMethodErrorMentioningCheckoutIsAnAppError: an export whose operations
// fail at the server is dropped as an application error even when the
// method's own message says "checked out"; only the server's lock refusal
// keeps operations queued (TestCheckoutExcludesOtherWriters).
func TestMethodErrorMentioningCheckoutIsAnAppError(t *testing.T) {
	engine, srv := newServerRig(t)
	o := rdo.New(urn.MustParse("urn:rover:home/desk"), "desk")
	// puts is hidden in the server's restricted sandbox, so on the same
	// base the method succeeds at the client and fails at the server.
	o.Code = `
		proc take {} {
			if {[catch {puts -nonewline ""}]} { error "not checked out" }
			state set taken 1
		}
	`
	srv.Store().Create(o)
	r := newRig(t, "cli-1", engine, srv, func(c *Config) { c.AutoExport = false })
	wait(t, r.am.Import(o.URN, ImportOptions{}))
	if _, err := r.am.Invoke(o.URN, "take"); err != nil {
		t.Fatal(err)
	}
	f, err := r.am.Export(o.URN, qrpc.PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	if err := waitErr(t, f); err == nil || !strings.Contains(err.Error(), "not checked out") {
		t.Fatalf("export of a failing method: %v", err)
	}
	if r.am.Tentative(o.URN) {
		t.Fatal("the failed operation is still queued as tentative")
	}
}
