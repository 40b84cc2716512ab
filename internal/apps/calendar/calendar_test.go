package calendar

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"rover"
)

func tctx(t *testing.T) context.Context {
	t.Helper()
	c, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return c
}

func newStack(t *testing.T, clientID string, srv *rover.Server) (*rover.Client, interface{ SetConnected(bool) }) {
	t.Helper()
	cli, err := rover.NewClient(rover.ClientOptions{ClientID: clientID})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	link := cli.ConnectPipe(srv)
	link.SetConnected(true)
	return cli, link
}

func waitSettled(t *testing.T, cli *rover.Client, u rover.URN) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for cli.Tentative(u) {
		if time.Now().After(deadline) {
			t.Fatal("never settled")
		}
		time.Sleep(time.Millisecond)
	}
}

func seedBook(t *testing.T) (*rover.Server, rover.URN) {
	t.Helper()
	srv, err := rover.NewServer(rover.ServerOptions{ServerID: "calhome"})
	if err != nil {
		t.Fatal(err)
	}
	u := URNFor("calhome", "pdos")
	if err := srv.Seed(NewObject(u)); err != nil {
		t.Fatal(err)
	}
	return srv, u
}

func TestScheduleAndAgenda(t *testing.T) {
	srv, u := seedBook(t)
	cli, _ := newStack(t, "adj", srv)
	book, err := Open(tctx(t), cli, u, "adj")
	if err != nil {
		t.Fatal(err)
	}
	if err := book.Schedule("1995-12-07.10", "SOSP dry run"); err != nil {
		t.Fatal(err)
	}
	if err := book.Schedule("1995-12-07.14", "demo prep"); err != nil {
		t.Fatal(err)
	}
	ap, ok, err := book.Lookup("1995-12-07.10")
	if err != nil || !ok || ap.Owner != "adj" || ap.Title != "SOSP dry run" {
		t.Fatalf("lookup: %+v %v %v", ap, ok, err)
	}
	agenda, err := book.Agenda()
	if err != nil || len(agenda) != 2 {
		t.Fatalf("agenda: %+v %v", agenda, err)
	}
	if agenda[0].Slot != "1995-12-07.10" {
		t.Errorf("agenda order: %+v", agenda)
	}
	// Double booking locally is refused.
	if err := book.Schedule("1995-12-07.10", "conflict"); err == nil {
		t.Error("local double booking accepted")
	}
	waitSettled(t, cli, u)
	got, _ := srv.Store().Get(u)
	if v, _ := got.Get("s1995-12-07.10"); !strings.Contains(v, "SOSP dry run") {
		t.Errorf("server slot %q", v)
	}
}

func TestCancel(t *testing.T) {
	srv, u := seedBook(t)
	cli, _ := newStack(t, "adj", srv)
	book, _ := Open(tctx(t), cli, u, "adj")
	book.Schedule("d.1", "x")
	if err := book.Cancel("d.1"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := book.Lookup("d.1"); ok {
		t.Error("cancelled slot still booked")
	}
	if err := book.Cancel("d.1"); err == nil {
		t.Error("cancelling a free slot succeeded")
	}
	// Can't cancel someone else's slot.
	book.Schedule("d.2", "mine")
	cli2, _ := newStack(t, "other", srv)
	waitSettled(t, cli, u)
	book2, _ := Open(tctx(t), cli2, u, "other")
	if err := book2.Cancel("d.2"); err == nil {
		t.Error("cancelled another owner's slot")
	}
}

func TestDisconnectedMergeNonOverlapping(t *testing.T) {
	srv, u := seedBook(t)
	cliA, _ := newStack(t, "alice", srv)
	cliB, linkB := newStack(t, "bob", srv)
	bookA, _ := Open(tctx(t), cliA, u, "alice")
	bookB, _ := Open(tctx(t), cliB, u, "bob")

	linkB.SetConnected(false)
	if err := bookB.Schedule("mon.9", "bob's standup"); err != nil {
		t.Fatal(err)
	}
	if !bookB.Tentative() {
		t.Error("offline booking not tentative")
	}
	if err := bookA.Schedule("mon.11", "alice's review"); err != nil {
		t.Fatal(err)
	}
	waitSettled(t, cliA, u)
	linkB.SetConnected(true)
	waitSettled(t, cliB, u)

	got, _ := srv.Store().Get(u)
	if _, ok := got.Get("smon.9"); !ok {
		t.Error("bob's booking lost")
	}
	if _, ok := got.Get("smon.11"); !ok {
		t.Error("alice's booking lost")
	}
	if len(srv.Conflicts()) != 0 {
		t.Errorf("repair queue: %+v", srv.Conflicts())
	}
}

func TestDisconnectedCollisionGoesToRepair(t *testing.T) {
	srv, u := seedBook(t)
	cliA, _ := newStack(t, "alice", srv)
	cliB, linkB := newStack(t, "bob", srv)
	bookA, _ := Open(tctx(t), cliA, u, "alice")
	bookB, _ := Open(tctx(t), cliB, u, "bob")

	linkB.SetConnected(false)
	bookB.Schedule("mon.9", "bob wants the room")
	bookA.Schedule("mon.9", "alice wants the room")
	waitSettled(t, cliA, u)
	linkB.SetConnected(true)
	waitSettled(t, cliB, u)

	// First committer wins; the loser's op is reflected for repair.
	got, _ := srv.Store().Get(u)
	if v, _ := got.Get("smon.9"); !strings.Contains(v, "alice") {
		t.Errorf("winner: %q", v)
	}
	cs := srv.Conflicts()
	if len(cs) != 1 || cs[0].ClientID != "bob" {
		t.Fatalf("repair queue: %+v", cs)
	}
	// Bob's replica converged to Alice's booking.
	ap, ok, _ := bookB.Lookup("mon.9")
	if !ok || ap.Owner != "alice" {
		t.Errorf("bob's view: %+v %v", ap, ok)
	}
}

func TestManyUsersManyBookings(t *testing.T) {
	srv, u := seedBook(t)
	const users = 4
	books := make([]*Book, users)
	clis := make([]*rover.Client, users)
	for i := range books {
		cli, _ := newStack(t, fmt.Sprintf("user%d", i), srv)
		clis[i] = cli
		b, err := Open(tctx(t), cli, u, fmt.Sprintf("user%d", i))
		if err != nil {
			t.Fatal(err)
		}
		books[i] = b
	}
	// Everyone books distinct slots concurrently-ish.
	for i, b := range books {
		for j := 0; j < 5; j++ {
			if err := b.Schedule(fmt.Sprintf("day%d.%d", j, i), "work"); err != nil {
				t.Fatalf("user %d slot %d: %v", i, j, err)
			}
		}
	}
	for i := range books {
		waitSettled(t, clis[i], u)
	}
	got, _ := srv.Store().Get(u)
	count := 0
	for k := range got.State {
		if strings.HasPrefix(k, "s") {
			count++
		}
	}
	if count != users*5 {
		t.Errorf("server has %d bookings, want %d", count, users*5)
	}
	if len(srv.Conflicts()) != 0 {
		t.Errorf("unexpected conflicts: %+v", srv.Conflicts())
	}
}
