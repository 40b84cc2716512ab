package rover_test

import (
	"fmt"
	"testing"
	"time"

	"rover"
)

// TestTCPSoakWithRestarts runs three clients over real TCP against one
// server whose listener is killed and restarted mid-run. Every booking
// must commit exactly once despite the interruptions — the deployment
// analog of the simulator's outage tests.
func TestTCPSoakWithRestarts(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	srv, err := rover.NewServer(rover.ServerOptions{ServerID: "soak"})
	if err != nil {
		t.Fatal(err)
	}
	obj := rover.NewObject(rover.MustParseURN("urn:rover:soak/slots"), "slots")
	obj.Code = `
		proc book {slot who} {
			if {[state exists $slot]} { error "taken" }
			state set $slot $who
		}
	`
	if err := srv.Seed(obj); err != nil {
		t.Fatal(err)
	}
	ln, err := srv.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr()

	const clients = 3
	const perClient = 30
	clis := make([]*rover.Client, clients)
	for i := range clis {
		cli, err := rover.NewClient(rover.ClientOptions{ClientID: fmt.Sprintf("soak-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		cli.ConnectTCP(addr)
		clis[i] = cli
	}
	ctx := t.Context()
	for _, cli := range clis {
		if _, err := cli.ImportWait(ctx, obj.URN); err != nil {
			t.Fatal(err)
		}
	}

	// Book unique slots from every client while the server restarts twice.
	done := make(chan error, clients)
	for ci, cli := range clis {
		go func(ci int, cli *rover.Client) {
			for j := 0; j < perClient; j++ {
				slot := fmt.Sprintf("c%d-s%d", ci, j)
				if _, err := cli.Invoke(obj.URN, "book", slot, fmt.Sprintf("soak-%d", ci)); err != nil {
					done <- fmt.Errorf("client %d invoke %d: %w", ci, j, err)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
			done <- nil
		}(ci, cli)
	}
	// Two listener restarts while bookings flow.
	for r := 0; r < 2; r++ {
		time.Sleep(20 * time.Millisecond)
		ln.Close()
		time.Sleep(20 * time.Millisecond)
		ln, err = srv.ListenTCP(addr)
		if err != nil {
			t.Fatalf("restart %d: %v", r, err)
		}
	}
	for range clis {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Drain: all tentative work committed.
	deadline := time.Now().Add(15 * time.Second)
	for _, cli := range clis {
		for {
			st := cli.Status()
			if !cli.Tentative(obj.URN) && st.Queued == 0 && st.AwaitingReply == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("drain stalled: %+v", st)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	got, err := srv.Store().Get(obj.URN)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for range got.State {
		count++
	}
	if count != clients*perClient {
		t.Fatalf("server has %d slots, want %d", count, clients*perClient)
	}
	if len(srv.Conflicts()) != 0 {
		t.Errorf("unexpected conflicts: %+v", srv.Conflicts())
	}
	ln.Close()
}
