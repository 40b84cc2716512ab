// Calendar: two disconnected users book meetings; non-overlapping
// bookings merge automatically, a true collision is detected at the home
// server and reflected for repair — the paper's (and Bayou's) canonical
// conflict scenario.
//
//	go run ./examples/calendar
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"rover"
	"rover/internal/apps/calendar"
)

func main() {
	srv, err := rover.NewServer(rover.ServerOptions{ServerID: "calhome"})
	if err != nil {
		log.Fatal(err)
	}
	u := calendar.URNFor("calhome", "pdos-group")
	if err := srv.Seed(calendar.NewObject(u)); err != nil {
		log.Fatal(err)
	}

	alice, linkA := newUser(srv, "alice")
	bob, linkB := newUser(srv, "bob")
	defer alice.Close()
	defer bob.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	bookA, err := calendar.Open(ctx, alice, u, "alice")
	if err != nil {
		log.Fatal(err)
	}
	bookB, err := calendar.Open(ctx, bob, u, "bob")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("-- both users go offline with the calendar cached --")
	linkA.SetConnected(false)
	linkB.SetConnected(false)

	fmt.Println("alice books mon.9  (design review)   [tentative]")
	must(bookA.Schedule("mon.9", "design review"))
	fmt.Println("alice books tue.14 (paper reading)   [tentative]")
	must(bookA.Schedule("tue.14", "paper reading"))
	fmt.Println("bob   books mon.9  (squash with adj) [tentative] <- collides with alice")
	must(bookB.Schedule("mon.9", "squash with adj"))
	fmt.Println("bob   books mon.11 (office hours)    [tentative]")
	must(bookB.Schedule("mon.11", "office hours"))

	fmt.Println("\n-- alice reconnects first: her bookings commit --")
	linkA.SetConnected(true)
	waitSettled(alice, u)

	fmt.Println("-- bob reconnects: replay merges mon.11, mon.9 conflicts --")
	linkB.SetConnected(true)
	waitSettled(bob, u)

	fmt.Println("\nfinal agenda (bob's converged replica):")
	agenda, err := bookB.Agenda()
	if err != nil {
		log.Fatal(err)
	}
	for _, ap := range agenda {
		fmt.Printf("  %-8s %-10s %s\n", ap.Slot, ap.Owner, ap.Title)
	}
	fmt.Println("\nserver repair queue (conflicts needing a human):")
	for _, c := range srv.Conflicts() {
		fmt.Printf("  %s from %s: %s\n", c.URN, c.ClientID, c.Message)
	}
}

func newUser(srv *rover.Server, name string) (*rover.Client, interface{ SetConnected(bool) }) {
	cli, err := rover.NewClient(rover.ClientOptions{
		ClientID: name,
		OnConflict: func(u rover.URN, msg string) {
			fmt.Printf("  !! %s is told: %s\n", name, msg)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	link := cli.ConnectPipe(srv)
	link.SetConnected(true)
	return cli, link
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func waitSettled(cli *rover.Client, u rover.URN) {
	deadline := time.Now().Add(5 * time.Second)
	for cli.Tentative(u) {
		if time.Now().After(deadline) {
			log.Fatal("never settled")
		}
		time.Sleep(time.Millisecond)
	}
	// Let the post-conflict revalidation import finish too.
	for {
		st := cli.Status()
		if st.Queued == 0 && st.AwaitingReply == 0 {
			return
		}
		if time.Now().After(deadline) {
			log.Fatal("queue never drained")
		}
		time.Sleep(time.Millisecond)
	}
}
