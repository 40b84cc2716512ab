package access

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"rover/internal/rdo"
	"rover/internal/urn"
)

// Convergence property: under an arbitrary interleaving of disconnected
// bookings, link flaps, and reconnections across three clients, the system
// must settle into a state where
//
//  1. every slot anyone booked is either committed at the server or
//     preserved in the repair queue (no update is ever silently lost),
//  2. each committed slot holds exactly one of the values that was booked
//     into it, and
//  3. both clients' caches converge to the server state after a
//     revalidating import.
func TestQuickConvergence(t *testing.T) {
	f := func(seed int64) bool {
		return runConvergence(t, seed)
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func runConvergence(t *testing.T, seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	engine, srv := newServerRig(t)
	obj := rdo.New(urn.MustParse("urn:rover:home/slots"), "slots")
	obj.Code = `
		proc book {slot who} {
			if {[state exists $slot]} { error "taken" }
			state set $slot $who
		}
	`
	if err := srv.Store().Create(obj); err != nil {
		t.Fatal(err)
	}
	u := obj.URN

	rigs := []*rig{
		newRig(t, "fuzz-a", engine, srv, nil),
		newRig(t, "fuzz-b", engine, srv, nil),
		newRig(t, "fuzz-c", engine, srv, nil),
	}
	for _, r := range rigs {
		if err := waitErr(t, r.am.Import(u, ImportOptions{})); err != nil {
			t.Fatal(err)
		}
	}
	// bookings[slot] = set of values someone successfully booked locally.
	bookings := map[string][]string{}
	connected := []bool{true, true, true}
	ops := 20 + rng.Intn(40)
	for i := 0; i < ops; i++ {
		ci := rng.Intn(len(rigs))
		r := rigs[ci]
		switch rng.Intn(4) {
		case 0: // flap the link
			connected[ci] = !connected[ci]
			r.pipe.SetConnected(connected[ci])
		case 1, 2, 3: // book a slot
			slot := fmt.Sprintf("s%d", rng.Intn(12))
			who := fmt.Sprintf("%s-%d", r.am.cfg.Engine.ClientID(), i)
			if _, err := r.am.Invoke(u, "book", slot, who); err == nil {
				bookings[slot] = append(bookings[slot], who)
			}
			if rng.Intn(3) == 0 {
				time.Sleep(time.Millisecond) // let some exports race ahead
			}
		}
	}
	// Reconnect everyone and drain.
	for ci, r := range rigs {
		if !connected[ci] {
			r.pipe.SetConnected(true)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, r := range rigs {
		for {
			st := r.am.Status()
			if !r.am.Tentative(u) && st.Queued == 0 && st.AwaitingReply == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Logf("seed %d: drain stalled: %+v", seed, st)
				return false
			}
			time.Sleep(time.Millisecond)
		}
	}

	server, err := srv.Store().Get(u)
	if err != nil {
		t.Fatal(err)
	}
	// Collect repair-queue slots.
	repairSlots := map[string]bool{}
	for _, c := range srv.Conflicts() {
		for _, inv := range c.Invs {
			if inv.Method == "book" && len(inv.Args) == 2 {
				repairSlots[inv.Args[0]] = true
			}
		}
	}
	for slot, values := range bookings {
		got, committed := server.Get(slot)
		if committed {
			found := false
			for _, v := range values {
				if got == v {
					found = true
					break
				}
			}
			if !found {
				t.Logf("seed %d: slot %s holds %q, not among bookings %v", seed, slot, got, values)
				return false
			}
		} else if !repairSlots[slot] {
			t.Logf("seed %d: slot %s lost entirely (not committed, not in repair queue)", seed, slot)
			return false
		}
	}
	// Cache convergence: a revalidating import equals server state.
	for _, r := range rigs {
		view, err := r.am.Import(u, ImportOptions{Revalidate: true}).Wait(t.Context())
		if err != nil {
			t.Logf("seed %d: revalidate: %v", seed, err)
			return false
		}
		if !rdo.Equal(view, server) {
			t.Logf("seed %d: client %s diverged:\n client %v\n server %v",
				seed, r.am.cfg.Engine.ClientID(), view.State, server.State)
			return false
		}
	}
	return true
}
