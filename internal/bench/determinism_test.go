package bench

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"rover"
	"rover/internal/apps/mail"
	"rover/internal/netsim"
	"rover/internal/vtime"
)

// sessionOutcome is everything a compressed session leaves behind that the
// state of the process's compression contexts could conceivably touch.
type sessionOutcome struct {
	link  netsim.Stats
	done  vtime.Time
	cache [sha256.Size]byte // every imported object's encoding, in URN order
	store [sha256.Size]byte // the server's snapshot
}

// compressedMailSession imports a seeded mail folder and its messages,
// pipelined, over a compressed cslip14.4 link, then flags three messages and
// lets the change export.
func compressedMailSession(t *testing.T) sessionOutcome {
	t.Helper()
	stack, err := NewSimStack(SimStackOptions{Link: netsim.CSLIP14k4, Seed: 16, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Client.Close()
	defer stack.Server.Close()
	seeder := &mail.Seeder{Authority: "bench", Rand: rand.New(rand.NewSource(16))}
	ids, err := seeder.SeedFolder(stack.Server, "inbox", 12)
	if err != nil {
		t.Fatal(err)
	}
	reader := mail.NewReader(stack.Client, "bench")
	urns := []rover.URN{reader.FolderURN("inbox")}
	for _, id := range ids {
		urns = append(urns, reader.MessageURN("inbox", id))
	}

	var out sessionOutcome
	left := len(urns)
	for _, u := range urns {
		stack.Client.Import(u, rover.ImportOptions{}).OnReady(func(_ *rover.Object, err error) {
			if err != nil {
				t.Errorf("import %s: %v", u, err)
			}
			if left--; left > 0 {
				return
			}
			// Each flag is a tentative local update; the client exports the
			// folder on its own.
			for _, id := range ids[:3] {
				if err := reader.MarkAnswered("inbox", id); err != nil {
					t.Errorf("flag %s: %v", id, err)
				}
			}
		})
	}
	stack.Run()
	if left != 0 || stack.Client.Tentative(urns[0]) {
		t.Fatalf("session did not complete: %d imports outstanding, folder tentative=%v", left, stack.Client.Tentative(urns[0]))
	}

	out.done = stack.Sched.Now()
	out.link = stack.Link.Duplex().Stats()
	if z := stack.Client.Engine().Stats().ZBatchesSent + stack.Server.Engine().Stats().ZBatchesSent; z == 0 {
		t.Fatal("no compressed batch crossed the link")
	}
	cache := sha256.New()
	for _, u := range urns {
		obj, err, ok := stack.Client.Import(u, rover.ImportOptions{}).Result()
		if !ok || err != nil {
			t.Fatalf("%s not in the client's cache: %v", u, err)
		}
		cache.Write(obj.Encode())
	}
	cache.Sum(out.cache[:0])
	out.store = sha256.Sum256(stack.Server.Store().Snapshot())
	return out
}

// TestCompressedSessionDeterministic is the system-level statement of
// "byte-identical frames": the same compressed session gives the same bytes
// on the wire, the same virtual completion time and the same state at both
// ends whether the process's deflate contexts are absent, warm, or were just
// taken by the collector. Virtual-time results (and the modem_session
// benchmark row) rely on exactly this.
func TestCompressedSessionDeterministic(t *testing.T) {
	runtime.GC() // earlier tests in this process may have left contexts
	cold := compressedMailSession(t)
	warm := compressedMailSession(t)
	runtime.GC()
	collected := compressedMailSession(t)
	for name, got := range map[string]sessionOutcome{"warm": warm, "after GC": collected} {
		if got != cold {
			t.Errorf("%s session differs from the cold one:\n cold %s\n %s", name, cold, got)
		}
	}
}

func (o sessionOutcome) String() string {
	return fmt.Sprintf("%+v done=%v cache=%x store=%x", o.link, o.done, o.cache[:6], o.store[:6])
}
