package mail

import (
	"context"
	"strings"
	"testing"
	"time"

	"rover"
)

func rig(t *testing.T) (*rover.Server, *rover.Client, interface{ SetConnected(bool) }) {
	t.Helper()
	srv, err := rover.NewServer(rover.ServerOptions{ServerID: "mailhome"})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := rover.NewClient(rover.ClientOptions{ClientID: "laptop"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	link := cli.ConnectPipe(srv)
	link.SetConnected(true)
	return srv, cli, link
}

func tctx(t *testing.T) context.Context {
	t.Helper()
	c, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return c
}

func waitSettled(t *testing.T, cli *rover.Client, u rover.URN) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for cli.Tentative(u) {
		if time.Now().After(deadline) {
			t.Fatal("tentative never settled")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSeedAndList(t *testing.T) {
	srv, cli, _ := rig(t)
	seeder := &Seeder{Authority: "mailhome"}
	ids, err := seeder.SeedFolder(srv, "inbox", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 10 {
		t.Fatalf("ids %v", ids)
	}
	r := NewReader(cli, "mailhome")
	sums, err := r.ListFolder(tctx(t), "inbox")
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 10 {
		t.Fatalf("summaries: %d", len(sums))
	}
	for _, s := range sums {
		if s.From == "" || s.Subject == "" || s.Flags != "" {
			t.Errorf("summary %+v", s)
		}
	}
}

func TestReadMarksSeen(t *testing.T) {
	srv, cli, _ := rig(t)
	seeder := &Seeder{Authority: "mailhome"}
	ids, _ := seeder.SeedFolder(srv, "inbox", 3)
	r := NewReader(cli, "mailhome")
	r.ListFolder(tctx(t), "inbox")

	msg, err := r.Read(tctx(t), "inbox", ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if msg.From == "" || msg.Body == "" {
		t.Errorf("message %+v", msg)
	}
	sums, _ := r.ListFolder(tctx(t), "inbox")
	if !strings.Contains(sums[0].Flags, "S") {
		t.Errorf("seen flag missing: %+v", sums[0])
	}
	// The flag change commits at the server.
	waitSettled(t, cli, r.FolderURN("inbox"))
	got, _ := srv.Store().Get(r.FolderURN("inbox"))
	if v, _ := got.Get("m" + ids[0]); !strings.HasPrefix(v, "S|") {
		t.Errorf("server entry %q", v)
	}
}

func TestDisconnectedMailSession(t *testing.T) {
	srv, cli, link := rig(t)
	seeder := &Seeder{Authority: "mailhome", BodyBytes: 256}
	ids, _ := seeder.SeedFolder(srv, "inbox", 5)
	r := NewReader(cli, "mailhome")

	// Connected: prefetch everything.
	n, err := r.PrefetchFolder("inbox").Wait(tctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 { // folder + 5 messages
		t.Fatalf("prefetched %d objects", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for cli.Status().Queued+cli.Status().AwaitingReply > 0 {
		if time.Now().After(deadline) {
			t.Fatal("prefetch never drained")
		}
		time.Sleep(time.Millisecond)
	}

	// Disconnect: read mail, flag it, answer one, compose a reply.
	link.SetConnected(false)
	for _, id := range ids {
		if _, err := r.Read(tctx(t), "inbox", id); err != nil {
			t.Fatalf("offline read %s: %v", id, err)
		}
	}
	r.MarkAnswered("inbox", ids[1])
	r.Delete("inbox", ids[2])
	if _, err := r.Compose("inbox", Message{
		ID: "2000", From: "laptop@mobile", To: "adj@lcs.mit.edu",
		Subject: "written on the train", Body: "no network here",
	}); err != nil {
		t.Fatal(err)
	}
	st := cli.Status()
	if st.Connected || st.Queued == 0 {
		t.Fatalf("offline status %+v", st)
	}

	// Reconnect: everything drains; the server sees flags and the new
	// message.
	link.SetConnected(true)
	waitSettled(t, cli, r.FolderURN("inbox"))
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, err := srv.Store().Get(r.MessageURN("inbox", "2000")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("composed message never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	folder, _ := srv.Store().Get(r.FolderURN("inbox"))
	if v, _ := folder.Get("m" + ids[1]); !strings.Contains(strings.SplitN(v, "|", 2)[0], "A") {
		t.Errorf("answered flag lost: %q", v)
	}
	if v, _ := folder.Get("m2000"); !strings.Contains(v, "written on the train") {
		t.Errorf("index entry for composed message: %q", v)
	}
}

func TestComposeRequiresID(t *testing.T) {
	_, cli, _ := rig(t)
	r := NewReader(cli, "mailhome")
	if _, err := r.Compose("inbox", Message{Subject: "no id"}); err == nil {
		t.Error("compose without ID accepted")
	}
}

func TestTwoReadersShareFolder(t *testing.T) {
	srv, cli1, _ := rig(t)
	seeder := &Seeder{Authority: "mailhome"}
	ids, _ := seeder.SeedFolder(srv, "inbox", 4)

	cli2, err := rover.NewClient(rover.ClientOptions{ClientID: "desktop"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	link2 := cli2.ConnectPipe(srv)
	link2.SetConnected(true)

	r1 := NewReader(cli1, "mailhome")
	r2 := NewReader(cli2, "mailhome")
	r1.ListFolder(tctx(t), "inbox")
	r2.ListFolder(tctx(t), "inbox")

	// Both flag different messages concurrently (r2 offline).
	link2.SetConnected(false)
	r2.MarkAnswered("inbox", ids[1])
	r1.MarkAnswered("inbox", ids[0])
	waitSettled(t, cli1, r1.FolderURN("inbox"))
	link2.SetConnected(true)
	waitSettled(t, cli2, r2.FolderURN("inbox"))

	// The default Replay resolver merges both flags.
	folder, _ := srv.Store().Get(r1.FolderURN("inbox"))
	v0, _ := folder.Get("m" + ids[0])
	v1, _ := folder.Get("m" + ids[1])
	if !strings.HasPrefix(v0, "A|") || !strings.HasPrefix(v1, "A|") {
		t.Errorf("merged flags: %q %q", v0, v1)
	}
	if len(srv.Conflicts()) != 0 {
		t.Errorf("repair queue: %+v", srv.Conflicts())
	}
}
