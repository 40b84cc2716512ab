package rover

import (
	"context"
	"path/filepath"
	"testing"
	"time"
)

func ctx(t *testing.T) context.Context {
	t.Helper()
	c, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return c
}

func notesObject(t *testing.T, path string) *Object {
	t.Helper()
	obj := NewObject(MustParseURN("urn:rover:home/"+path), "notes")
	obj.Code = `
		proc add {line} { state set n[state size] $line }
		proc count {} { state size }
	`
	return obj
}

func TestFacadeEndToEnd(t *testing.T) {
	srv, err := NewServer(ServerOptions{ServerID: "home"})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Seed(notesObject(t, "notes")); err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(ClientOptions{ClientID: "laptop"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	link := cli.ConnectPipe(srv)
	link.SetConnected(true)

	u := MustParseURN("urn:rover:home/notes")
	obj, err := cli.ImportWait(ctx(t), u)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Type != "notes" {
		t.Fatalf("imported %+v", obj)
	}
	if _, err := cli.Invoke(u, "add", "buy milk"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for cli.Tentative(u) {
		if time.Now().After(deadline) {
			t.Fatal("never committed")
		}
		time.Sleep(time.Millisecond)
	}
	got, err := srv.Store().Get(u)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Get("n0"); v != "buy milk" {
		t.Errorf("server state %q", v)
	}
}

func TestFacadeDisconnectedLifecycle(t *testing.T) {
	srv, _ := NewServer(ServerOptions{ServerID: "home"})
	srv.Seed(notesObject(t, "notes"))
	cli, _ := NewClient(ClientOptions{ClientID: "laptop"})
	defer cli.Close()
	link := cli.ConnectPipe(srv)
	link.SetConnected(true)
	u := MustParseURN("urn:rover:home/notes")
	if _, err := cli.ImportWait(ctx(t), u); err != nil {
		t.Fatal(err)
	}

	link.SetConnected(false)
	cli.Invoke(u, "add", "offline note")
	if got, _ := cli.Invoke(u, "count"); got != "1" {
		t.Errorf("offline count %q", got)
	}
	st := cli.Status()
	if st.Connected || st.TentativeObjects != 1 {
		t.Errorf("status %+v", st)
	}
	link.SetConnected(true)
	deadline := time.Now().Add(5 * time.Second)
	for cli.Tentative(u) {
		if time.Now().After(deadline) {
			t.Fatal("reconnect did not drain")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFacadeTCPWithAuthAndCrashRecovery(t *testing.T) {
	keyHex := "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff"
	srv, err := NewServer(ServerOptions{
		ServerID: "home",
		AuthKeys: map[string]string{"laptop": keyHex},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Seed(notesObject(t, "notes"))
	ln, err := srv.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	logPath := filepath.Join(t.TempDir(), "qrpc.log")
	u := MustParseURN("urn:rover:home/notes")

	// First incarnation: import, mutate offline (no TCP attached yet so
	// everything queues), then "crash".
	cli, err := NewClient(ClientOptions{ClientID: "laptop", KeyHex: keyHex, LogPath: logPath})
	if err != nil {
		t.Fatal(err)
	}
	cli.ConnectTCP(ln.Addr())
	if _, err := cli.ImportWait(ctx(t), u); err != nil {
		t.Fatal(err)
	}
	cli.Close() // simulate shutdown; nothing tentative yet

	// Second incarnation: enqueue with NO transport (fully disconnected),
	// then crash with work on the log.
	cli2, err := NewClient(ClientOptions{ClientID: "laptop", KeyHex: keyHex, LogPath: logPath})
	if err != nil {
		t.Fatal(err)
	}
	// No cache from the previous life (cache is volatile), so use a
	// remote invoke which queues a QRPC directly.
	f := cli2.InvokeRemote(u, "add", []string{"queued across crash"}, PriorityNormal)
	_ = f
	cli2.Close() // crash with the request on the stable log

	// Third incarnation: the recovered request drains to the server.
	cli3, err := NewClient(ClientOptions{ClientID: "laptop", KeyHex: keyHex, LogPath: logPath})
	if err != nil {
		t.Fatal(err)
	}
	defer cli3.Close()
	cli3.ConnectTCP(ln.Addr())
	deadline := time.Now().Add(5 * time.Second)
	for {
		obj, err := srv.Store().Get(u)
		if err == nil {
			if _, ok := obj.Get("n0"); ok {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered request never executed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestFacadeDiskStoreEndToEnd(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(ServerOptions{ServerID: "home", StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Seed(notesObject(t, "notes")); err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(ClientOptions{ClientID: "laptop"})
	if err != nil {
		t.Fatal(err)
	}
	link := cli.ConnectPipe(srv)
	link.SetConnected(true)
	u := MustParseURN("urn:rover:home/notes")
	if _, err := cli.ImportWait(ctx(t), u); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Invoke(u, "add", "durable note"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for cli.Tentative(u) {
		if time.Now().After(deadline) {
			t.Fatal("never committed")
		}
		time.Sleep(time.Millisecond)
	}
	cli.Close()
	if occ := srv.StoreStats(); occ.Objects != 1 {
		t.Errorf("occupancy %+v", occ)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// A restarted server recovers the committed state from the segment.
	srv2, err := NewServer(ServerOptions{ServerID: "home", StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	got, err := srv2.Store().Get(u)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Get("n0"); v != "durable note" {
		t.Errorf("recovered state %q", v)
	}
}

func TestFacadeValidation(t *testing.T) {
	if _, err := NewClient(ClientOptions{}); err == nil {
		t.Error("client without ID accepted")
	}
	if _, err := NewClient(ClientOptions{ClientID: "c", KeyHex: "zz"}); err == nil {
		t.Error("bad key accepted")
	}
	if _, err := NewServer(ServerOptions{AuthKeys: map[string]string{"c": "zz"}}); err == nil {
		t.Error("bad server key accepted")
	}
}

func TestFacadeResolverRegistration(t *testing.T) {
	srv, _ := NewServer(ServerOptions{ServerID: "home"})
	srv.RegisterResolver("notes", RejectResolver)
	obj := notesObject(t, "strict")
	srv.Seed(obj)
	u := obj.URN

	c1, _ := NewClient(ClientOptions{ClientID: "c1"})
	defer c1.Close()
	l1 := c1.ConnectPipe(srv)
	l1.SetConnected(true)
	c2, _ := NewClient(ClientOptions{ClientID: "c2"})
	defer c2.Close()
	l2 := c2.ConnectPipe(srv)
	l2.SetConnected(true)

	if _, err := c1.ImportWait(ctx(t), u); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.ImportWait(ctx(t), u); err != nil {
		t.Fatal(err)
	}
	l2.SetConnected(false)
	c2.Invoke(u, "add", "from c2")
	c1.Invoke(u, "add", "from c1")
	deadline := time.Now().Add(5 * time.Second)
	for c1.Tentative(u) {
		if time.Now().After(deadline) {
			t.Fatal("c1 never committed")
		}
		time.Sleep(time.Millisecond)
	}
	l2.SetConnected(true)
	for c2.Tentative(u) {
		if time.Now().After(deadline) {
			t.Fatal("c2 never settled")
		}
		time.Sleep(time.Millisecond)
	}
	// Reject resolver: even the commuting note from c2 is refused.
	confs, err := c1.Conflicts(PriorityNormal).Wait(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(confs) != 1 || confs[0].ClientID != "c2" {
		t.Errorf("conflicts: %+v", confs)
	}
}

func TestFacadeJournalRecoveryAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "sessions.journal")
	sdir := filepath.Join(dir, "store")

	srv, err := NewServer(ServerOptions{ServerID: "home", JournalPath: jpath, StoreDir: sdir})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Seed(notesObject(t, "notes")); err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(ClientOptions{ClientID: "laptop"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	link := cli.ConnectPipe(srv)
	link.SetConnected(true)
	u := MustParseURN("urn:rover:home/notes")
	if _, err := cli.ImportWait(ctx(t), u); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Invoke(u, "add", "before crash"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for cli.Tentative(u) {
		if time.Now().After(deadline) {
			t.Fatal("never committed")
		}
		time.Sleep(time.Millisecond)
	}
	if srv.Engine().Stats().JournalRecords == 0 {
		t.Fatal("journaled server recorded nothing")
	}
	link.SetConnected(false)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the new incarnation replays the session journal, so the
	// laptop's session (its executed seqs and cached replies) survives the
	// server crash and the client can simply reconnect and keep going.
	srv2, err := NewServer(ServerOptions{ServerID: "home", JournalPath: jpath, StoreDir: sdir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if got := srv2.Engine().Stats().RecoveredSessions; got != 1 {
		t.Fatalf("RecoveredSessions = %d, want 1", got)
	}
	link2 := cli.ConnectPipe(srv2)
	link2.SetConnected(true)
	if _, err := cli.Invoke(u, "add", "after restart"); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for cli.Tentative(u) {
		if time.Now().After(deadline) {
			t.Fatal("post-restart invoke never committed")
		}
		time.Sleep(time.Millisecond)
	}
	got, err := srv2.Store().Get(u)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Get("n1"); v != "after restart" {
		t.Errorf("post-restart state %q", v)
	}
}
