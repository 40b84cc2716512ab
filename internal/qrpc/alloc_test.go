package qrpc_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"rover/internal/qrpc"
	"rover/internal/stable"
	"rover/internal/transport"
	"rover/internal/vtime"
	"rover/internal/wire"
)

// TestEchoRoundTripAllocs pins what one QRPC costs the engines: a 64-byte
// echo — Enqueue, the request out, the reply back, Wait — over a Pipe to a
// server with no journal. What is allocated is what a party keeps:
// the client's log record, which the request frame is a view of, its
// pending request (promise inline) and that promise's channel, made by the
// Wait because it runs before the reply arrives, and the
// batch the request rides in with the last reply's ack; the server's reply
// encoding, which its session holds until the ack. Receiving costs nothing:
// frames are decoded where they arrived, and the server runs the request
// inside its OnFrame with the run and the reply frame on the stack.
func TestEchoRoundTripAllocs(t *testing.T) {
	echoRoundTripAllocs(t, qrpc.ServerConfig{ServerID: "alloc"}, 5)
}

// TestInlineEchoRoundTripAllocs is the same round trip to servers
// configured with Workers as the benchmark module still sets it: -1 on its
// inline stacks, GOMAXPROCS on the others. The field is ignored, so each
// server runs the request inline and costs what the default server does.
func TestInlineEchoRoundTripAllocs(t *testing.T) {
	for _, workers := range []int{-1, runtime.GOMAXPROCS(0)} {
		echoRoundTripAllocs(t, qrpc.ServerConfig{ServerID: "alloc", Workers: workers}, 5)
	}
}

// TestJournaledEchoRoundTripAllocs is the same round trip to a server with
// a 4-shard journal. The reply is encoded once, into its exec record, which
// the journal keeps and the session cache and reply frame are views of; the
// one allocation more is the ack record the last reply's ack journals.
func TestJournaledEchoRoundTripAllocs(t *testing.T) {
	var shards []stable.Log
	for range 4 {
		shards = append(shards, stable.NewMemLog(stable.Options{}))
	}
	echoRoundTripAllocs(t, qrpc.ServerConfig{ServerID: "alloc", Journals: shards}, 6)
}

func echoRoundTripAllocs(t *testing.T, cfg qrpc.ServerConfig, want float64) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts, so allocation counts mean nothing")
	}
	cli, err := qrpc.NewClient(qrpc.ClientConfig{ClientID: "alloc", Log: stable.NewMemLog(stable.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv := qrpc.NewServer(cfg)
	defer srv.Close()
	srv.Register("echo", func(_ string, req qrpc.Request) ([]byte, error) { return req.Args, nil })
	clock := vtime.NewRealClock()
	pipe := transport.NewPipe(cli, srv, clock)
	defer pipe.Close()
	pipe.SetConnected(true)

	args := bytes.Repeat([]byte{0x5A}, 64)
	ctx := context.Background()
	echo := func() {
		p, err := cli.Enqueue("echo", args, qrpc.PriorityNormal, clock.Now())
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Wait(ctx)
		if err != nil || !bytes.Equal(got, args) {
			t.Fatalf("echo: %q, %v", got, err)
		}
	}
	for range 100 { // scratch arrays, maps and pools reach their steady state
		echo()
	}
	if n := testing.AllocsPerRun(1000, echo); n != want {
		t.Fatalf("one echo round trip allocates %v objects, want %v", n, want)
	}
}

// TestStaleInstallReplyAllocs: a replica peer's reply that the session
// already holds is turned away before anything is built for it, an error
// reply's message included. On a journaled server no journal record is
// appended, and the exec record a fresh install is cached in is not even
// encoded: the stale install allocates nothing.
func TestStaleInstallReplyAllocs(t *testing.T) {
	for _, rep := range []qrpc.Reply{
		{Seq: 1, Status: qrpc.StatusOK, Result: []byte("from the peer")},
		{Seq: 1, Status: qrpc.StatusAppError, ErrMsg: "the method failed"},
	} {
		journal := stable.NewMemLog(stable.Options{})
		srv := qrpc.NewServer(qrpc.ServerConfig{ServerID: "alloc", Journals: []stable.Log{journal}})
		defer srv.Close()
		enc := wire.Marshal(&rep)
		if ok, err := srv.InstallReply("peer", enc); !ok || err != nil {
			t.Fatalf("status %d: first install = %v, %v", rep.Status, ok, err)
		}
		records := func() (n int) {
			journal.Replay(func(uint64, []byte) error { n++; return nil })
			return n
		}
		before := records()
		stale := func() {
			if ok, err := srv.InstallReply("peer", enc); ok || err != nil {
				t.Fatalf("status %d: stale install = %v, %v; want it ignored", rep.Status, ok, err)
			}
		}
		stale()
		if n := records(); n != before {
			t.Fatalf("status %d: a stale install took the journal from %d records to %d", rep.Status, before, n)
		}
		if raceEnabled {
			continue // allocation counts are held by the run without -race
		}
		if n := testing.AllocsPerRun(100, stale); n != 0 {
			t.Errorf("status %d: a stale install allocates %v objects, want 0", rep.Status, n)
		}
	}
}
