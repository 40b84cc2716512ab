package qrpc_test

import (
	"bytes"
	"context"
	"testing"

	"rover/internal/qrpc"
	"rover/internal/stable"
	"rover/internal/transport"
	"rover/internal/vtime"
)

// TestEchoRoundTripAllocs pins what one QRPC costs the engines: a 64-byte
// echo — Enqueue, the request out, the reply back, Wait — over a Pipe to a
// pooled server with no journal. What is allocated is what a party keeps:
// the client's log record, its pending request (promise inline) and that
// promise's channel, the request's encoding and the batch it rides in with
// the last reply's ack; the server's reply, its encoding and its reply-cache
// entry. Receiving costs nothing: frames are decoded where they arrived.
func TestEchoRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts, so allocation counts mean nothing")
	}
	cli, err := qrpc.NewClient(qrpc.ClientConfig{ClientID: "alloc", Log: stable.NewMemLog(stable.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv := qrpc.NewServer(qrpc.ServerConfig{ServerID: "alloc", Workers: 2})
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
	if n := testing.AllocsPerRun(1000, echo); n > 8 {
		t.Fatalf("one echo round trip allocates %v objects, want at most 8", n)
	}
}
