package transport

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"rover/internal/faults"
	"rover/internal/qrpc"
	"rover/internal/stable"
	"rover/internal/wire"
)

// TestTCPTwoWayBulkFinishes sends requests and replies that together far
// outgrow the socket buffers, in both directions at once: the client's pump
// blocks writing a large batch while large replies come back. The server's
// connection reader must never wait on its own writes, or neither side
// reads and both wait for good.
func TestTCPTwoWayBulkFinishes(t *testing.T) {
	c, s := newEngines(t, stable.Options{})
	tcp, err := ListenTCP("127.0.0.1:0", s, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	const n, size = 96, 256 << 10
	args := make([]byte, size)
	promises := make([]*qrpc.Promise, n)
	for i := range promises {
		if promises[i], err = c.Enqueue("echo", args, qrpc.PriorityNormal, 0); err != nil {
			t.Fatal(err)
		}
	}
	tc := DialTCP(tcp.Addr(), c, nil, TCPClientOptions{})
	defer tc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i, p := range promises {
		res, err := p.Wait(ctx)
		if err != nil {
			t.Fatalf("request %d of %d: %v", i+1, n, err)
		}
		if len(res) != size+2 {
			t.Fatalf("request %d: %d-byte reply", i+1, len(res))
		}
	}
}

// TestTCPQueuedRequestsCrossAsOneFrame pins the transport-level batching
// guarantee: N requests queued while disconnected cross the TCP connection
// as ONE top-level frame (a FrameBatch) after the Hello — one write
// syscall, one frame header — not N separate frames. The far end here is a
// raw listener counting stream frames, so the assertion is about bytes on
// the wire, not engine bookkeeping.
func TestTCPQueuedRequestsCrossAsOneFrame(t *testing.T) {
	c, _ := newEngines(t, stable.Options{})
	const n = 7
	for i := 0; i < n; i++ {
		if _, err := c.Enqueue("echo", []byte{byte(i)}, qrpc.PriorityNormal, 0); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan []wire.Frame, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := wire.NewStreamReader(bufio.NewReader(conn))
		var fs []wire.Frame
		for len(fs) < 2 {
			f, err := r.Next()
			if err != nil {
				return
			}
			fs = append(fs, f)
		}
		got <- fs
	}()
	tc := DialTCP(ln.Addr().String(), c, nil, TCPClientOptions{})
	defer tc.Close()

	select {
	case fs := <-got:
		if fs[0].Type != wire.FrameHello {
			t.Fatalf("first frame = %v, want Hello", fs[0].Type)
		}
		if fs[1].Type != wire.FrameBatch {
			t.Fatalf("queued requests crossed as %v, want one FrameBatch", fs[1].Type)
		}
		subs, err := wire.UnbatchFrames(fs[1].Payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(subs) != n {
			t.Fatalf("batch carries %d frames, want %d", len(subs), n)
		}
		for i, sf := range subs {
			if sf.Type != wire.FrameRequest {
				t.Fatalf("batch[%d] = %v, want FrameRequest", i, sf.Type)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for the connection's first two frames")
	}
}

// TestServerManySessionsOrdering runs many client sessions against one
// server concurrently, each over a Pipe of its own, under -race: each
// session's requests must execute serially in enqueue order (per-connection
// FIFO through batching and frame runs), exactly once, while sessions
// interleave freely with each other.
func TestServerManySessionsOrdering(t *testing.T) {
	srv := qrpc.NewServer(qrpc.ServerConfig{ServerID: "srv"})
	defer srv.Close()
	var mu sync.Mutex
	execOrder := make(map[string][]uint64)
	srv.Register("work", func(clientID string, req qrpc.Request) ([]byte, error) {
		mu.Lock()
		execOrder[clientID] = append(execOrder[clientID], req.Seq)
		mu.Unlock()
		return req.Args, nil
	})

	const sessions = 6
	const perSession = 40
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			cli, err := qrpc.NewClient(qrpc.ClientConfig{
				ClientID: fmt.Sprintf("c%d", s),
				Log:      stable.NewMemLog(stable.Options{}),
			})
			if err != nil {
				t.Error(err)
				return
			}
			p := NewPipe(cli, srv, nil)
			defer p.Close()
			p.SetConnected(true)
			promises := make([]*qrpc.Promise, 0, perSession)
			for i := 0; i < perSession; i++ {
				pr, err := cli.Enqueue("work", []byte{byte(i)}, qrpc.PriorityNormal, 0)
				if err != nil {
					t.Error(err)
					return
				}
				promises = append(promises, pr)
			}
			for i, pr := range promises {
				res := waitResult(t, pr)
				if len(res) != 1 || res[0] != byte(i) {
					t.Errorf("session %d result[%d] = %v", s, i, res)
				}
			}
		}(s)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	total := 0
	for id, seqs := range execOrder {
		total += len(seqs)
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				t.Fatalf("session %s executed out of order: seq %d after %d", id, seqs[i], seqs[i-1])
			}
		}
	}
	if total != sessions*perSession {
		t.Errorf("executed %d requests, want %d (exactly once)", total, sessions*perSession)
	}
}

// TestServerFaultedExactlyOnce subjects a server shared by several sessions
// to seeded duplicate/reorder frame faults in both directions — duplicated
// request batches, reordered replies — plus client retransmissions, and
// requires at-most-once execution to hold: every request completes, and no
// (session, seq) pair runs twice.
func TestServerFaultedExactlyOnce(t *testing.T) {
	srv := qrpc.NewServer(qrpc.ServerConfig{ServerID: "srv"})
	defer srv.Close()
	var mu sync.Mutex
	execCount := make(map[string]int)
	srv.Register("work", func(clientID string, req qrpc.Request) ([]byte, error) {
		mu.Lock()
		execCount[fmt.Sprintf("%s/%d", clientID, req.Seq)]++
		mu.Unlock()
		return req.Args, nil
	})

	const sessions = 4
	const perSession = 30
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			cli, err := qrpc.NewClient(qrpc.ClientConfig{
				ClientID: fmt.Sprintf("f%d", s),
				Log:      stable.NewMemLog(stable.Options{}),
			})
			if err != nil {
				t.Error(err)
				return
			}
			p := NewPipe(cli, srv, nil)
			defer p.Close()
			p.SetFaults(
				faults.NewFrameFaults(int64(100+s), faults.FrameFaultRates{Dup: 0.2, Reorder: 0.3}),
				faults.NewFrameFaults(int64(200+s), faults.FrameFaultRates{Dup: 0.2, Reorder: 0.3}),
			)
			p.SetConnected(true)
			promises := make([]*qrpc.Promise, 0, perSession)
			for i := 0; i < perSession; i++ {
				pr, err := cli.Enqueue("work", []byte{byte(i)}, qrpc.PriorityNormal, 0)
				if err != nil {
					t.Error(err)
					return
				}
				promises = append(promises, pr)
			}
			// Reordering can delay the Hello past early requests (which the
			// server then drops as session-less); retransmission recovers
			// them, as it would over a real lossy link.
			clock := clockOrDefault(nil)
			deadline := time.Now().Add(10 * time.Second)
			for _, pr := range promises {
				for {
					if res, err, ok := pr.Result(); ok {
						if err != nil || len(res) != 1 {
							t.Errorf("session %d: result %v, %v", s, res, err)
						}
						break
					}
					if time.Now().After(deadline) {
						t.Errorf("session %d: timed out awaiting replies", s)
						return
					}
					cli.RetryStale(clock.Now(), 50*time.Millisecond)
					time.Sleep(5 * time.Millisecond)
				}
			}
		}(s)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(execCount) != sessions*perSession {
		t.Errorf("%d distinct requests executed, want %d", len(execCount), sessions*perSession)
	}
	for key, n := range execCount {
		if n != 1 {
			t.Errorf("request %s executed %d times, want exactly once", key, n)
		}
	}
}
