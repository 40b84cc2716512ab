package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"rover/internal/gateway"
	"rover/internal/store"
)

// startGateway serves an empty store's gateway the way main does.
func startGateway(t *testing.T) (*http.Server, string) {
	t.Helper()
	hs, addr, err := serveHTTP("127.0.0.1:0", gateway.Handler(store.New(), "demo", gateway.Peer{}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hs.Close() })
	return hs, addr.String()
}

// TestHTTPCloseWithIdleClient: a browser's preconnect, a connection that
// sends nothing, must not keep the gateway, and so the server's shutdown,
// from closing.
func TestHTTPCloseWithIdleClient(t *testing.T) {
	hs, addr := startGateway(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A request on a second connection proves the first was accepted.
	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	closed := make(chan error, 1)
	go func() { closed <- hs.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close still waiting after 1s on an idle connection")
	}
}

// TestHTTPRefusesHugeHeader: a header line that never ends is refused
// (431, or the connection closed) rather than buffered without bound.
func TestHTTPRefusesHugeHeader(t *testing.T) {
	_, addr := startGateway(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The write may fail part way when the server gives up first; the
	// read below reports what it said.
	_, _ = io.WriteString(conn, "GET / HTTP/1.1\r\nHost: x\r\nX-Big: "+strings.Repeat("a", 2<<20))
	status, err := bufio.NewReader(conn).ReadString('\n')
	var ne net.Error
	switch {
	case strings.HasPrefix(status, "HTTP/1.1 431 "):
	case errors.As(err, &ne) && ne.Timeout():
		t.Fatal("no answer within 5s to a 2 MiB header line")
	case err != nil:
		// Connection closed or reset: refused.
	default:
		t.Fatalf("answered %q, want 431 or a closed connection", status)
	}
}
