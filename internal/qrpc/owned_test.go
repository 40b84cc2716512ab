package qrpc

import (
	"bufio"
	"bytes"
	"testing"
	"unsafe"

	"rover/internal/wire"
)

// within reports whether p is a non-empty view into buf.
func within(p, buf []byte) bool {
	if len(p) == 0 {
		return false
	}
	lo, at := uintptr(unsafe.Pointer(unsafe.SliceData(buf))), uintptr(unsafe.Pointer(unsafe.SliceData(p)))
	return at >= lo && at+uintptr(len(p)) <= lo+uintptr(len(buf))
}

// received passes f through the wire, so its payload is what a receiver
// owns: bytes ReadFrame allocated.
func received(t *testing.T, f wire.Frame) wire.Frame {
	t.Helper()
	got, err := wire.ReadFrame(bufio.NewReader(bytes.NewReader(wire.EncodeFrame(f))))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestOwnedRequestArgsAlias: the server decodes a request in the frame it
// arrived in. Args is a view of that frame capped at its own length, so a
// handler appending to it cannot reach the request behind it, and Service is
// the handler table's string.
func TestOwnedRequestArgsAlias(t *testing.T) {
	h := newHarness(t, ClientConfig{}, ServerConfig{ServerID: "srv"})
	got := map[uint64]Request{}
	h.server.Register("grab", func(_ string, req Request) ([]byte, error) {
		got[req.Seq] = req
		return nil, nil
	})
	h.connect()
	f := received(t, wire.BatchFrames([]wire.Frame{
		{Type: wire.FrameRequest, Payload: wire.Marshal(&Request{Seq: 1, Service: "grab", Args: []byte("first")})},
		{Type: wire.FrameRequest, Payload: wire.Marshal(&Request{Seq: 2, Service: "grab", Args: []byte("second")})},
	}))
	h.server.OnFrame(h.sc, f, h.now)
	first, second := got[1].Args, got[2].Args
	if !within(first, f.Payload) || !within(second, f.Payload) {
		t.Fatal("Args copied out of the frame")
	}
	if cap(first) != len(first) || cap(second) != len(second) {
		t.Fatalf("Args not capped: cap %d/%d, len %d/%d", cap(first), cap(second), len(first), len(second))
	}
	_ = append(first, "XXXXXXXXXXXXXXXX"...)
	if string(second) != "second" || got[2].Service != "grab" {
		t.Fatalf("after appending to the first request's Args: second = %q, service %q", second, got[2].Service)
	}
}

// TestOwnedReplyResultAlias: the client completes a promise with a Result
// that is a view of the reply frame, capped at its own length, so appending
// to it cannot reach the error text encoded behind it.
func TestOwnedReplyResultAlias(t *testing.T) {
	h := newHarness(t, ClientConfig{}, ServerConfig{ServerID: "srv"})
	h.server.Register("echo", echoHandler)
	h.connect()
	p, err := h.client.Enqueue("echo", []byte("hi"), PriorityNormal, h.now)
	if err != nil {
		t.Fatal(err)
	}
	for len(h.cs.queue) > 0 {
		f := h.cs.queue[0]
		h.cs.queue = h.cs.queue[1:]
		h.server.OnFrame(h.sc, f, h.now)
	}
	if len(h.sc.queue) != 1 || h.sc.queue[0].Type != wire.FrameReply {
		t.Fatalf("server sent %d frames, want one reply", len(h.sc.queue))
	}
	f := received(t, h.sc.queue[0])
	h.sc.queue = nil
	before := bytes.Clone(f.Payload)
	h.client.OnFrame(f, h.now)
	res, err, ok := p.Result()
	if !ok || err != nil || string(res) != "echo:hi" {
		t.Fatalf("result %q, %v, %v", res, err, ok)
	}
	if !within(res, f.Payload) || cap(res) != len(res) {
		t.Fatalf("Result is not a capped view of the frame (cap %d, len %d)", cap(res), len(res))
	}
	_ = append(res, "XXXXXXXX"...)
	if !bytes.Equal(f.Payload, before) {
		t.Fatal("appending to Result wrote into the reply frame")
	}
}
