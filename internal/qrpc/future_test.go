package qrpc

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"
)

// recordHook is a Hook that appends its name to a shared log.
type recordHook struct {
	name string
	log  *[]string
}

func (h *recordHook) Completed([]byte, error) { *h.log = append(*h.log, h.name) }

// TestFutureHooksFireOnceInOrder: on one promise, hooks, OnReady callbacks
// and OnComplete callbacks fire exactly once each, in the order they were
// registered, and a second completion changes nothing.
func TestFutureHooksFireOnceInOrder(t *testing.T) {
	h := newHarness(t, ClientConfig{}, ServerConfig{})
	h.server.Register("echo", echoHandler)
	p, err := h.client.Enqueue("echo", []byte("x"), PriorityNormal, h.now)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	p.Attach(&recordHook{"hook-1", &got})
	p.OnReady(func([]byte, error) { got = append(got, "ready-2") })
	p.OnComplete(func(*Promise) { got = append(got, "complete-3") })
	p.Attach(&recordHook{"hook-4", &got})
	p.OnReady(func([]byte, error) { got = append(got, "ready-5") })
	if len(got) != 0 {
		t.Fatalf("fired before completion: %v", got)
	}
	h.connect()
	want := []string{"hook-1", "ready-2", "complete-3", "hook-4", "ready-5"}
	if !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	p.Fail(errors.New("late"))
	p.Resolve([]byte("later"))
	if !slices.Equal(got, want) {
		t.Fatalf("a second completion fired again: %v", got)
	}
	if res, err, ok := p.Result(); !ok || err != nil || string(res) != "echo:x" {
		t.Fatalf("Result = %q, %v, %v: the first completion must stand", res, err, ok)
	}
}

// TestFutureHookAfterCompletionRunsInline: a hook or callback registered on
// a completed future runs before the registering call returns, on the
// caller's goroutine, with the outcome.
func TestFutureHookAfterCompletionRunsInline(t *testing.T) {
	var f Future[int]
	f.Resolve(7)
	var got []string
	ran := false
	f.OnReady(func(v int, err error) { ran = v == 7 && err == nil })
	if !ran {
		t.Fatal("OnReady on a completed future did not run inline with its value")
	}
	var p Promise
	p.Fail(ErrCancelled)
	p.Attach(&recordHook{"late", &got})
	p.OnComplete(func(*Promise) { got = append(got, "late-complete") })
	if !slices.Equal(got, []string{"late", "late-complete"}) {
		t.Fatalf("late registrations ran %v", got)
	}
}

// TestFutureDoneCloses: a Done channel taken before completion closes when
// the future completes; one taken after is closed already.
func TestFutureDoneCloses(t *testing.T) {
	var f Future[string]
	before := f.Done()
	select {
	case <-before:
		t.Fatal("Done closed before completion")
	default:
	}
	go f.Resolve("v")
	select {
	case <-before:
	case <-time.After(5 * time.Second):
		t.Fatal("Done taken before completion never closed")
	}
	select {
	case <-f.Done():
	default:
		t.Fatal("Done taken after completion is not closed")
	}
}

// TestFutureWaitersSeeValue: every waiter Wait releases sees the value and
// everything written before the future completed (the race detector checks
// the second half).
func TestFutureWaitersSeeValue(t *testing.T) {
	type result struct{ a, b int }
	var f Future[*result]
	const waiters = 8
	var wg sync.WaitGroup
	errs := make(chan string, waiters)
	for range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := f.Wait(context.Background())
			if err != nil || r == nil || r.a != 1 || r.b != 2 {
				errs <- "waiter saw an incomplete value"
			}
		}()
	}
	r := &result{}
	r.a, r.b = 1, 2
	f.Resolve(r)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestFutureCancelledWaitLeavesIncomplete: a Wait whose context ends
// returns the context's error and leaves the future incomplete; a later
// completion still reaches a later Wait.
func TestFutureCancelledWaitLeavesIncomplete(t *testing.T) {
	var f Future[int]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on a cancelled context = %v", err)
	}
	if f.Ready() {
		t.Fatal("a cancelled Wait completed the future")
	}
	if _, _, ok := f.Result(); ok {
		t.Fatal("Result reports completion after a cancelled Wait")
	}
	f.Resolve(3)
	if v, err := f.Wait(context.Background()); v != 3 || err != nil {
		t.Fatalf("Wait after completion = %v, %v", v, err)
	}
}
