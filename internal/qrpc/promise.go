package qrpc

import (
	"context"
	"sync"
)

// A Future is the toolkit's one completion type: a value and an error
// that arrive once, which callers may wait on, poll, or attach hooks to —
// the three interaction styles the paper's promise discussion describes.
// A Promise is a Future over a reply's bytes; the access manager's typed
// futures are Futures over what it decodes from them.
//
// Futures work identically under real and virtual time: real-time callers
// Wait (or select on Done), while simulation code inspects Ready after the
// scheduler runs. The zero value is an incomplete future. The channel Done
// and Wait block on is made only when one of them runs before completion;
// a completed future hands out one shared closed channel.
type Future[T any] struct {
	mu       sync.Mutex
	done     chan struct{}
	val      T
	err      error
	complete bool
	hook     Hook[T]   // the first hook attached, so one needs no slice
	hooks    []Hook[T] // the rest, in attachment order
}

// A Hook is told once when the future it is attached to completes. An
// operation that waits on a reply implements it on the struct that holds
// its own future, so attaching it allocates nothing.
type Hook[T any] interface {
	Completed(v T, err error)
}

// hookFunc adapts a callback to a Hook. A func value is one word, so the
// conversion allocates nothing.
type hookFunc[T any] func(T, error)

func (fn hookFunc[T]) Completed(v T, err error) { fn(v, err) }

// closedChan is what Done hands out once a future is complete.
var closedChan = make(chan struct{})

func init() { close(closedChan) }

// Resolve completes the future successfully.
func (f *Future[T]) Resolve(v T) { f.Complete(v, nil) }

// Fail completes the future with an error.
func (f *Future[T]) Fail(err error) {
	var zero T
	f.Complete(zero, err)
}

// Complete completes the future with an outcome; only the first completion
// (Complete, Resolve or Fail) wins. Hooks run synchronously on the caller's
// stack, outside the lock, in the order they were attached.
func (f *Future[T]) Complete(v T, err error) {
	f.mu.Lock()
	if f.complete {
		f.mu.Unlock()
		return
	}
	f.val, f.err, f.complete = v, err, true
	if f.done != nil {
		close(f.done)
	}
	first, rest := f.hook, f.hooks
	f.hook, f.hooks = nil, nil
	f.mu.Unlock()
	if first != nil {
		first.Completed(v, err)
	}
	for _, h := range rest {
		h.Completed(v, err)
	}
}

// Ready reports whether the future has completed.
func (f *Future[T]) Ready() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.complete
}

// Done returns a channel closed on completion.
func (f *Future[T]) Done() <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.complete {
		return closedChan
	}
	if f.done == nil {
		f.done = make(chan struct{})
	}
	return f.done
}

// Result returns the outcome; ok is false until completion.
func (f *Future[T]) Result() (v T, err error, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.val, f.err, f.complete
}

// Wait blocks until completion or context cancellation. Cancellation
// leaves the future as it was.
func (f *Future[T]) Wait(ctx context.Context) (T, error) {
	select {
	case <-f.Done():
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.val, f.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// Attach registers h to be told of completion; it is told at once if the
// future already completed. Hooks run on the delivery path (the simulator
// event or the transport pump goroutine), so they must not block; they may
// start further requests, which is the paper's click-ahead pattern.
func (f *Future[T]) Attach(h Hook[T]) {
	f.mu.Lock()
	if f.complete {
		v, err := f.val, f.err
		f.mu.Unlock()
		h.Completed(v, err)
		return
	}
	if f.hook == nil {
		f.hook = h
	} else {
		f.hooks = append(f.hooks, h)
	}
	f.mu.Unlock()
}

// OnReady registers a completion callback, as Attach does a hook.
func (f *Future[T]) OnReady(cb func(T, error)) { f.Attach(hookFunc[T](cb)) }

// A Promise is the handle returned by a non-blocking QRPC: the Future of
// its reply's bytes. The paper borrows the construct from Liskov & Shrira:
// "Import returns a promise. Applications can wait on this promise or
// continue computation. The callback will be invoked upon arrival of the
// imported object." The client keeps each Promise inside the pending
// request it stands for, one allocation for both.
type Promise struct {
	Future[[]byte]
	seq uint64
}

// Seq returns the request's sequence number (useful in logs and tests).
func (p *Promise) Seq() uint64 { return p.seq }

// OnComplete registers fn to run when the promise completes, as OnReady
// does a callback of the result.
func (p *Promise) OnComplete(fn func(*Promise)) {
	p.OnReady(func([]byte, error) { fn(p) })
}
