package qrpc

import (
	"context"
	"sync"
)

// A Promise is the handle returned by a non-blocking QRPC. The paper
// borrows the construct from Liskov & Shrira: "Import returns a promise.
// Applications can wait on this promise or continue computation. The
// callback will be invoked upon arrival of the imported object."
//
// Promises work identically under real and virtual time: completion
// closes a channel, so real-time callers Wait (or select on Done), while
// simulation code inspects Ready after the scheduler runs.
type Promise struct {
	seq  uint64
	done chan struct{}

	mu       sync.Mutex
	result   []byte
	err      error
	complete bool
	onDone   []func(*Promise)
}

// init readies a promise in place: the client's Promise lives inside the
// pending request it stands for, one allocation for both.
func (p *Promise) init(seq uint64) {
	p.seq, p.done = seq, make(chan struct{})
}

// Seq returns the request's sequence number (useful in logs and tests).
func (p *Promise) Seq() uint64 { return p.seq }

// Done returns a channel closed when the promise completes.
func (p *Promise) Done() <-chan struct{} { return p.done }

// Ready reports whether the promise has completed.
func (p *Promise) Ready() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.complete
}

// Result returns the outcome. It is only meaningful once the promise is
// ready; before that it returns (nil, nil) and ok=false.
func (p *Promise) Result() (result []byte, err error, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.result, p.err, p.complete
}

// Wait blocks until completion or context cancellation.
func (p *Promise) Wait(ctx context.Context) ([]byte, error) {
	select {
	case <-p.done:
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.result, p.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// OnComplete registers fn to run when the promise completes. If it is
// already complete, fn runs immediately. Callbacks run on the engine's
// delivery path (the simulator event or the transport pump goroutine), so
// they must not block; they may re-enter the engine (enqueue follow-up
// requests), which is the paper's click-ahead pattern.
func (p *Promise) OnComplete(fn func(*Promise)) {
	p.mu.Lock()
	if p.complete {
		p.mu.Unlock()
		fn(p)
		return
	}
	p.onDone = append(p.onDone, fn)
	p.mu.Unlock()
}

// fulfill completes the promise. It is idempotent; only the first call
// wins. Callbacks run synchronously on the caller's stack, outside the
// promise lock.
func (p *Promise) fulfill(result []byte, err error) {
	p.mu.Lock()
	if p.complete {
		p.mu.Unlock()
		return
	}
	p.result = result
	p.err = err
	p.complete = true
	cbs := p.onDone
	p.onDone = nil
	close(p.done)
	p.mu.Unlock()
	for _, fn := range cbs {
		fn(p)
	}
}
