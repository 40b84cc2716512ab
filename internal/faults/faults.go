// Package faults is Rover's deterministic fault-injection layer.
//
// The paper's promise is that Rover applications "continue to operate
// despite intermittent network connectivity" — which makes link failure and
// storage failure the common case to engineer against, not an edge case.
// This package provides seedable decorators that inject those failures into
// the existing interfaces, so the same engine code that runs in production
// can be driven through randomized fault schedules reproducibly:
//
//   - FrameFaults / WrapSender: drop, duplicate, reorder, corrupt, and delay
//     frames on their way into any qrpc.Sender (the Pipe, Sim, and Mail
//     transports expose hooks that install it).
//   - Log: wraps a stable.Log with injected append failures — including the
//     nasty "dirty" failure where the record reaches the disk but the caller
//     sees an error (crash-before-ack) — and remove failures.
//   - Crasher: a seeded schedule of process-crash points for harnesses that
//     kill and rebuild engines mid-drain.
//   - RetryPolicy: the one shared backoff policy (exponential + jitter +
//     cap) adopted by the TCP reconnect loop, the simulator's retransmission
//     clock, and the mail queue runner, so retry behavior is consistent and
//     tunable in one place.
//
// Everything is seeded: the same seed produces the same fault schedule, so a
// failing chaos schedule (internal/chaos's TestChaos) is reproducible from
// the replay line it logs.
package faults

import (
	"math"
	"math/rand"
	"time"
)

// RetryPolicy is the shared retry/backoff policy: exponential growth from
// Initial by Multiplier per attempt, capped at Max, with optional
// proportional jitter. The zero value selects the defaults below.
type RetryPolicy struct {
	// Initial is the delay before the first retry (default 50ms).
	Initial time.Duration
	// Max caps the grown delay (default 5s).
	Max time.Duration
	// Multiplier is the per-attempt growth factor (default 2).
	Multiplier float64
	// Jitter is the proportional jitter amplitude for JitteredBackoff: the
	// delay is scaled by a uniform factor in [1-Jitter, 1+Jitter]. Zero (the
	// default) means no jitter — deterministic callers (the simulator) rely
	// on that; real-network callers should set it (DefaultJitter breaks up
	// thundering herds against a restarted server).
	Jitter float64
}

// DefaultJitter is the jitter amplitude used by the real-network transports.
const DefaultJitter = 0.2

func (p RetryPolicy) norm() RetryPolicy {
	if p.Initial <= 0 {
		p.Initial = 50 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 5 * time.Second
	}
	if p.Max < p.Initial {
		p.Max = p.Initial
	}
	if p.Multiplier <= 1 {
		p.Multiplier = 2
	}
	return p
}

// Backoff returns the deterministic (jitter-free) delay before retry number
// attempt, counting from 0: Initial·Multiplier^attempt, capped at Max.
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	p = p.norm()
	if attempt < 0 {
		attempt = 0
	}
	d := float64(p.Initial) * math.Pow(p.Multiplier, float64(attempt))
	if d > float64(p.Max) || math.IsInf(d, 1) || math.IsNaN(d) {
		return p.Max
	}
	return time.Duration(d)
}

// JitteredBackoff returns Backoff(attempt) scaled by a uniform factor in
// [1-Jitter, 1+Jitter] drawn from rng. With zero Jitter or a nil rng it is
// identical to Backoff.
func (p RetryPolicy) JitteredBackoff(attempt int, rng *rand.Rand) time.Duration {
	d := p.Backoff(attempt)
	if p.Jitter <= 0 || rng == nil {
		return d
	}
	f := 1 + p.Jitter*(2*rng.Float64()-1)
	if f < 0 {
		f = 0
	}
	return time.Duration(float64(d) * f)
}
