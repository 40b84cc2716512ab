package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"rover/internal/stable"
)

// ErrInjected marks a failure produced by the fault layer rather than the
// real storage stack.
var ErrInjected = errors.New("faults: injected storage failure")

// LogFaultRates sets probabilities for the stable-log fault classes.
type LogFaultRates struct {
	// AppendFail fails an Append cleanly: nothing reaches the log.
	AppendFail float64
	// AppendDirty is the crash-before-ack failure: the record IS written
	// durably, but the caller sees an error. On recovery the record is
	// replayed — the client must tolerate a request it thinks it rejected
	// coming back to life (and must never reuse its sequence number).
	AppendDirty float64
	// RemoveFail fails a Remove; the record stays live and is replayed on
	// recovery (the server's reply cache absorbs the duplicate).
	RemoveFail float64
	// ReplayFail fails a Replay wholesale before yielding any record —
	// modeling an unreadable or interior-corrupt log discovered at
	// recovery time. Engines built over the log must surface this as a
	// construction failure (the QRPC server poisons itself and refuses
	// executes) rather than start from partial state.
	ReplayFail float64
}

// LogFaultStats counts injected log faults.
type LogFaultStats struct {
	AppendsFailed int64
	AppendsDirty  int64
	RemovesFailed int64
	ReplaysFailed int64
}

// Log decorates a stable.Log with seeded fault injection.
type Log struct {
	mu      sync.Mutex
	inner   stable.Log
	rng     *rand.Rand
	rates   LogFaultRates
	enabled bool
	stats   LogFaultStats
}

var _ stable.Log = (*Log)(nil)

// WrapLog builds a fault-injecting log around inner. It starts enabled.
func WrapLog(inner stable.Log, seed int64, rates LogFaultRates) *Log {
	return &Log{inner: inner, rng: rand.New(rand.NewSource(seed)), rates: rates, enabled: true}
}

// SetEnabled toggles injection (disable for a harness's drain phase).
func (l *Log) SetEnabled(on bool) {
	l.mu.Lock()
	l.enabled = on
	l.mu.Unlock()
}

// FaultStats returns a snapshot of the injected-fault counters.
func (l *Log) FaultStats() LogFaultStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Append implements stable.Log.
func (l *Log) Append(rec []byte) (uint64, error) {
	l.mu.Lock()
	if l.enabled {
		roll := l.rng.Float64()
		if roll < l.rates.AppendFail {
			l.stats.AppendsFailed++
			l.mu.Unlock()
			return 0, fmt.Errorf("%w: append", ErrInjected)
		}
		if roll < l.rates.AppendFail+l.rates.AppendDirty {
			l.stats.AppendsDirty++
			l.mu.Unlock()
			id, err := l.inner.Append(rec)
			if err != nil {
				return 0, err
			}
			return 0, fmt.Errorf("%w: dirty append (record %d persisted)", ErrInjected, id)
		}
	}
	l.mu.Unlock()
	return l.inner.Append(rec)
}

// removeFails rolls RemoveFail and counts the failure it injects.
func (l *Log) removeFails() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.enabled && l.rng.Float64() < l.rates.RemoveFail {
		l.stats.RemovesFailed++
		return true
	}
	return false
}

// Remove implements stable.Log.
func (l *Log) Remove(id uint64) error {
	if l.removeFails() {
		return fmt.Errorf("%w: remove %d", ErrInjected, id)
	}
	return l.inner.Remove(id)
}

// RemoveNoSync implements stable.Log; RemoveFail applies to it as to Remove.
func (l *Log) RemoveNoSync(id uint64) error {
	if l.removeFails() {
		return fmt.Errorf("%w: remove %d", ErrInjected, id)
	}
	return l.inner.RemoveNoSync(id)
}

// RemoveBatch implements stable.Log. RemoveFail is rolled once for the
// batch: it is one write and one flush underneath, so it fails whole.
func (l *Log) RemoveBatch(ids []uint64) error {
	if l.removeFails() {
		return fmt.Errorf("%w: remove of %d records", ErrInjected, len(ids))
	}
	return l.inner.RemoveBatch(ids)
}

// Replay implements stable.Log.
func (l *Log) Replay(fn func(id uint64, rec []byte) error) error {
	l.mu.Lock()
	if l.enabled && l.rng.Float64() < l.rates.ReplayFail {
		l.stats.ReplaysFailed++
		l.mu.Unlock()
		return fmt.Errorf("%w: replay", ErrInjected)
	}
	l.mu.Unlock()
	return l.inner.Replay(fn)
}

// Len implements stable.Log.
func (l *Log) Len() int { return l.inner.Len() }

// Cost implements stable.Log.
func (l *Log) Cost() time.Duration { return l.inner.Cost() }

// Commit implements stable.Log.
func (l *Log) Commit() error { return l.inner.Commit() }

// Stats implements stable.Log.
func (l *Log) Stats() stable.Stats { return l.inner.Stats() }

// Close implements stable.Log.
func (l *Log) Close() error { return l.inner.Close() }

// Inner returns the wrapped log (harnesses rebuild engines around it after
// a simulated crash).
func (l *Log) Inner() stable.Log { return l.inner }
