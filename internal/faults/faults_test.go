package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rover/internal/stable"
	"rover/internal/wire"
)

func TestRetryPolicyBackoffGrowsAndCaps(t *testing.T) {
	p := RetryPolicy{Initial: 50 * time.Millisecond, Max: time.Second, Multiplier: 2}
	want := []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, time.Second, time.Second,
	}
	for i, w := range want {
		if got := p.Backoff(i); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", i, got, w)
		}
	}
	// Huge attempt counts must not overflow past the cap.
	if got := p.Backoff(10_000); got != time.Second {
		t.Errorf("Backoff(10000) = %v, want cap %v", got, time.Second)
	}
	// Zero value selects the documented defaults.
	var zero RetryPolicy
	if got := zero.Backoff(0); got != 50*time.Millisecond {
		t.Errorf("zero policy Backoff(0) = %v, want 50ms", got)
	}
	if got := zero.Backoff(100); got != 5*time.Second {
		t.Errorf("zero policy Backoff(100) = %v, want 5s", got)
	}
}

func TestRetryPolicyJitterBounds(t *testing.T) {
	p := RetryPolicy{Initial: 100 * time.Millisecond, Max: time.Second, Multiplier: 2, Jitter: DefaultJitter}
	rng := rand.New(rand.NewSource(7))
	lo := time.Duration(float64(100*time.Millisecond) * (1 - DefaultJitter))
	hi := time.Duration(float64(100*time.Millisecond) * (1 + DefaultJitter))
	varied := false
	for i := 0; i < 200; i++ {
		d := p.JitteredBackoff(0, rng)
		if d < lo || d > hi {
			t.Fatalf("JitteredBackoff(0) = %v outside [%v, %v]", d, lo, hi)
		}
		if d != 100*time.Millisecond {
			varied = true
		}
	}
	if !varied {
		t.Error("jitter never varied the delay")
	}
	// No rng or no jitter: deterministic.
	if d := p.JitteredBackoff(0, nil); d != 100*time.Millisecond {
		t.Errorf("JitteredBackoff with nil rng = %v, want 100ms", d)
	}
}

func TestRetryPolicyEdgeCases(t *testing.T) {
	p := RetryPolicy{Initial: 80 * time.Millisecond, Max: time.Second, Multiplier: 2}
	// Negative attempts clamp to the first retry, never panic or underflow.
	for _, a := range []int{-1, -100} {
		if got := p.Backoff(a); got != 80*time.Millisecond {
			t.Errorf("Backoff(%d) = %v, want Initial", a, got)
		}
	}
	// Max below Initial normalizes upward: the cap never undercuts the floor.
	inv := RetryPolicy{Initial: time.Second, Max: 10 * time.Millisecond, Multiplier: 2}
	if got := inv.Backoff(0); got != time.Second {
		t.Errorf("inverted policy Backoff(0) = %v, want Initial", got)
	}
	if got := inv.Backoff(50); got != time.Second {
		t.Errorf("inverted policy Backoff(50) = %v, want normalized cap", got)
	}
	// Multiplier <= 1 normalizes to the default 2 (no stuck-flat retries).
	flat := RetryPolicy{Initial: 10 * time.Millisecond, Max: time.Second, Multiplier: 0.5}
	if got := flat.Backoff(1); got != 20*time.Millisecond {
		t.Errorf("flat policy Backoff(1) = %v, want 20ms", got)
	}
	// Jitter amplitude > 1 clamps the scale factor at zero: delays may hit
	// 0 but never go negative.
	wild := RetryPolicy{Initial: 100 * time.Millisecond, Max: time.Second, Multiplier: 2, Jitter: 5}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		if d := wild.JitteredBackoff(0, rng); d < 0 || d > 600*time.Millisecond {
			t.Fatalf("JitteredBackoff with Jitter=5 = %v, want [0, 600ms]", d)
		}
	}
	// Jittered delays respect the Max cap scaled by the amplitude.
	capped := RetryPolicy{Initial: 100 * time.Millisecond, Max: time.Second, Multiplier: 2, Jitter: DefaultJitter}
	hi := time.Duration(float64(time.Second) * (1 + DefaultJitter))
	for i := 0; i < 200; i++ {
		if d := capped.JitteredBackoff(30, rng); d > hi {
			t.Fatalf("JitteredBackoff(30) = %v exceeds jittered cap %v", d, hi)
		}
	}
}

// TestRetryPolicyConcurrent shares one policy VALUE across goroutines (as
// the transports do), each with its own rng, and checks bounds under the
// race detector: RetryPolicy methods must be safe for concurrent use.
func TestRetryPolicyConcurrent(t *testing.T) {
	p := RetryPolicy{Initial: 20 * time.Millisecond, Max: 500 * time.Millisecond, Multiplier: 2, Jitter: DefaultJitter}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 1000; i++ {
				att := i % 12
				base := p.Backoff(att)
				lo := time.Duration(float64(base) * (1 - p.Jitter))
				hi := time.Duration(float64(base) * (1 + p.Jitter))
				if d := p.JitteredBackoff(att, rng); d < lo || d > hi {
					select {
					case errs <- fmt.Errorf("goroutine %d: JitteredBackoff(%d) = %v outside [%v, %v]", seed, att, d, lo, hi):
					default:
					}
					return
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestFrameFaultsDeterministicPerSeed(t *testing.T) {
	rates := FrameFaultRates{Drop: 0.2, Dup: 0.1, Reorder: 0.1, Corrupt: 0.1, Delay: 0.1, MaxDelay: 20 * time.Millisecond}
	run := func(seed int64) []int {
		ff := NewFrameFaults(seed, rates)
		var shape []int
		for i := 0; i < 300; i++ {
			out, d := ff.Apply(wire.Frame{Type: wire.FrameRequest, Payload: []byte{byte(i), byte(i >> 8)}})
			n := len(out)
			if d > 0 {
				n += 1000 // fold the delay decision into the shape
			}
			shape = append(shape, n)
		}
		return shape
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at frame %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

// collectSender records delivered frames.
type collectSender struct{ frames []wire.Frame }

func (s *collectSender) SendFrame(f wire.Frame) bool {
	s.frames = append(s.frames, f)
	return true
}

func TestFrameFaultsConservesOrCorrupts(t *testing.T) {
	// With only drop disabled, every input frame must either arrive intact
	// (possibly duplicated/reordered/delayed) or be counted as corrupted:
	// corruption must never deliver a damaged frame past the CRC.
	ff := NewFrameFaults(9, FrameFaultRates{Dup: 0.2, Reorder: 0.2, Corrupt: 0.3})
	sink := &collectSender{}
	s := WrapSender(sink, ff, nil)
	const n = 500
	sent := make(map[string]int)
	for i := 0; i < n; i++ {
		payload := []byte{byte(i), byte(i >> 8), 0xAB}
		sent[string(payload)]++
		if !s.SendFrame(wire.Frame{Type: wire.FrameRequest, Payload: payload}) {
			t.Fatal("SendFrame reported failure")
		}
	}
	got := make(map[string]int)
	for _, f := range sink.frames {
		if f.Type != wire.FrameRequest {
			t.Fatalf("frame type mutated to %d", f.Type)
		}
		got[string(f.Payload)]++
	}
	for p := range got {
		if sent[p] == 0 {
			t.Fatal("delivered a frame that was never sent")
		}
	}
	st := ff.Stats()
	delivered := int64(0)
	for _, c := range got {
		delivered += int64(c)
	}
	// Every frame is delivered unless dropped or corrupted; duplication adds
	// one copy; at stream end at most one frame may still be held for
	// reordering.
	want := int64(n) - st.Dropped - st.Corrupted + st.Duplicated
	if delivered != want && delivered != want-1 {
		t.Errorf("delivered %d frames, want %d (or %d with one held), stats %+v", delivered, want, want-1, st)
	}
	if st.Corrupted == 0 {
		t.Error("corruption never triggered across 500 frames at rate 0.3")
	}
}

func TestFrameFaultsDisabledPassesThrough(t *testing.T) {
	ff := NewFrameFaults(1, FrameFaultRates{Drop: 1})
	ff.SetEnabled(false)
	sink := &collectSender{}
	s := WrapSender(sink, ff, nil)
	for i := 0; i < 10; i++ {
		s.SendFrame(wire.Frame{Type: wire.FramePing})
	}
	if len(sink.frames) != 10 {
		t.Fatalf("disabled faults delivered %d/10 frames", len(sink.frames))
	}
}

// liveLen counts l's live records.
func liveLen(l stable.Log) int {
	n := 0
	l.Replay(func(uint64, []byte) error { n++; return nil })
	return n
}

func TestLogFaultsCleanAndDirtyAppend(t *testing.T) {
	inner := stable.NewMemLog(stable.Options{})
	// Force the fault classes deterministically by using rate 1 for one
	// class at a time.
	clean := WrapLog(inner, 1, LogFaultRates{AppendFail: 1})
	if _, err := clean.Append([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("clean append fail: err = %v", err)
	}
	if n := liveLen(inner); n != 0 {
		t.Fatalf("clean failure wrote a record: %d live", n)
	}

	dirty := WrapLog(inner, 1, LogFaultRates{AppendDirty: 1})
	if _, err := dirty.Append([]byte("y")); !errors.Is(err, ErrInjected) {
		t.Fatalf("dirty append fail: err = %v", err)
	}
	if n := liveLen(inner); n != 1 {
		t.Fatalf("dirty failure must persist the record: %d live", n)
	}

	rm := WrapLog(inner, 1, LogFaultRates{RemoveFail: 1})
	var id uint64
	inner.Replay(func(i uint64, rec []byte) error { id = i; return nil })
	if err := rm.RemoveNoSync(id, id+1); !errors.Is(err, ErrInjected) {
		t.Fatalf("remove fail: err = %v", err)
	}
	if n := liveLen(inner); n != 1 {
		t.Fatalf("failed remove must leave the record: %d live", n)
	}
	if st := rm.FaultStats(); st.RemovesFailed != 1 {
		t.Fatalf("RemovesFailed = %d, want 1 for the one call", st.RemovesFailed)
	}
	rm.SetEnabled(false)
	if err := rm.RemoveNoSync(id); err != nil || liveLen(inner) != 0 {
		t.Fatalf("disabled faults: RemoveNoSync = %v, %d live", err, liveLen(inner))
	}
	if err := rm.RemoveNoSync(id); err != nil {
		t.Fatalf("disabled faults: RemoveNoSync of the removed record = %v, want a no-op", err)
	}
	st := clean.FaultStats()
	if st.AppendsFailed != 1 {
		t.Errorf("AppendsFailed = %d, want 1", st.AppendsFailed)
	}
}

// A dirty staged append is a dirty append: the error comes back, but only
// after the record is durable, so recovery finds it.
func TestLogFaultsDirtyAppendNoSyncIsDurable(t *testing.T) {
	inner := stable.NewMemLog(stable.Options{})
	dirty := WrapLog(inner, 1, LogFaultRates{AppendDirty: 1})
	if _, err := dirty.AppendNoSync([]byte("staged")); !errors.Is(err, ErrInjected) {
		t.Fatalf("dirty staged append: err = %v, want ErrInjected", err)
	}
	if st := inner.Stats(); st.Appends != 1 || st.Syncs != 1 {
		t.Fatalf("inner log: %d appends, %d syncs, want the record written and flushed", st.Appends, st.Syncs)
	}
	var got []string
	if err := dirty.Replay(func(_ uint64, rec []byte) error { got = append(got, string(rec)); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "staged" {
		t.Fatalf("replay = %q, want the dirty record", got)
	}
	if st := dirty.FaultStats(); st.AppendsDirty != 1 {
		t.Errorf("AppendsDirty = %d, want 1", st.AppendsDirty)
	}

	clean := WrapLog(inner, 1, LogFaultRates{AppendFail: 1})
	if _, err := clean.AppendNoSync([]byte("lost")); !errors.Is(err, ErrInjected) || liveLen(inner) != 1 {
		t.Fatalf("clean staged append fail: err = %v, %d live", err, liveLen(inner))
	}
}

func TestCrasherRespectsMaxAndSeed(t *testing.T) {
	c := NewCrasher(5, 0.5, 3)
	fires := 0
	for i := 0; i < 1000; i++ {
		if c.Strike() {
			fires++
		}
	}
	if fires != 3 || c.Crashes() != 3 {
		t.Fatalf("fires = %d, Crashes = %d, want 3", fires, c.Crashes())
	}
	// Determinism: same seed, same strike pattern.
	a, b := NewCrasher(11, 0.3, 1000), NewCrasher(11, 0.3, 1000)
	for i := 0; i < 200; i++ {
		if a.Strike() != b.Strike() {
			t.Fatalf("same-seed crashers diverged at opportunity %d", i)
		}
	}
}

func TestLogFaultsReplayFail(t *testing.T) {
	inner := stable.NewMemLog(stable.Options{})
	if _, err := inner.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	l := WrapLog(inner, 7, LogFaultRates{ReplayFail: 1})
	err := l.Replay(func(uint64, []byte) error { t.Fatal("record yielded before injected failure"); return nil })
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Replay = %v, want injected", err)
	}
	if got := l.FaultStats().ReplaysFailed; got != 1 {
		t.Errorf("ReplaysFailed = %d, want 1", got)
	}
	l.SetEnabled(false)
	n := 0
	if err := l.Replay(func(uint64, []byte) error { n++; return nil }); err != nil || n != 1 {
		t.Fatalf("disabled faults: Replay = %v, n = %d", err, n)
	}
}
