package compress

import (
	"bytes"
	"compress/flate"
	"crypto/rand"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// freshDeflate is the reference the cached path must match byte for byte:
// a writer built for this one input, as every call built before contexts
// were kept.
func freshDeflate(t testing.TB, p []byte) []byte {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mailish returns n bytes that compress about as mail folders do.
func mailish(n int) []byte {
	var b bytes.Buffer
	for i := 0; b.Len() < n; i++ {
		fmt.Fprintf(&b, "From: user%d@rover.example\nSubject: re: queued rpc %d\n\nbody line %d\n", i%7, i, i*i)
	}
	return b.Bytes()[:n]
}

func TestDeflateRoundTrip(t *testing.T) {
	p := bytes.Repeat([]byte("rover wire frame "), 200)
	c, ok := AppendDeflate(nil, p)
	if !ok {
		t.Fatalf("AppendDeflate declined compressible input")
	}
	if len(c) >= len(p) {
		t.Fatalf("AppendDeflate output not smaller: %d >= %d", len(c), len(p))
	}
	got, err := Inflate(c, len(p))
	if err != nil {
		t.Fatalf("Inflate: %v", err)
	}
	if !bytes.Equal(got, p) {
		t.Fatalf("round trip mismatch")
	}
}

func TestDeflateAppends(t *testing.T) {
	p := mailish(1024)
	c, ok := AppendDeflate([]byte("hdr"), p)
	if !ok || !bytes.Equal(c[:3], []byte("hdr")) || !bytes.Equal(c[3:], freshDeflate(t, p)) {
		t.Fatalf("AppendDeflate(hdr, p) = %d bytes, ok=%v: not hdr + deflate(p)", len(c), ok)
	}
}

func TestDeflateSkipsIncompressible(t *testing.T) {
	p := make([]byte, 4096)
	if _, err := rand.Read(p); err != nil {
		t.Fatal(err)
	}
	if c, ok := AppendDeflate([]byte("hdr"), p); ok || string(c) != "hdr" {
		t.Fatalf("AppendDeflate claimed to shrink random bytes (ok=%v, %d bytes)", ok, len(c))
	}
}

func TestInflateCap(t *testing.T) {
	p := bytes.Repeat([]byte{'x'}, 10_000)
	c, ok := AppendDeflate(nil, p)
	if !ok {
		t.Fatalf("AppendDeflate declined")
	}
	if _, err := Inflate(c, len(p)-1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Inflate under cap: err=%v, want ErrTooLarge", err)
	}
	if got, err := Inflate(c, len(p)); err != nil || len(got) != len(p) {
		t.Fatalf("Inflate at cap: %d bytes, err=%v", len(got), err)
	}
}

func TestInflateGarbage(t *testing.T) {
	if _, err := Inflate([]byte{0xff, 0x00, 0x12, 0x34}, 1024); err == nil {
		t.Fatalf("Inflate accepted garbage")
	}
}

// A stream followed by anything is not that stream: a mangled tail must not
// pass just because the inflated length still matches.
func TestInflateTrailingBytes(t *testing.T) {
	p := mailish(2048)
	c, _ := AppendDeflate(nil, p)
	for _, tail := range []string{"\x00", "JUNKJUNK"} {
		if _, err := Inflate(append(c[:len(c):len(c)], tail...), len(p)); !errors.Is(err, ErrTrailing) {
			t.Errorf("Inflate(stream+%q): err=%v, want ErrTrailing", tail, err)
		}
	}
	if got, err := Inflate(c, len(p)); err != nil || !bytes.Equal(got, p) {
		t.Fatalf("Inflate after rejected tails: err=%v", err)
	}
}

// The bound on the output comes from a header the sender wrote; the size of
// the first allocation must not.
func TestInflateDoesNotPresize(t *testing.T) {
	c, _ := AppendDeflate(nil, bytes.Repeat([]byte{'x'}, 100))
	Inflate(c, 1<<25) // warm
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Inflate(c, 1<<25); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("Inflate of %d bytes with max 32 MiB allocated %d bytes", len(c), got)
	}
}

// TestDeflateSteadyState pins what keeping the contexts buys: a warm call
// allocates its result and little else, where building a writer per call
// zeroed ~1.2 MB.
func TestDeflateSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards Puts at random under the race detector")
	}
	p := mailish(1024)
	c, _ := AppendDeflate(nil, p)
	// AllocsPerRun and Benchmark both run with collections possible; one that
	// lands mid-run costs a rebuilt context, amortised over the run.
	objs := testing.AllocsPerRun(200, func() { AppendDeflate(nil, p) })
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			AppendDeflate(nil, p)
		}
	})
	if objs > 4 || res.AllocedBytesPerOp() >= 8<<10 {
		t.Errorf("warm 1 KB AppendDeflate: %.0f objects, %d B per call; want <= 4 and < 8 KB", objs, res.AllocedBytesPerOp())
	}
	res = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			Inflate(c, len(p))
		}
	})
	if over := res.AllocedBytesPerOp() - int64(len(p)); over >= 4<<10 {
		t.Errorf("warm Inflate of %d bytes: %d B per call beyond its result; want < 4 KB", len(p), over)
	}
}

// TestCompressConcurrent shares the caches between goroutines while
// collections take contexts away mid-run. Run under -race.
func TestCompressConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 8 {
		p := mailish(512 + 10_000*g) // the largest spans two 64 KB deflate blocks
		want := freshDeflate(t, p)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 60 {
				c, ok := AppendDeflate(nil, p)
				if !ok || !bytes.Equal(c, want) {
					t.Errorf("goroutine %d round %d: deflate differs from a fresh writer's", g, i)
					return
				}
				if got, err := Inflate(c, len(p)); err != nil || !bytes.Equal(got, p) {
					t.Errorf("goroutine %d round %d: round trip: err=%v", g, i, err)
					return
				}
				if i%(10+g) == 0 {
					runtime.GC()
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzReuseVsFresh: keeping a context must be unobservable. Whatever the
// previous call did to it — succeeded, failed, or lost it to a collection —
// the next output equals a fresh writer's and round-trips.
func FuzzReuseVsFresh(f *testing.F) {
	f.Add([]byte(nil), byte(0))
	f.Add([]byte("a"), byte(1))
	f.Add(mailish(300), byte(2))
	f.Add(mailish(3000), byte(3))
	f.Add(bytes.Repeat([]byte{0}, 5000), byte(4))
	f.Fuzz(func(t *testing.T, p []byte, prior byte) {
		c := freshDeflate(t, p)
		switch prior % 5 {
		case 1: // truncated stream
			Inflate(c[:len(c)/2], len(p))
		case 2: // garbage
			Inflate(p, len(p))
		case 3: // over max
			Inflate(c, len(p)-1)
		case 4: // contexts collected
			runtime.GC()
		}
		got, ok := AppendDeflate(nil, p)
		if ok != (len(c) < len(p)) {
			t.Fatalf("ok=%v for %d -> %d bytes", ok, len(p), len(c))
		}
		if ok && !bytes.Equal(got, c) {
			t.Fatalf("cached deflate of %d bytes differs from a fresh writer's", len(p))
		}
		dec, err := Inflate(c, len(p))
		if err != nil || !bytes.Equal(dec, p) {
			t.Fatalf("round trip of %d bytes: err=%v", len(p), err)
		}
		if _, err := Inflate(append(c[:len(c):len(c)], 0), len(p)); !errors.Is(err, ErrTrailing) {
			t.Fatalf("stream plus one byte: err=%v, want ErrTrailing", err)
		}
	})
}

func BenchmarkDeflate(b *testing.B) {
	for _, n := range []int{64, 1 << 10, 16 << 10} {
		name := fmt.Sprintf("%dB", n)
		if n >= 1<<10 {
			name = fmt.Sprintf("%dKB", n>>10)
		}
		b.Run(name, func(b *testing.B) {
			p := mailish(n)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for b.Loop() {
				AppendDeflate(nil, p)
			}
		})
	}
}

func BenchmarkInflate(b *testing.B) {
	p := mailish(16 << 10)
	c, _ := AppendDeflate(nil, p)
	b.SetBytes(int64(len(p)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Inflate(c, len(p)); err != nil {
			b.Fatal(err)
		}
	}
}
