// Package compress holds the one deflate policy shared by every layer
// that trades CPU for bytes: the stable log's record compression and the
// wire protocol's compressed frame batches. Keeping the level and the
// size caps in a single place means an ablation (or a tuning change)
// moves the whole stack at once.
//
// It also owns the compression state. A flate.Writer is ~1.15 MB and a
// reader ~45 KB, most of it zeroed at construction, so building one per
// frame costs far more than compressing the frame. Contexts are kept
// between calls instead (see cache): output is byte-identical to a fresh
// BestSpeed writer's, so reuse is invisible on the wire and on disk.
package compress

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"slices"
	"sync"
	"weak"
)

// ErrTooLarge reports an inflated payload exceeding the caller's cap — a
// corrupt or hostile input, since writers never produce one.
var ErrTooLarge = errors.New("compress: inflated payload too large")

// ErrTrailing reports bytes after the final deflate block — a mangled
// tail, since writers end the input exactly where the stream ends.
var ErrTrailing = errors.New("compress: data after end of deflate stream")

// cache keeps reusable contexts between calls without owning them. A
// sync.Pool gives the per-P locality (compression is CPU-bound, so more
// contexts than Ps buy nothing — a context per connection would be 1.15 MB
// times the session count); holding only weak pointers in it means a
// collection reclaims every idle context at once, where a pool of strong
// pointers would carry them through its victim cache and nearly double a
// small process's live heap. Under load a context is reused thousands of times
// between collections; at rest it costs nothing.
type cache[T any] struct {
	pool  sync.Pool // of weak.Pointer[T]
	fresh func() *T
}

// get returns an idle context, or a new one when none survived. The
// caller holds the only strong reference until it calls put.
func (c *cache[T]) get() *T {
	for {
		v := c.pool.Get()
		if v == nil {
			return c.fresh()
		}
		if x := v.(weak.Pointer[T]).Value(); x != nil {
			return x
		}
	}
}

func (c *cache[T]) put(x *T) { c.pool.Put(weak.Make(x)) }

// deflater is one reusable compression context: the writer and the
// buffer it writes to.
type deflater struct {
	w   *flate.Writer
	out bytes.Buffer
}

// inflater is one reusable decompression context. src implements
// io.ByteReader, so the decoder reads exactly the bytes of the stream and
// what is left in src afterwards is trailing garbage.
type inflater struct {
	r   io.ReadCloser // also a flate.Resetter
	src bytes.Reader
}

var (
	deflaters = cache[deflater]{fresh: func() *deflater {
		d := new(deflater)
		// The error is for an invalid level only.
		d.w, _ = flate.NewWriter(&d.out, flate.BestSpeed)
		return d
	}}
	inflaters = cache[inflater]{fresh: func() *inflater {
		z := new(inflater)
		z.r = flate.NewReader(&z.src)
		return z
	}}
)

// AppendDeflate compresses p with flate at BestSpeed and appends the
// result to dst, reporting ok=false (and dst unchanged) when compression
// does not help: the output would be as large as the input. Callers store
// the original bytes in that case; speed matters more than ratio on the
// hot path.
func AppendDeflate(dst, p []byte) ([]byte, bool) {
	d := deflaters.get()
	defer deflaters.put(d)
	d.out.Reset()
	d.w.Reset(&d.out)
	// Writes to a bytes.Buffer cannot fail.
	_, _ = d.w.Write(p)
	_ = d.w.Close()
	if d.out.Len() >= len(p) {
		return dst, false
	}
	return append(dst, d.out.Bytes()...), true
}

// Inflate decompresses p, which must be exactly one deflate stream,
// refusing to produce more than max bytes: corrupt (or malicious) input
// must not balloon into unbounded memory. Oversize input returns
// ErrTooLarge, bytes after the stream ErrTrailing; any other decode
// failure returns the flate error.
//
// The result grows with what the stream actually yields. max usually comes
// from a header the sender controls, so it bounds the output but never
// sizes an allocation: the first one is a small multiple of len(p).
func Inflate(p []byte, max int) ([]byte, error) {
	z := inflaters.get()
	defer inflaters.put(z)
	z.src.Reset(p)
	defer z.src.Reset(nil) // an idle context must not pin the caller's input
	// The error is for a reader that is not a Resetter; flate's is.
	_ = z.r.(flate.Resetter).Reset(&z.src, nil)

	dec := make([]byte, 0, min(max, 8*len(p))+1)
	for {
		n, err := z.r.Read(dec[len(dec):cap(dec)])
		dec = dec[:len(dec)+n]
		if len(dec) > max {
			return nil, ErrTooLarge
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if len(dec) == cap(dec) {
			// Double, but not past the one byte over max that shows overrun.
			dec = slices.Grow(dec, min(cap(dec), max+1-len(dec)))
		}
	}
	if z.src.Len() != 0 {
		return nil, ErrTrailing
	}
	return dec, nil
}
