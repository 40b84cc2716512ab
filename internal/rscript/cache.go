package rscript

import (
	"strings"
	"sync"
)

// Compiled forms are cached once per process, keyed by source text, so an
// object's code is parsed the first time any interpreter meets it and never
// again. So are what its commands use as scripts and expressions — the
// bodies of its procs, loops, ifs, catches and switches, and its expr
// operands and conditions — each looked up by its text when it runs. Only
// the compiled form is shared — with, for a script handed to Eval that does
// nothing but define procs, the procs it defines (its class, class.go): it
// is read-only once published (the evaluator never writes to a *Script, a
// *Proc or an *exprProg), so any number of interpreters in any sandbox may
// run one concurrently. Variables, step counters, command tables and the
// procs defined at run time stay per-Interp.
//
// The bounds are constants, not options: no caller at the parent commit
// needed a different value. A source longer than cacheMaxSource is compiled
// on every use and never stored; when an insert would exceed either of the
// other two bounds the table is dropped whole, which costs at most one
// re-parse of the live working set per cacheMaxEntries misses.
const (
	cacheMaxEntries = 4096
	cacheMaxBytes   = 1 << 20 // total source bytes held as keys
	cacheMaxSource  = 64 << 10
)

type progCache[T any] struct {
	mu    sync.RWMutex
	m     map[string]T
	bytes int
}

func (c *progCache[T]) get(src string) (T, bool) {
	c.mu.RLock()
	v, ok := c.m[src]
	c.mu.RUnlock()
	return v, ok
}

// put stores v under src and returns the entry that ended up cached: when
// two goroutines compile the same source at once the first insert wins, so
// every later hit sees one value. src must be the string v was compiled
// from, as own returned it.
func (c *progCache[T]) put(src string, v T) T {
	if len(src) > cacheMaxSource {
		return v
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.m[src]; ok {
		return old
	}
	if c.m == nil || len(c.m) >= cacheMaxEntries || c.bytes+len(src) > cacheMaxBytes {
		c.m = make(map[string]T)
		c.bytes = 0
	}
	c.m[src] = v
	c.bytes += len(src)
	return v
}

func (c *progCache[T]) size() (entries, bytes int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m), c.bytes
}

var (
	scripts progCache[*Script]
	exprs   progCache[*exprProg]
)

// own returns the string a cache miss compiles, and stores as its key when
// it is cacheable: a private copy of src. A compiled form holds slices of
// the source it came from — a braced word is one — so compiling the
// caller's string would pin whatever that string is a slice of: an
// object's code is a view of the whole encoding it was decoded from. A
// source too long to cache is copied too, so that no compiled form, and no
// value taken from one, is ever a view of an encoding.
func own(src string) string { return strings.Clone(src) }

// parseCached returns the shared parse of src. Parse errors are not
// cached; broken code re-reports its error from a fresh parse.
func parseCached(src string) (*Script, error) {
	if s, ok := scripts.get(src); ok {
		return s, nil
	}
	src = own(src)
	s, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return scripts.put(src, s), nil
}

// compileExprCached returns the shared compiled form of an expr source. An
// expression with a lexical or grammar error still compiles (the error is
// part of the program, see exprProg), so every source is cacheable.
func compileExprCached(src string) *exprProg {
	if p, ok := exprs.get(src); ok {
		return p
	}
	src = own(src)
	return exprs.put(src, compileExpr(src))
}
