package rscript

import (
	"strings"
	"sync"
)

// Compiled forms are cached once per process, keyed by source text, so an
// object's code and every loop body, proc body and expr condition in it are
// parsed the first time any interpreter meets them and never again. Only
// the compiled form is shared — with, for a script handed to Eval that does
// nothing but define procs, the procs it defines (its class, class.go): it
// is read-only once cached (the evaluator never writes to a *Script, a
// *Proc or an *exprProg), so any number of interpreters in any sandbox may
// walk one concurrently. Variables, step counters, command tables and the
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
// every later hit sees one value.
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
	// The key is cloned so a short source sliced out of a long string does
	// not pin the long one past the byte bound.
	c.m[strings.Clone(src)] = v
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

// parseCached returns the shared parse of src. Parse errors are not
// cached; broken code re-reports its error from a fresh parse.
func parseCached(src string) (*Script, error) {
	if s, ok := scripts.get(src); ok {
		return s, nil
	}
	s, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return scripts.put(src, s), nil
}

// compileExprCached returns the shared token form of an expr source. An
// expression with a lexical error still compiles (the error is part of the
// program, see exprProg), so every source is cacheable.
func compileExprCached(src string) *exprProg {
	if p, ok := exprs.get(src); ok {
		return p
	}
	return exprs.put(src, compileExpr(src))
}
