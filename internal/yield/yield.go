// Package yield is a seam for tests that need a race to happen. Production
// code calls Point right after it lets go of a lock on the durability path,
// where another goroutine waiting for that lock may run; a test installs a
// hook with Set to pause there, yield, or hold the caller until the other
// side of a race is in place. Without a hook Point is one atomic load.
package yield

import "sync/atomic"

var hook atomic.Pointer[func(site string)]

// Point runs the installed hook, if any, with the name of the calling site.
func Point(site string) {
	if h := hook.Load(); h != nil {
		(*h)(site)
	}
}

// Set installs fn as the hook every Point runs (nil removes it) and returns
// a function that puts the previous hook back. The hook is process-wide:
// a test that sets one must not run in parallel with others that reach a
// Point.
func Set(fn func(site string)) (restore func()) {
	var p *func(string)
	if fn != nil {
		p = &fn
	}
	prev := hook.Swap(p)
	return func() { hook.Store(prev) }
}
