package rscript

import (
	"testing"
	"unsafe"
)

// inside reports whether s's bytes lie in buf.
func inside(s string, buf []byte) bool {
	if len(s) == 0 || len(buf) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return p >= lo && p < lo+uintptr(len(buf))
}

// scriptStrings calls f on every string a parsed script holds.
func scriptStrings(s *Script, f func(string)) {
	for _, c := range s.Cmds {
		for _, w := range c.Words {
			for _, p := range w.Parts {
				switch p := p.(type) {
				case LitPart:
					f(string(p))
				case VarPart:
					f(string(p))
				case CmdPart:
					scriptStrings(p.Script, f)
				}
			}
		}
	}
}

// TestCacheOwnsSharedSource: a source handed to the caches may be a view of
// a much larger buffer — an object's code is a view of the whole encoding
// it was decoded from. What a miss caches — the key and every string of the
// compiled form — must lie in a private copy, or the cache would pin that
// buffer for as long as the entry lives.
func TestCacheOwnsSharedSource(t *testing.T) {
	resetCaches()
	defer resetCaches()
	const code = `proc add {n} { state set count [expr {[state get count 0] + $n}] }`
	const cond = `$i < 8 && [string length $acc] < "limit"`
	buf := make([]byte, 4096)
	copy(buf[100:], code)
	copy(buf[1000:], cond)
	src := unsafe.String(&buf[100], len(code))
	esrc := unsafe.String(&buf[1000], len(cond))

	s, err := parseCached(src)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	scriptStrings(s, func(str string) {
		n++
		if inside(str, buf) {
			t.Errorf("cached script holds %q inside the caller's buffer", str)
		}
	})
	if n == 0 {
		t.Fatal("walked no strings")
	}
	p := compileExprCached(esrc)
	for _, o := range p.operands {
		if inside(o.name, buf) {
			t.Errorf("cached expr holds operand %q inside the caller's buffer", o.name)
		}
		if o.script != nil {
			scriptStrings(o.script, func(str string) {
				if inside(str, buf) {
					t.Errorf("cached expr script holds %q inside the caller's buffer", str)
				}
			})
		}
	}
	for _, in := range p.code {
		for _, str := range []string{in.text, in.val.s} {
			if inside(str, buf) {
				t.Errorf("cached expr holds %q inside the caller's buffer", str)
			}
		}
	}
	for key := range scripts.m {
		if inside(key, buf) {
			t.Errorf("script cache key %q is inside the caller's buffer", key)
		}
	}
	for key := range exprs.m {
		if inside(key, buf) {
			t.Errorf("expr cache key %q is inside the caller's buffer", key)
		}
	}
	if again, _ := parseCached(src); again != s {
		t.Error("second parse of the same source missed the cache")
	}
}
