package yield

import "testing"

func TestSetAndRestore(t *testing.T) {
	Point("none") // no hook: nothing runs
	var got []string
	restore := Set(func(site string) { got = append(got, site) })
	Point("a")
	inner := Set(nil)
	Point("b")
	inner()
	Point("c")
	restore()
	Point("d")
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("hook saw %q, want [a c]", got)
	}
}

func TestPointAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { Point("site") }); n != 0 {
		t.Fatalf("Point without a hook allocates %v objects", n)
	}
}
