package rdo

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"rover/internal/urn"
	"rover/internal/wire"
)

// decodedObj is testObj with two state keys, as Decode returns it: holding
// its kept encoding.
func decodedObj(t *testing.T) *Object {
	t.Helper()
	o := testObj()
	o.Version = 3
	o.Set("count", "1")
	o.Set("owner", "adj")
	d, err := Decode(o.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if d.kept() == nil {
		t.Fatal("a canonical encoding was not kept")
	}
	return d
}

// plainCopy is o field by field, as a fresh object with no kept bytes.
func plainCopy(o *Object) *Object {
	return &Object{URN: o.URN, Type: o.Type, Version: o.Version, Code: o.Code, State: maps.Clone(o.State)}
}

func mapPtr(m map[string]string) uintptr { return uintptr(reflect.ValueOf(m).UnsafePointer()) }

// TestCloneSharesStateUntilWrite: a clone reads its source's map, and the
// first write on either side gives the writer a map of its own.
func TestCloneSharesStateUntilWrite(t *testing.T) {
	o := decodedObj(t)
	c := o.Clone()
	if mapPtr(c.State) != mapPtr(o.State) || !o.shared.Load() || !c.shared.Load() {
		t.Fatal("Clone copied the map or did not mark both sides shared")
	}
	c.Set("count", "2")
	if mapPtr(c.State) == mapPtr(o.State) || c.shared.Load() {
		t.Fatal("a write on a shared clone did not copy its map")
	}
	m := mapPtr(c.State)
	c.Set("count", "3")
	if mapPtr(c.State) != m {
		t.Error("a write on an unshared object copied its map again")
	}
}

// TestCloneIsolation: whichever side of a Clone is written, through
// whichever path, the other side's state and encoding stay as they were.
func TestCloneIsolation(t *testing.T) {
	env := func(t *testing.T, o *Object, cmd ...string) {
		e, err := NewEnv(o, EnvOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.EvalTrusted(strings.Join(cmd, " ")); err != nil {
			t.Fatal(err)
		}
	}
	writes := map[string]func(*testing.T, *Object){
		"Set":         func(_ *testing.T, o *Object) { o.Set("count", "9") },
		"Set new key": func(_ *testing.T, o *Object) { o.Set("zzz", "9") },
		"Delete":      func(_ *testing.T, o *Object) { o.Delete("owner") },
		"state set":   func(t *testing.T, o *Object) { env(t, o, "state", "set", "count", "9") },
		"state unset": func(t *testing.T, o *Object) { env(t, o, "state", "unset", "owner") },
		"ApplyOps": func(_ *testing.T, o *Object) {
			ApplyOps(o, []StateOp{{Key: "count", Value: "9"}, {Unset: true, Key: "owner"}})
		},
		"method": func(t *testing.T, o *Object) {
			e, err := NewEnv(o, EnvOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Invoke("reset"); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, write := range writes {
		for _, side := range []string{"source", "clone"} {
			o := decodedObj(t)
			want, wantEnc := maps.Clone(o.State), o.Encode()
			c := o.Clone()
			written, other := c, o
			if side == "source" {
				written, other = o, c
			}
			write(t, written)
			if maps.Equal(written.State, want) {
				t.Fatalf("%s on the %s changed nothing", name, side)
			}
			if !maps.Equal(other.State, want) || !bytes.Equal(other.Encode(), wantEnc) {
				t.Errorf("%s on the %s changed the other side: %v, want %v", name, side, other.State, want)
			}
			if !bytes.Equal(written.Encode(), plainCopy(written).Encode()) {
				t.Errorf("%s on the %s: the written side still encodes as before", name, side)
			}
		}
	}
}

// inside reports whether s's bytes lie in buf.
func inside(s string, buf []byte) bool {
	if len(s) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return p >= lo && p < lo+uintptr(len(buf))
}

// TestKeptEncodingRetention: Decode makes one copy of its input, and Code
// and the state are views of it — but not URN and Type, which the stores
// keep as map keys and index fields long after the object is gone and
// must not pin its whole encoding.
func TestKeptEncodingRetention(t *testing.T) {
	o := decodedObj(t)
	enc := o.enc
	for name, s := range map[string]string{"URN authority": o.URN.Authority, "URN path": o.URN.Path, "Type": o.Type} {
		if inside(s, enc) {
			t.Errorf("%s %q points into the kept encoding", name, s)
		}
	}
	if !inside(o.Code, enc) {
		t.Error("Code is not a view of the decoded copy")
	}
	for k, v := range o.State {
		if !inside(k, enc) || !inside(v, enc) {
			t.Errorf("state %q=%q is not a view of the decoded copy", k, v)
		}
	}
}

// TestBracedLiteralStateRetention: a method that writes a braced literal
// of its code into the state does not make the new value a view of the
// encoding the code was decoded from — whether the code is short enough
// for the program cache or too long for it — so the written object does
// not pin the version it was made from.
func TestBracedLiteralStateRetention(t *testing.T) {
	for _, pad := range []int{0, 70 << 10} {
		o := testObj()
		o.Code = "# " + strings.Repeat("x", pad) + "\nproc mark {} { state set note {a braced literal} }"
		d, err := Decode(o.Encode())
		if err != nil {
			t.Fatal(err)
		}
		enc := d.enc // a write drops it from the object
		if d.kept() == nil || !inside(d.Code, enc) {
			t.Fatal("the decoded code is not a view of the kept encoding")
		}
		e, err := NewEnv(d, EnvOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Invoke("mark"); err != nil {
			t.Fatal(err)
		}
		if v, _ := d.Get("note"); v != "a braced literal" || inside(v, enc) {
			t.Errorf("code of %d bytes: state value %q is a view of the encoding", len(d.Code), v)
		}
	}
}

// TestKeptEncodingFollowsTheFields: the kept bytes are sent only while they
// still encode the object. A State write drops them; a header field
// assigned directly makes them unusable until it matches again; and Encode
// never hands out the kept slice itself.
func TestKeptEncodingFollowsTheFields(t *testing.T) {
	o := decodedObj(t)
	canonical := func(o *Object) []byte {
		var b wire.Buffer
		plainCopy(o).MarshalWire(&b)
		return b.Bytes()
	}
	check := func(what string, wantKept bool) {
		t.Helper()
		var b wire.Buffer
		o.MarshalWire(&b)
		if enc := o.Encode(); !bytes.Equal(enc, canonical(o)) || !bytes.Equal(b.Bytes(), enc) {
			t.Errorf("%s: encoding is not the canonical encoding of the fields", what)
		}
		if got := o.kept() != nil; got != wantKept {
			t.Errorf("%s: kept encoding in use = %v, want %v", what, got, wantKept)
		}
	}
	check("decoded", true)
	enc := o.Encode()
	if unsafe.SliceData(enc) == unsafe.SliceData(o.enc) {
		t.Fatal("Encode returned the kept slice")
	}
	enc[len(enc)-1] ^= 0xff
	check("after writing into Encode's result", true)

	o.Version++
	check("Version changed", false)
	o.Version--
	check("Version restored", true)
	o.Type = "other"
	check("Type changed", false)
	o.Type = "counter"
	o.Code += " "
	check("Code changed", false)
	o.Code = o.Code[:len(o.Code)-1]
	check("Code restored", true)
	for _, u := range []string{"urn:rover:cal.mit.edu/counteR", "urn:rover:cal.mit.e/u/counter", "urn:rover:cal.mit.edux/counte"} {
		saved := o.URN
		o.URN = urn.MustParse(u)
		check("URN "+u, false)
		o.URN = saved
	}
	o.Set("count", "1") // the same value: still a write
	check("Set", false)
	if o.enc != nil {
		t.Error("Set did not drop the kept encoding")
	}
}

// TestKeptEncodingOnlyWhenCanonical: input the canonical encoder would
// not have written — keys out of order, a varint longer than it needs —
// decodes, but is not kept, and the object encodes canonically.
func TestKeptEncodingOnlyWhenCanonical(t *testing.T) {
	for name, p := range nonCanonicalSeeds() {
		o, err := Decode(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o.enc != nil {
			t.Errorf("%s: kept a non-canonical encoding", name)
		}
		if enc := o.Encode(); bytes.Equal(enc, p) || !bytes.Equal(enc, plainCopy(o).Encode()) {
			t.Errorf("%s: re-encoded to % x", name, enc)
		}
	}
}

// nonCanonicalSeeds are encodings that decode but that the canonical
// encoder would not have written.
func nonCanonicalSeeds() map[string][]byte {
	header := func(b *wire.Buffer) {
		b.PutString("urn:rover:h/x")
		b.PutString("t")
		b.PutUvarint(1)
		b.PutString("")
	}
	var unsorted wire.Buffer
	header(&unsorted)
	unsorted.PutUvarint(2)
	for _, kv := range []string{"b", "2", "a", "1"} {
		unsorted.PutString(kv)
	}
	var long wire.Buffer
	header(&long)
	long.PutRaw([]byte{0x81, 0x00}) // 1 state entry, as a two-byte varint
	long.PutString("a")
	long.PutString("1")
	return map[string][]byte{"unsorted keys": unsorted.Bytes(), "non-minimal varint": long.Bytes()}
}

// TestStateWritesGoThroughSetAndDelete: State is exported for reading, and
// copy-on-write holds only if every write goes through Set or Delete. Any
// Go file in the tree — tests and the benchmark module included — other
// than the one defining them that assigns into a .State map, replaces one,
// or deletes from or clears one fails here.
func TestStateWritesGoThroughSetAndDelete(t *testing.T) {
	root := filepath.Join("..", "..")
	self, err := filepath.Abs("rdo.go")
	if err != nil {
		t.Fatal(err)
	}
	isState := func(e ast.Expr) bool {
		if ix, ok := e.(*ast.IndexExpr); ok {
			e = ix.X
		}
		sel, ok := e.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "State"
	}
	files := 0
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || path == filepath.Join(root, "benchmark", "out")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		if abs, _ := filepath.Abs(path); abs == self {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if isState(lhs) {
						t.Errorf("%s: writes a .State map directly; use Set or Delete", fset.Position(lhs.Pos()))
					}
				}
			case *ast.CallExpr:
				if fn, ok := n.Fun.(*ast.Ident); ok && (fn.Name == "delete" || fn.Name == "clear") && len(n.Args) > 0 && isState(n.Args[0]) {
					t.Errorf("%s: %s on a .State map; use Delete", fset.Position(n.Pos()), fn.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("parsed only %d Go files under %s", files, root)
	}
}
