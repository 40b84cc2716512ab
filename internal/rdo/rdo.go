// Package rdo implements Rover's relocatable dynamic objects.
//
// An RDO is "an object with a well-defined interface that can be
// dynamically loaded into a client computer from a server computer (or
// vice versa) to reduce client-server communication requirements". In this
// toolkit an RDO is:
//
//   - a URN (its location-independent name),
//   - a type name (selecting its conflict resolver at the home server),
//   - a version (the server version this copy derives from),
//   - code: rscript source whose procs are the object's methods,
//   - state: a string dictionary the methods read and write.
//
// Because the code is interpreter source, the *same* object runs on the
// client (after import) or at the server (when the client ships an
// invocation or the object migrates back) — the relocation the paper's
// title promises. The execution environment (Env) binds an interpreter to
// one object, exposes the state dictionary through `state ...` commands,
// records mutations for operation shipping, and enforces the sandbox.
package rdo

import (
	"bytes"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"
	"unsafe"

	"rover/internal/urn"
	"rover/internal/wire"
)

// Object is a relocatable dynamic object instance.
//
// Copies share what they can. Clone is O(1): the copy reads the same State
// map as its source, both are marked shared, and the first Set or Delete on
// either side copies the map before writing it. State is exported for
// reading only; every write goes through Set or Delete (a guard test holds
// every Go file in the tree to that), and an Object is copied with Clone,
// never by value. An object Decode produced keeps the bytes it arrived as
// and sends them again (MarshalWire, Encode) for as long as they still
// encode it — see kept.
type Object struct {
	URN     urn.URN
	Type    string
	Version uint64
	Code    string
	State   map[string]string

	// shared is set once another Object may read State. It is atomic
	// because a cached object is cloned by many readers at once with no
	// lock held; only the object's single writer clears it.
	shared atomic.Bool
	// enc is the canonical encoding Decode read the object from; Code and
	// the state keys and values are strings over it. A State write drops it.
	enc []byte
}

// New returns an empty object of the given type.
func New(u urn.URN, typeName string) *Object {
	return &Object{URN: u, Type: typeName, State: make(map[string]string)}
}

// Clone returns a copy of o that shares o's State map and kept encoding
// until either side writes its state. It allocates the new Object and
// nothing else, and may run on one object from many goroutines at once as
// long as nobody writes that object.
func (o *Object) Clone() *Object {
	if !o.shared.Load() {
		o.shared.Store(true)
	}
	cp := &Object{URN: o.URN, Type: o.Type, Version: o.Version, Code: o.Code, State: o.State, enc: o.enc}
	cp.shared.Store(true)
	return cp
}

// Get reads a state key.
func (o *Object) Get(key string) (string, bool) {
	v, ok := o.State[key]
	return v, ok
}

// Set writes a state key.
func (o *Object) Set(key, value string) {
	o.writeState()
	o.State[key] = value
}

// Delete removes a state key.
func (o *Object) Delete(key string) {
	if _, ok := o.State[key]; !ok {
		return
	}
	o.writeState()
	delete(o.State, key)
}

// writeState readies State for a write: the kept encoding stops describing
// the object, and a map another Object may read is copied first.
func (o *Object) writeState() {
	o.enc = nil
	switch {
	case o.State == nil:
		o.State = make(map[string]string)
	case o.shared.Load():
		o.State = maps.Clone(o.State)
	default:
		return
	}
	o.shared.Store(false)
}

// Keys returns the state keys in sorted order.
func (o *Object) Keys() []string {
	ks := make([]string, 0, len(o.State))
	for k := range o.State {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// SizeEstimate returns the approximate encoded size in bytes; the access
// manager's migration heuristics and cache accounting use it.
func (o *Object) SizeEstimate() int {
	n := urnLen(o.URN) + len(o.Type) + len(o.Code) + 16
	for k, v := range o.State {
		n += len(k) + len(v) + 4
	}
	return n
}

// urnLen is len(u.String()) without building the string.
func urnLen(u urn.URN) int { return len(urn.Prefix) + len(u.Authority) + 1 + len(u.Path) }

// MarshalWire implements wire.Marshaler. A decoded object whose kept
// encoding still describes it is spliced in as those bytes.
func (o *Object) MarshalWire(b *wire.Buffer) {
	if enc := o.kept(); enc != nil {
		b.PutRaw(enc)
		return
	}
	b.PutString(o.URN.String())
	b.PutString(o.Type)
	b.PutUvarint(o.Version)
	b.PutString(o.Code)
	// Sorted in a stack array: up to 16 keys cost no allocation.
	var room [16]string
	keys := room[:0]
	for k := range o.State {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b.PutUvarint(uint64(len(keys)))
	for _, k := range keys {
		b.PutString(k)
		b.PutString(o.State[k])
	}
}

// kept returns the encoding Decode kept while it still encodes o: State
// has not been written since (Set and Delete drop it), and URN, Type,
// Version and Code equal the header it starts with — callers assign those
// fields directly, the store's new Version above all.
func (o *Object) kept() []byte {
	if o.enc == nil {
		return nil
	}
	r := wire.OwnedReader(o.enc)
	u, typ, ver, code := r.Bytes(), r.Bytes(), r.Uvarint(), r.Bytes()
	if ver != o.Version || string(typ) != o.Type || string(code) != o.Code || !isURN(u, o.URN) {
		return nil
	}
	return o.enc
}

// isURN reports whether p is u.String(), without building the string.
func isURN(p []byte, u urn.URN) bool {
	a := len(urn.Prefix) + len(u.Authority)
	return len(p) == urnLen(u) && string(p[:len(urn.Prefix)]) == urn.Prefix &&
		string(p[len(urn.Prefix):a]) == u.Authority && p[a] == '/' && string(p[a+1:]) == u.Path
}

// UnmarshalWire implements wire.Unmarshaler. Code and the state keys and
// values are strings over the reader's Bytes: views of the input from an
// OwnedReader, copies otherwise.
func (o *Object) UnmarshalWire(r *wire.Reader) error {
	_, err := o.read(r)
	return err
}

// read decodes an object from r and reports whether its state keys were
// strictly ascending, as the canonical encoding writes them.
func (o *Object) read(r *wire.Reader) (sorted bool, err error) {
	u, typ := r.Bytes(), r.Bytes()
	o.Version = r.Uvarint()
	o.Code = str(r.Bytes())
	// A state entry takes at least two bytes (two empty strings), so the
	// count sizes the map only as far as the input could back it.
	n := r.Len()
	o.State = make(map[string]string, min(n, r.Remaining()/2))
	sorted = true
	var prev string
	for i := 0; i < n; i++ {
		k, v := str(r.Bytes()), str(r.Bytes())
		if r.Err() != nil {
			return false, r.Err()
		}
		sorted = sorted && (i == 0 || k > prev)
		prev = k
		o.State[k] = v
	}
	if r.Err() != nil {
		return false, r.Err()
	}
	// URN and Type outlive the object as map keys and index fields, so
	// they are copied out of the input, together in one allocation.
	hdr := str(append(append(make([]byte, 0, len(u)+len(typ)), u...), typ...))
	parsed, err := urn.Parse(hdr[:len(u)])
	if err != nil {
		return false, fmt.Errorf("rdo: bad object URN: %w", err)
	}
	o.URN, o.Type = parsed, hdr[len(u):]
	return sorted, nil
}

// str is the string over b, which nobody may write again.
func str(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// Encode returns the wire encoding of the object in a slice the caller
// owns. A decoded object's kept encoding is copied, one allocation and no
// key sort; it is never returned itself, because the object's strings are
// views of it.
func (o *Object) Encode() []byte {
	if enc := o.kept(); enc != nil {
		return bytes.Clone(enc)
	}
	return wire.Marshal(o)
}

// Decode parses a wire-encoded object. It copies p once, and Code and the
// state keys and values are views of that copy. When p is the canonical
// encoding of the object it decodes to — keys strictly ascending and every
// varint minimal, so the fields re-encode to exactly len(p) bytes — the
// object keeps the copy as its encoding.
func Decode(p []byte) (*Object, error) {
	buf := bytes.Clone(p)
	o := new(Object)
	r := wire.OwnedReader(buf)
	sorted, err := o.read(&r)
	if err == nil {
		err = r.Finish()
	}
	if err != nil {
		return nil, err
	}
	if sorted && o.encodedLen() == len(buf) {
		o.enc = buf
	}
	return o, nil
}

// encodedLen is the length of the canonical encoding of o.
func (o *Object) encodedLen() int {
	n := fieldLen(urnLen(o.URN)) + fieldLen(len(o.Type)) + uvarintLen(o.Version) +
		fieldLen(len(o.Code)) + uvarintLen(uint64(len(o.State)))
	for k, v := range o.State {
		n += fieldLen(len(k)) + fieldLen(len(v))
	}
	return n
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func fieldLen(n int) int { return uvarintLen(uint64(n)) + n }

// Equal reports deep equality of two objects.
func Equal(a, b *Object) bool {
	if a.URN != b.URN || a.Type != b.Type || a.Version != b.Version || a.Code != b.Code {
		return false
	}
	if len(a.State) != len(b.State) {
		return false
	}
	for k, v := range a.State {
		if bv, ok := b.State[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// An Invocation is one method call on an RDO — the unit of operation
// shipping. The client applies it locally (tentatively) and queues it for
// replay at the home server; the server applies it to the authoritative
// copy and commits.
type Invocation struct {
	Object  urn.URN
	Method  string
	Args    []string
	BaseVer uint64 // object version the client applied it against
}

// MarshalWire implements wire.Marshaler.
func (inv *Invocation) MarshalWire(b *wire.Buffer) {
	b.PutString(inv.Object.String())
	b.PutString(inv.Method)
	b.PutStringSlice(inv.Args)
	b.PutUvarint(inv.BaseVer)
}

// UnmarshalWire implements wire.Unmarshaler.
func (inv *Invocation) UnmarshalWire(r *wire.Reader) error { return inv.read(r, true) }

// read reads one invocation into inv, or with keep false only checks it.
// The fields are read in place and the URN parsed either way; strings are
// copied out only when kept, so a check allocates nothing unless it fails.
func (inv *Invocation) read(r *wire.Reader, keep bool) error {
	us, method := r.View(), r.View()
	n := r.Len()
	var args []string
	if keep {
		args = make([]string, 0, min(n, 1024))
	}
	for range n {
		a := r.View()
		if r.Err() != nil {
			break
		}
		if keep {
			args = append(args, string(a))
		}
	}
	base := r.Uvarint()
	if r.Err() != nil {
		return r.Err()
	}
	s := str(us)
	if keep {
		s = string(us)
	}
	u, err := urn.Parse(s)
	if err != nil {
		return fmt.Errorf("rdo: bad invocation URN: %w", err)
	}
	if keep {
		*inv = Invocation{Object: u, Method: string(method), Args: args, BaseVer: base}
	}
	return nil
}

// ReadInvocations reads n invocations, n being the count a decoder has just
// read. The count is the writer's claim, so storage is sized by the bytes
// actually present (an invocation encodes to at least four): a count the
// input cannot back fails with the reader's error instead of allocating.
func ReadInvocations(r *wire.Reader, n uint64) ([]Invocation, error) {
	invs := make([]Invocation, 0, min(n, uint64(r.Remaining()/4)))
	for i := uint64(0); i < n; i++ {
		var inv Invocation
		if err := inv.read(r, true); err != nil {
			return nil, err
		}
		invs = append(invs, inv)
	}
	return invs, r.Err()
}

// SkipInvocations reads past n invocations without keeping any: it fails on
// exactly the inputs ReadInvocations fails on, and allocates nothing unless
// it fails.
func SkipInvocations(r *wire.Reader, n uint64) error {
	var inv Invocation
	for i := uint64(0); i < n; i++ {
		if err := inv.read(r, false); err != nil {
			return err
		}
	}
	return r.Err()
}
