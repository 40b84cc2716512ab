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
	"fmt"
	"sort"

	"rover/internal/urn"
	"rover/internal/wire"
)

// Object is a relocatable dynamic object instance. Object values are
// copied freely between cache, log, and wire; State must not be shared
// mutably across copies (use Clone).
type Object struct {
	URN     urn.URN
	Type    string
	Version uint64
	Code    string
	State   map[string]string
}

// New returns an empty object of the given type.
func New(u urn.URN, typeName string) *Object {
	return &Object{URN: u, Type: typeName, State: make(map[string]string)}
}

// Clone returns a deep copy.
func (o *Object) Clone() *Object {
	cp := *o
	cp.State = make(map[string]string, len(o.State))
	for k, v := range o.State {
		cp.State[k] = v
	}
	return &cp
}

// Get reads a state key.
func (o *Object) Get(key string) (string, bool) {
	v, ok := o.State[key]
	return v, ok
}

// Set writes a state key.
func (o *Object) Set(key, value string) {
	if o.State == nil {
		o.State = make(map[string]string)
	}
	o.State[key] = value
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
	n := len(o.URN.String()) + len(o.Type) + len(o.Code) + 16
	for k, v := range o.State {
		n += len(k) + len(v) + 4
	}
	return n
}

// MarshalWire implements wire.Marshaler.
func (o *Object) MarshalWire(b *wire.Buffer) {
	b.PutString(o.URN.String())
	b.PutString(o.Type)
	b.PutUvarint(o.Version)
	b.PutString(o.Code)
	keys := o.Keys()
	b.PutUvarint(uint64(len(keys)))
	for _, k := range keys {
		b.PutString(k)
		b.PutString(o.State[k])
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (o *Object) UnmarshalWire(r *wire.Reader) error {
	us := r.String()
	o.Type = r.String()
	o.Version = r.Uvarint()
	o.Code = r.String()
	// A state entry takes at least two bytes (two empty strings), so the
	// count sizes the map only as far as the input could back it.
	n := r.Len()
	o.State = make(map[string]string, min(n, r.Remaining()/2))
	for i := 0; i < n; i++ {
		k := r.String()
		v := r.String()
		if r.Err() != nil {
			return r.Err()
		}
		o.State[k] = v
	}
	if r.Err() != nil {
		return r.Err()
	}
	u, err := urn.Parse(us)
	if err != nil {
		return fmt.Errorf("rdo: bad object URN: %w", err)
	}
	o.URN = u
	return nil
}

// Encode returns the wire encoding of the object.
func (o *Object) Encode() []byte { return wire.Marshal(o) }

// Decode parses a wire-encoded object.
func Decode(p []byte) (*Object, error) {
	var o Object
	if err := wire.Unmarshal(p, &o); err != nil {
		return nil, err
	}
	return &o, nil
}

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
func (inv *Invocation) UnmarshalWire(r *wire.Reader) error {
	us := r.String()
	inv.Method = r.String()
	inv.Args = r.StringSlice()
	inv.BaseVer = r.Uvarint()
	if r.Err() != nil {
		return r.Err()
	}
	u, err := urn.Parse(us)
	if err != nil {
		return fmt.Errorf("rdo: bad invocation URN: %w", err)
	}
	inv.Object = u
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
		if err := inv.UnmarshalWire(r); err != nil {
			return nil, err
		}
		invs = append(invs, inv)
	}
	return invs, r.Err()
}
