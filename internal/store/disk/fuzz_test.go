package disk

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"rover/internal/rdo"
	"rover/internal/store"
	"rover/internal/urn"
	"rover/internal/wire"
)

// countHeader is a record of the given kind cut off right after a count: the
// fields before it are minimal and valid, and no element follows.
func countHeader(kind byte, n uint64) []byte {
	var b wire.Buffer
	b.PutByte(kind)
	switch kind {
	case recOps:
		b.PutString("urn:rover:h/x")
		b.PutUvarint(1) // prevVer
		b.PutUvarint(2) // ver
		b.PutString("") // src
	case recSnap:
		b.PutString("urn:rover:h/x")
		b.PutUvarint(2) // ver
		b.PutBytes(nil) // obj
	case recFooter:
		b.PutBytes(make([]byte, footerGenLen))
		b.PutUvarint(0) // part
	}
	b.PutUvarint(n)
	return b.Bytes()
}

// FuzzDecodeRecord: the recovery scan decodes every record of a segment and
// footer recovery every index chunk, so both decoders must hold up against
// bytes they did not write. Neither panics, and whatever they accept
// re-encodes to bytes that decode to the same record, history included. The
// footer decoder allocates in proportion to the input whatever a count
// claims. The record check Open runs on every record allocates no more than
// a few objects whatever the record holds, and decodes the same record in
// place, through a key its names already holds, and copying (without the
// history). Skipping an ops record's invocations fails on exactly the inputs
// reading them fails on, and reading them allocates in proportion to the
// input whatever a count claims.
func FuzzDecodeRecord(f *testing.F) {
	u := urn.MustParse("urn:rover:h/obj")
	o := rdo.New(u, "t")
	o.Set("k", "v")
	o.Version = 3
	objBytes := o.Encode()
	invs := []rdo.Invocation{{Object: u, Method: "add", Args: []string{"1", "x"}, BaseVer: 2}}
	f.Add(recOf(encodeState(new(wire.Buffer), u, 3, o)))
	f.Add(recOf(encodeOps(new(wire.Buffer), u, 2, 3, "cli", invs, o, 42)))
	f.Add(recOf(encodeOps(new(wire.Buffer), u, 2, 3, "", invs, o, -1)))
	f.Add(encodeSnap(u, 3, objBytes, []store.OpsRec{{Ver: 2, Src: "cli", Invs: invs}, {Ver: 3, Invs: invs}}))
	f.Add(encodeFooterChunk(bytes.Repeat([]byte{7}, footerGenLen), 1,
		[]footerEnt{{u: u, ent: idxEnt{ver: 3, off: 10, rlen: 40, typ: "t", kind: recOps}}}))
	// An invocation URN that does not parse fails the decode and the check.
	bad := []rdo.Invocation{{Object: urn.URN{Path: "x"}, Method: "add"}}
	f.Add(recOf(encodeOps(new(wire.Buffer), u, 2, 3, "cli", bad, o, 42)))
	f.Add(encodeSnap(u, 3, objBytes, []store.OpsRec{{Ver: 3, Src: "cli", Invs: bad}}))
	// Counts the input cannot back: a 22-byte ops record claiming 2^22
	// invocations allocated 320 MB before failing, and a count of 2^63 made
	// the decoders panic in makeslice.
	f.Add(countHeader(recOps, 1<<22))
	for _, kind := range []byte{recOps, recSnap, recFooter} {
		f.Add(countHeader(kind, 1<<63))
	}

	f.Fuzz(func(t *testing.T, p []byte) {
		var before, after runtime.MemStats
		if len(p) > 0 && p[0] == recFooter {
			runtime.ReadMemStats(&before)
			gen, part, ents, err := decodeFooterChunk(p, newNames())
			runtime.ReadMemStats(&after)
			checkAllocated(t, p, after.TotalAlloc-before.TotalAlloc)
			if err != nil {
				return
			}
			gen2, part2, ents2, err := decodeFooterChunk(encodeFooterChunk(gen, part, ents), newNames())
			if err != nil || !bytes.Equal(gen2, gen) || part2 != part || !reflect.DeepEqual(ents2, ents) {
				t.Fatalf("footer chunk did not survive re-encoding: %v", err)
			}
			return
		}
		checkSkipOps(t, p)
		nm := newNames()
		runtime.ReadMemStats(&before)
		rec, err := decodeRecord(p, nm)
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n > 16 {
			t.Fatalf("checking %d input bytes allocated %d objects", len(p), n)
		}
		copied, cerr := decodeRecord(p, nil)
		if (err == nil) != (cerr == nil) {
			t.Fatalf("check in place: %v; copying: %v", err, cerr)
		}
		if err != nil {
			return
		}
		head := rec
		head.ops = nil
		if !reflect.DeepEqual(copied, head) {
			t.Fatalf("copying check differs:\n got %+v\nwant %+v", copied, head)
		}
		nm.keys[rec.urn] = rec.urn
		if again, err := decodeRecord(p, nm); err != nil || !reflect.DeepEqual(again, rec) {
			t.Fatalf("check through a held key: %v\n got %+v\nwant %+v", err, again, rec)
		}
		var (
			enc  []byte
			hist []store.OpsRec
		)
		switch rec.kind {
		case recState:
			var b wire.Buffer
			appendStateBytes(&b, rec.urn, rec.ver, rec.obj)
			enc = b.Bytes()
		case recOps:
			hist = []store.OpsRec{opsOf(t, rec.ops)}
			enc = recOf(encodeOps(new(wire.Buffer), rec.urn, rec.prevVer, rec.ver, hist[0].Src, hist[0].Invs, wire.Raw(rec.obj), rec.prevOff))
		case recSnap:
			hist = snapWindow(t, rec)
			enc = encodeSnap(rec.urn, rec.ver, rec.obj, hist)
		default:
			t.Fatalf("accepted record kind %#x", rec.kind)
		}
		again, err := decodeRecord(enc, newNames())
		if err == nil {
			switch again.kind {
			case recOps:
				if h := opsOf(t, again.ops); !reflect.DeepEqual([]store.OpsRec{h}, hist) {
					err = errors.New("the ops changed")
				}
			case recSnap:
				if !reflect.DeepEqual(snapWindow(t, again), hist) {
					err = errors.New("the window changed")
				}
			}
		}
		// ops holds the history as it was encoded: the same history, but a
		// padded uvarint in it is written back minimal.
		again.ops, rec.ops = nil, nil
		if err != nil || !reflect.DeepEqual(again, rec) {
			t.Fatalf("record did not survive re-encoding: %v\n got %+v\nwant %+v", err, again, rec)
		}
	})
}

// checkSkipOps holds skipOps, the check every ops record and window entry
// gets, to reading the same bytes with rdo.ReadInvocations: on an ops
// record's source and invocations, whatever surrounds them, both fail or
// both stop at the same byte, and the read allocates in proportion to them.
func checkSkipOps(t *testing.T, p []byte) {
	r := wire.NewReader(p)
	if r.Byte() != recOps {
		return
	}
	r.View()    // urn
	r.Uvarint() // prevVer
	r.Uvarint() // ver
	if r.Err() != nil {
		return
	}
	skip := *r
	serr := skipOps(&skip)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.View() // src
	_, rerr := rdo.ReadInvocations(r, r.Uvarint())
	runtime.ReadMemStats(&after)
	checkAllocated(t, p, after.TotalAlloc-before.TotalAlloc)
	if (serr == nil) != (rerr == nil) || (serr == nil && skip.Remaining() != r.Remaining()) {
		t.Fatalf("skipping invocations: %v at %d bytes left; reading them: %v at %d", serr, skip.Remaining(), rerr, r.Remaining())
	}
}

// checkAllocated fails t if decoding p allocated out of proportion to it.
func checkAllocated(t *testing.T, p []byte, spent uint64) {
	t.Helper()
	if spent > 1<<20+64*uint64(len(p)) {
		t.Fatalf("%d input bytes made the decoder allocate %d bytes", len(p), spent)
	}
}

// opsOf decodes an ops record's source and invocations from its ops view.
func opsOf(t testing.TB, ops []byte) store.OpsRec {
	t.Helper()
	r := wire.NewReader(ops)
	e := store.OpsRec{Src: r.String()}
	invs, err := rdo.ReadInvocations(r, r.Uvarint())
	if err != nil || !r.Done() {
		t.Fatalf("ops %x: %v", ops, err)
	}
	e.Invs = invs
	return e
}

// recOf is a record encoder's record, without the view of its object.
func recOf(rec, _ []byte) []byte { return rec }

// snapWindow decodes the window of a 'Z' record that decodeRecord accepted.
func snapWindow(t testing.TB, rec record) []store.OpsRec {
	t.Helper()
	r := wire.NewReader(rec.ops)
	var hist []store.OpsRec
	for range r.Uvarint() {
		e := store.OpsRec{Ver: r.Uvarint(), Src: r.String()}
		invs, err := rdo.ReadInvocations(r, r.Uvarint())
		if err != nil {
			t.Fatal(err)
		}
		e.Invs = invs
		hist = append(hist, e)
	}
	return hist
}

// encodeSnap encodes a 'Z' record from a decoded window: the reference the
// byte copy compaction makes is held to.
func encodeSnap(u urn.URN, ver uint64, obj []byte, hist []store.OpsRec) []byte {
	var b wire.Buffer
	b.PutByte(recSnap)
	b.PutString(u.String())
	b.PutUvarint(ver)
	b.PutBytes(obj)
	b.PutUvarint(uint64(len(hist)))
	for _, h := range hist {
		b.PutUvarint(h.Ver)
		b.PutString(h.Src)
		b.PutUvarint(uint64(len(h.Invs)))
		for i := range h.Invs {
			h.Invs[i].MarshalWire(&b)
		}
	}
	return b.Bytes()
}

// FuzzDecodeSidecar: Open reads store.fidx before it trusts a footer, and
// the file may be stale, torn or foreign. The decoder never panics, and
// whatever it accepts re-encodes to the very bytes it was decoded from, so
// no two files point Open at the same footer.
func FuzzDecodeSidecar(f *testing.F) {
	gen := bytes.Repeat([]byte{0x5a}, footerGenLen)
	f.Add(encodeSidecar(footerInfo{gen: gen, off: 4096, parts: 3}))
	f.Add(encodeSidecar(footerInfo{gen: gen, off: -1, parts: 0}))
	f.Add(encodeSidecar(footerInfo{gen: gen[:4], off: 1, parts: 1}))
	f.Add([]byte{})
	// The offset 0 spelled in two bytes: binary.Uvarint reads it, and the
	// file it came from is not one encodeSidecar wrote.
	long := encodeSidecar(footerInfo{gen: gen, off: 0, parts: 1})
	f.Add(slices.Concat(long[:len(long)-2], []byte{0x80, 0x00, 0x01}))
	f.Fuzz(func(t *testing.T, p []byte) {
		fi, err := decodeSidecar(p)
		if err != nil {
			return
		}
		if enc := encodeSidecar(fi); !bytes.Equal(enc, p) {
			t.Fatalf("sidecar %x decoded to %+v, which encodes as %x", p, fi, enc)
		}
	})
}
