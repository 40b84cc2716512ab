// Package disk is the disk-backed store.Backend: an append-only segment of
// committed mutations (written through the stable package's group commit),
// a bounded LRU of hot decoded objects, and a rewrite compactor. It trades
// the in-memory backend's all-resident population for capacity: the
// resident footprint is the index plus the configured cache, while objects
// live in the segment and cold Gets fault them in with a pread.
package disk

import (
	"bytes"
	"fmt"
	"math"
	"strings"

	"rover/internal/rdo"
	"rover/internal/urn"
	"rover/internal/wire"
)

// Segment record kinds. One record is written per committed mutation; the
// shapes mirror the replication stream's (repl.Record) — ops with source
// tagging and whole-state installs — but are encoded locally because repl
// sits above the store. 'Z' is compaction's output: the object plus
// its history window, the last store.DefaultHistoryLimit ops commits, so
// OpsSince and WasCommitted still find them once compaction has dropped
// their 'O' records.
const (
	recState  = byte('S') // opaque jump: Create, plain Commit, InstallState
	recOps    = byte('O') // ops commit: CommitOps/InstallOps with invocations
	recSnap   = byte('Z') // compaction snapshot: object + history window
	recFooter = byte('X') // index footer chunk: URN → offset/len/version table
)

// record is one decoded segment record. Every kind carries the full object
// encoding, so any record a Get faults in is self-contained — the index
// never needs to chase older records.
type record struct {
	kind    byte
	urn     urn.URN
	ver     uint64 // version the record committed
	prevVer uint64 // recOps: version the ops applied against
	obj     []byte // encoded object
	prevOff int64  // recOps: offset of the object's previous record; -1 unknown
	// ops is the history the record carries as it is encoded, a view of the
	// bytes decoded in place (nil when decoded copying): for recOps its
	// source and count-prefixed invocations, which is also the body of a
	// 'Z' window entry; for recSnap the count-prefixed window entries, each
	// a version and such a body.
	ops []byte
}

// encodeState frames a state record in b, which it resets. Like encodeOps
// it encodes obj straight into the record and returns objBytes, that
// encoding, as a view of rec; both are b's and valid until b is reused.
func encodeState(b *wire.Buffer, u urn.URN, ver uint64, obj wire.Marshaler) (rec, objBytes []byte) {
	b.Reset()
	b.PutByte(recState)
	b.PutString(u.String())
	b.PutUvarint(ver)
	n := b.PutMessage(obj)
	rec = b.Bytes()
	return rec, rec[len(rec)-n:]
}

// appendStateBytes appends the same record to b, framed around an object
// encoding already made: the bytes compaction read back.
func appendStateBytes(b *wire.Buffer, u urn.URN, ver uint64, obj []byte) {
	b.PutByte(recState)
	b.PutString(u.String())
	b.PutUvarint(ver)
	b.PutBytes(obj)
}

// encodeOps frames an ops commit in b, which it resets. prevOff is the byte
// offset of the object's previous record in the same segment (-1 when
// unknown); it is appended as a trailing field, biased by one so absence
// and "no previous" both decode safely, making old records (no trailing
// field) readable and letting history reads (walkChain) walk an object's
// record chain backwards without scanning.
func encodeOps(b *wire.Buffer, u urn.URN, prevVer, ver uint64, src string, invs []rdo.Invocation, obj wire.Marshaler, prevOff int64) (rec, objBytes []byte) {
	b.Reset()
	b.PutByte(recOps)
	b.PutString(u.String())
	b.PutUvarint(prevVer)
	b.PutUvarint(ver)
	b.PutString(src)
	b.PutUvarint(uint64(len(invs)))
	for i := range invs {
		invs[i].MarshalWire(b)
	}
	n := b.PutMessage(obj)
	end := b.Len()
	if prevOff < 0 {
		b.PutUvarint(0)
	} else {
		b.PutUvarint(uint64(prevOff) + 1)
	}
	rec = b.Bytes()
	return rec, rec[end-n : end]
}

// unlinked returns the ops record p, already checked by decodeRecord,
// without its trailing chain link: a view of p that ends with the object.
func unlinked(p []byte) []byte {
	r := wire.OwnedReader(p)
	r.Byte()    // kind
	r.View()    // urn
	r.Uvarint() // prevVer
	r.Uvarint() // ver
	skipOps(&r)
	r.View() // the object
	return p[:len(p)-r.Remaining()]
}

// names holds the strings an open-time decode keeps, so rebuilding an index
// of N objects does not allocate N of each. URNs are copied into shared
// append-only blocks (a strings.Builder grown nameBlock at a time) and
// sliced; types, a handful of distinct values, are interned.
// keys maps each object the decode met more than once to the key its index
// entry holds, so a long tail of commits to the same objects copies each
// URN at most twice. A names is not safe for concurrent use.
//
// A names{held: u} is a probe for one record: it resolves u to the caller's
// own key and interns nothing.
type names struct {
	blk    strings.Builder
	intern map[string]string
	keys   map[urn.URN]urn.URN
	held   urn.URN
}

const nameBlock = 64 << 10

func newNames() *names {
	return &names{intern: make(map[string]string), keys: make(map[urn.URN]urn.URN)}
}

// block returns a string holding b, sliced from the current block.
func (n *names) block(b []byte) string {
	if n.blk.Cap()-n.blk.Len() < len(b) {
		n.blk.Reset() // strings already handed out keep the old block
		n.blk.Grow(max(nameBlock, len(b)))
	}
	start := n.blk.Len()
	n.blk.Write(b)
	return n.blk.String()[start:]
}

// str reads a length-prefixed string, interned.
func (n *names) str(r *wire.Reader) string {
	b := r.Bytes()
	if s, ok := n.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	if n.intern != nil {
		n.intern[s] = s
	}
	return s
}

// urn reads and parses a length-prefixed URN: a fresh copy without names,
// else a key already held for it or one sliced from the current block.
func (n *names) urn(r *wire.Reader) (urn.URN, error) {
	if n == nil {
		return urn.Parse(r.String())
	}
	b := r.Bytes()
	if len(b) > len(urn.Prefix) && string(b[:len(urn.Prefix)]) == urn.Prefix {
		rest := b[len(urn.Prefix):]
		if i := bytes.IndexByte(rest, '/'); i >= 0 {
			// Neither comparison allocates, and a held key is valid.
			a, p := rest[:i], rest[i+1:]
			if !n.held.IsZero() && string(a) == n.held.Authority && string(p) == n.held.Path {
				return n.held, nil
			}
			if u, ok := n.keys[urn.URN{Authority: string(a), Path: string(p)}]; ok {
				return u, nil
			}
		}
	}
	return urn.Parse(n.block(b))
}

// decodeRecord decodes one segment record. It checks an ops record's
// source and invocations, and a snapshot record's window, without keeping
// them, so it allocates nothing in proportion to a count; Open checks every
// record this way, and the reads that want the encoded history take it from
// ops. With names it decodes in place: obj and ops alias p and the URN comes
// from n. Without names (nil) everything it returns is a copy and ops is
// nil, so p may be a pooled read buffer.
func decodeRecord(p []byte, n *names) (record, error) {
	r := wire.OwnedReader(p)
	if n == nil {
		r = *wire.NewReader(p)
	}
	var rec record
	rec.kind = r.Byte()
	u, uerr := n.urn(&r)
	if err := r.Err(); err != nil {
		return rec, fmt.Errorf("disk: record header: %w", err)
	}
	if uerr != nil {
		return rec, fmt.Errorf("disk: record urn: %w", uerr)
	}
	rec.urn = u
	switch rec.kind {
	case recState:
		rec.ver = r.Uvarint()
		rec.obj = r.Bytes()
	case recOps:
		rec.prevVer = r.Uvarint()
		rec.ver = r.Uvarint()
		start := len(p) - r.Remaining()
		if err := skipOps(&r); err != nil {
			return rec, fmt.Errorf("disk: ops record: %w", err)
		}
		rec.ops = p[start : len(p)-r.Remaining()]
		rec.obj = r.Bytes()
		rec.prevOff = -1
		if !r.Done() {
			link := r.Uvarint()
			if link > math.MaxInt64 {
				return rec, fmt.Errorf("disk: ops record chain link %d out of range", link)
			}
			rec.prevOff = int64(link) - 1
		}
	case recSnap:
		rec.ver = r.Uvarint()
		rec.obj = r.Bytes()
		rec.ops = p[len(p)-r.Remaining():]
		for i, cnt := uint64(0), r.Uvarint(); i < cnt; i++ {
			r.Uvarint() // the entry's version
			if err := skipOps(&r); err != nil {
				return rec, fmt.Errorf("disk: snap record window %d: %w", i, err)
			}
		}
	default:
		return rec, fmt.Errorf("disk: unknown record kind %#x", rec.kind)
	}
	if err := r.Err(); err != nil {
		return rec, fmt.Errorf("disk: record body: %w", err)
	}
	if !r.Done() {
		return rec, fmt.Errorf("disk: record has trailing bytes")
	}
	if n == nil {
		rec.ops = nil // a view of p, which a copying caller may recycle
	}
	return rec, nil
}

// skipOps reads past the source and the count-prefixed invocations of one
// commit, checking them.
func skipOps(r *wire.Reader) error {
	r.View()
	return rdo.SkipInvocations(r, r.Uvarint())
}

// Index footer. Compaction (and a clean Close) append the live index as a
// run of 'X' chunk records at the segment's end, and record the run's start
// offset in the store.fidx sidecar. Open then rebuilds the index from the
// footer plus a scan of only the post-footer tail, instead of streaming the
// whole segment. Each chunk carries the footer generation (a random token
// shared with the sidecar, so a sidecar left over from a replaced segment
// can never be trusted), its part number within the run, and a slice of
// index entries. Chunks are bounded well under stable.MaxRecord so a footer
// over millions of objects frames cleanly.
const (
	footerGenLen    = 16
	footerChunkEnts = 32 << 10 // entries per 'X' record (~2-4 MB typical)
)

// footerEnt is one footer line: an object's resident index entry.
type footerEnt struct {
	u   urn.URN
	ent idxEnt
}

func encodeFooterChunk(gen []byte, part uint64, ents []footerEnt) []byte {
	var b wire.Buffer
	b.PutByte(recFooter)
	b.PutBytes(gen)
	b.PutUvarint(part)
	b.PutUvarint(uint64(len(ents)))
	for _, e := range ents {
		b.PutString(e.u.String())
		b.PutUvarint(e.ent.ver)
		b.PutUvarint(uint64(e.ent.off))
		b.PutUvarint(uint64(e.ent.rlen))
		b.PutByte(e.ent.kind)
		b.PutString(e.ent.typ)
	}
	return b.Bytes()
}

// decodeFooterChunk decodes one index footer chunk in place: gen aliases p,
// and the entries' strings come from n.
func decodeFooterChunk(p []byte, n *names) (gen []byte, part uint64, ents []footerEnt, err error) {
	r := wire.OwnedReader(p)
	if r.Byte() != recFooter {
		return nil, 0, nil, fmt.Errorf("disk: not a footer record")
	}
	gen = r.Bytes()
	part = r.Uvarint()
	cnt := r.Uvarint()
	if err := r.Err(); err != nil || len(gen) != footerGenLen {
		return nil, 0, nil, fmt.Errorf("disk: footer chunk header: %v", err)
	}
	// Sized by the bytes present: an entry encodes to at least six.
	ents = make([]footerEnt, 0, min(cnt, uint64(r.Remaining()/6)))
	for i := uint64(0); i < cnt; i++ {
		us := r.Bytes()
		ver := r.Uvarint()
		off := int64(r.Uvarint())
		rlen := int64(r.Uvarint())
		kind := r.Byte()
		typ := n.str(&r)
		if err := r.Err(); err != nil {
			return nil, 0, nil, fmt.Errorf("disk: footer entry %d: %w", i, err)
		}
		u, uerr := urn.Parse(n.block(us))
		if uerr != nil {
			return nil, 0, nil, fmt.Errorf("disk: footer entry %d: %w", i, uerr)
		}
		ents = append(ents, footerEnt{u: u, ent: idxEnt{ver: ver, off: off, rlen: rlen, typ: typ, kind: kind}})
	}
	if !r.Done() {
		return nil, 0, nil, fmt.Errorf("disk: footer chunk has trailing bytes")
	}
	return gen, part, ents, nil
}

// objType decodes just the type field from an object encoding (URN string,
// then type string lead the layout), sparing the recovery scan a full
// decode of every object's state. The type comes interned from n.
func objType(obj []byte, n *names) (string, error) {
	r := wire.OwnedReader(obj)
	_ = r.Bytes() // urn
	t := n.str(&r)
	return t, r.Err()
}
