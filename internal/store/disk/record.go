// Package disk is the disk-backed store.Backend: an append-only segment of
// committed mutations (written through the stable package's group commit),
// a bounded LRU of hot decoded objects, and a rewrite compactor. It trades
// the in-memory backend's all-resident population for capacity: the
// resident footprint is the index plus the configured cache, while objects
// live in the segment and cold Gets fault them in with a pread.
package disk

import (
	"fmt"

	"rover/internal/rdo"
	"rover/internal/store"
	"rover/internal/urn"
	"rover/internal/wire"
)

// Segment record kinds. One record is written per committed mutation; the
// shapes mirror the replication stream's (repl.Record) — ops with source
// tagging, whole-state installs, deletes — but are encoded locally because
// repl sits above the store. 'Z' is compaction's output: the object plus
// its retained history window, so OpsSince and WasCommitted survive both
// restart and compaction.
const (
	recState  = byte('S') // opaque jump: Create, plain Commit, InstallState
	recOps    = byte('O') // ops commit: CommitOps/InstallOps with invocations
	recDelete = byte('D') // Delete/InstallDelete
	recSnap   = byte('Z') // compaction snapshot: object + history window
	recFooter = byte('X') // index footer chunk: URN → offset/len/version table
)

// record is one decoded segment record. Every kind but recDelete carries
// the full object encoding, so any record a Get faults in is
// self-contained — the index never needs to chase older records.
type record struct {
	kind    byte
	urn     urn.URN
	ver     uint64 // version the record committed (0 for recDelete)
	prevVer uint64 // recOps: version the ops applied against
	src     string // recOps: exporting client
	invs    []rdo.Invocation
	obj     []byte         // encoded object
	hist    []store.OpsRec // recSnap: retained window, oldest first
	prevOff int64          // recOps: offset of the object's previous record; -1 unknown
}

func encodeState(u urn.URN, ver uint64, obj []byte) []byte {
	b := wire.GetBuffer()
	b.PutByte(recState)
	b.PutString(u.String())
	b.PutUvarint(ver)
	b.PutBytes(obj)
	return wire.Detach(b)
}

// encodeOps frames an ops commit. prevOff is the byte offset of the
// object's previous record in the same segment (-1 when unknown); it is
// appended as a trailing field, biased by one so absence and "no previous"
// both decode safely, making old records (no trailing field) readable and
// letting recovery and catch-up walk an object's record chain backwards
// without scanning.
func encodeOps(u urn.URN, prevVer, ver uint64, src string, invs []rdo.Invocation, obj []byte, prevOff int64) []byte {
	b := wire.GetBuffer()
	b.PutByte(recOps)
	b.PutString(u.String())
	b.PutUvarint(prevVer)
	b.PutUvarint(ver)
	b.PutString(src)
	b.PutUvarint(uint64(len(invs)))
	for i := range invs {
		invs[i].MarshalWire(b)
	}
	b.PutBytes(obj)
	if prevOff < 0 {
		b.PutUvarint(0)
	} else {
		b.PutUvarint(uint64(prevOff) + 1)
	}
	return wire.Detach(b)
}

func encodeDelete(u urn.URN) []byte {
	b := wire.GetBuffer()
	b.PutByte(recDelete)
	b.PutString(u.String())
	return wire.Detach(b)
}

func encodeSnap(u urn.URN, ver uint64, obj []byte, hist []store.OpsRec) []byte {
	b := wire.GetBuffer()
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
			h.Invs[i].MarshalWire(b)
		}
	}
	return wire.Detach(b)
}

func decodeRecord(p []byte) (record, error) {
	r := wire.NewReader(p)
	var rec record
	rec.kind = r.Byte()
	us := r.String()
	if err := r.Err(); err != nil {
		return rec, fmt.Errorf("disk: record header: %w", err)
	}
	u, err := urn.Parse(us)
	if err != nil {
		return rec, fmt.Errorf("disk: record urn: %w", err)
	}
	rec.urn = u
	switch rec.kind {
	case recState:
		rec.ver = r.Uvarint()
		rec.obj = r.Bytes()
	case recOps:
		rec.prevVer = r.Uvarint()
		rec.ver = r.Uvarint()
		rec.src = r.String()
		n := int(r.Uvarint())
		if r.Err() != nil {
			return rec, fmt.Errorf("disk: ops record: %w", r.Err())
		}
		rec.invs = make([]rdo.Invocation, n)
		for i := 0; i < n; i++ {
			if err := rec.invs[i].UnmarshalWire(r); err != nil {
				return rec, fmt.Errorf("disk: ops record inv %d: %w", i, err)
			}
		}
		rec.obj = r.Bytes()
		rec.prevOff = -1
		if !r.Done() {
			rec.prevOff = int64(r.Uvarint()) - 1
		}
	case recDelete:
	case recSnap:
		rec.ver = r.Uvarint()
		rec.obj = r.Bytes()
		n := int(r.Uvarint())
		if r.Err() != nil {
			return rec, fmt.Errorf("disk: snap record: %w", r.Err())
		}
		rec.hist = make([]store.OpsRec, n)
		for i := 0; i < n; i++ {
			rec.hist[i].Ver = r.Uvarint()
			rec.hist[i].Src = r.String()
			m := int(r.Uvarint())
			if r.Err() != nil {
				return rec, fmt.Errorf("disk: snap record window %d: %w", i, r.Err())
			}
			rec.hist[i].Invs = make([]rdo.Invocation, m)
			for j := 0; j < m; j++ {
				if err := rec.hist[i].Invs[j].UnmarshalWire(r); err != nil {
					return rec, fmt.Errorf("disk: snap record inv: %w", err)
				}
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
	return rec, nil
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

func decodeFooterChunk(p []byte) (gen []byte, part uint64, ents []footerEnt, err error) {
	r := wire.NewReader(p)
	if r.Byte() != recFooter {
		return nil, 0, nil, fmt.Errorf("disk: not a footer record")
	}
	gen = r.Bytes()
	part = r.Uvarint()
	n := int(r.Uvarint())
	if err := r.Err(); err != nil || len(gen) != footerGenLen {
		return nil, 0, nil, fmt.Errorf("disk: footer chunk header: %v", err)
	}
	ents = make([]footerEnt, 0, n)
	for i := 0; i < n; i++ {
		us := r.String()
		ver := r.Uvarint()
		off := int64(r.Uvarint())
		rlen := int64(r.Uvarint())
		kind := r.Byte()
		typ := r.String()
		if err := r.Err(); err != nil {
			return nil, 0, nil, fmt.Errorf("disk: footer entry %d: %w", i, err)
		}
		u, uerr := urn.Parse(us)
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
// decode of every object's state.
func objType(obj []byte) (string, error) {
	r := wire.NewReader(obj)
	_ = r.String() // urn
	t := r.String()
	return t, r.Err()
}
