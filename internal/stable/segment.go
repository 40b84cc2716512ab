package stable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"
	"time"

	"rover/internal/compress"
	"rover/internal/yield"
)

// SegmentFile is the stable log engine: a crash-safe append-only record file
// with group commit, and the only code in this package that touches an
// *os.File. FileLog is an id → payload view over one; the disk-backed object
// store addresses one by byte offset.
//
// Record format (all integers are minimal uvarints unless noted):
//
//	kind[1] id [flags[1] storedLen data[storedLen]] crc32[4]
//
// kind is 'A' (append) or 'R' (remove); only 'A' records carry a payload.
// The CRC (Castagnoli) covers every byte of the record before it.
//
// Records are addressed by the byte offset AppendNoSync returns and read
// back individually with ReadAtFunc (a pread) — nothing is kept resident —
// and the open-time scan streams through the file in bounded chunks, so
// recovering a multi-gigabyte segment does not spike RSS.
//
// A staged record waits in a buffer for the commit that covers it to write
// it, one write per group: a crash before then loses it whole.
//
// A torn record at the tail — the signature of a crash mid-append — is
// truncated away at open (TornTail reports the typed *TornTailError with its
// offset; every earlier record survives). Corruption anywhere earlier fails
// the open with ErrCorrupt, since silently skipping interior records would
// reorder the replayed stream. A failed write or fsync poisons the segment
// permanently (ErrPoisoned).
type SegmentFile struct {
	mu   sync.Mutex
	path string   // fixed once the segment is shared
	f    *os.File // likewise: a rewrite hands back a new SegmentFile
	opts Options

	nextID    uint64
	fileBytes int64 // the logical end: written bytes plus those in scratch
	written   int64 // the bytes in the file; fileBytes - written are in scratch
	stats     Stats
	closed    bool
	scratch   []byte // records staged and not yet written
	torn      error  // *TornTailError once recovery truncated a torn tail

	// Group-commit state. Records are staged under mu; fsync happens with
	// mu RELEASED so concurrent appenders can stage more behind the
	// in-flight flush and then ride the next one. See commitLocked.
	writeSeq  uint64     // stage calls made
	syncedSeq uint64     // writes known durable
	syncing   bool       // an fsync is in flight (mu released by the leader)
	syncErr   error      // sticky *PoisonedError: first failed write or fsync
	synced    *sync.Cond // broadcast when a sync completes (or fails)
}

const (
	kindAppend = byte('A')
	kindRemove = byte('R')

	flagCompressed = byte(1)

	rewriteSuffix = ".compact"
	scanChunk     = 256 << 10             // recovery reads the file this much at a time
	rewriteChunk  = 256 << 10             // staged bytes past this are written without a commit
	yieldSync     = "stable.segment.sync" // the yield.Point where a leader lets go of mu to fsync
)

var (
	crcTable = crc32.MakeTable(crc32.Castagnoli)

	// errTorn is a proper prefix of a well-framed record: more bytes could
	// complete it. At EOF that is a crash mid-append.
	errTorn = fmt.Errorf("stable: torn record")
	// errBadCRC is a structurally complete record whose checksum failed.
	// recover decides by position whether it is a torn tail (last record:
	// truncate and continue) or interior corruption (fail the open).
	errBadCRC = fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
)

func newSegment(path string, opts Options, flag int) (*SegmentFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|flag, 0o600)
	if err != nil {
		return nil, fmt.Errorf("stable: open: %w", err)
	}
	s := &SegmentFile{path: path, f: f, opts: opts, nextID: 1}
	s.synced = sync.NewCond(&s.mu)
	return s, nil
}

// OpenSegmentFile opens (or creates) the segment at path and streams every
// intact record from byte offset start on through scan in file order,
// passing each record's byte offset and payload; scan may be nil. The payload
// slice is only valid for the duration of the scan call — retain a copy, not
// the slice. start is 0 or a record boundary a previous incarnation persisted
// (e.g. an index footer's offset), letting a recovered index skip the bulk of
// the file: records before it are trusted unseen, and start past the file's
// end fails the open (the offset belongs to some other incarnation of the
// file). A torn trailing record is truncated away (TornTail reports it);
// interior corruption, or a record that is not an append, fails the open. A
// <path>.compact left by a crash mid-Rewrite is removed.
func OpenSegmentFile(path string, opts Options, start int64, scan func(off int64, rec []byte) error) (*SegmentFile, error) {
	return openSegment(path, opts, start, func(off int64, r record) error {
		if r.kind != kindAppend {
			return fmt.Errorf("%w: segment offset %d: unexpected kind %#x", ErrCorrupt, off, r.kind)
		}
		if scan == nil {
			return nil
		}
		return scan(off, r.payload)
	})
}

// openSegment is the one open path: scan sees records of both kinds.
func openSegment(path string, opts Options, start int64, scan func(off int64, r record) error) (*SegmentFile, error) {
	s, err := newSegment(path, opts, 0)
	if err != nil {
		return nil, err
	}
	// The rename is Rewrite's atomic switch; a surviving rewrite file is
	// garbage from a crash before it.
	os.Remove(path + rewriteSuffix)
	if err := s.recover(start, scan); err != nil {
		s.f.Close()
		return nil, err
	}
	return s, nil
}

// CreateSegmentFile creates an empty segment at path, truncating any
// existing file.
func CreateSegmentFile(path string, opts Options) (*SegmentFile, error) {
	return newSegment(path, opts, os.O_TRUNC)
}

// recover scans the file from byte offset start to its end, handing each
// intact record to scan. A bad record that ends exactly at the end of the
// file is a crash mid-append: it is truncated away. Any other fails the open.
func (s *SegmentFile) recover(start int64, scan func(off int64, r record) error) error {
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("stable: open: %w", err)
	}
	end := fi.Size()
	if start > end {
		return fmt.Errorf("%w: segment scan start %d past end %d", ErrCorrupt, start, end)
	}
	err = s.scanRange(start, end, func(off int64, r record, n int, err error) error {
		switch {
		case err != nil && off+int64(n) == end:
			s.torn = &TornTailError{Offset: off}
			end = off // the scan steps over it and stops
			if err := s.f.Truncate(off); err != nil {
				return fmt.Errorf("stable: truncate torn tail: %w", err)
			}
			return nil
		case err != nil:
			return fmt.Errorf("stable: offset %d: %w", off, err)
		}
		if err := scan(off, r); err != nil {
			return err
		}
		s.nextID = max(s.nextID, r.id+1)
		return nil
	})
	if err != nil {
		return err
	}
	if _, err := s.f.Seek(end, io.SeekStart); err != nil {
		return err
	}
	s.fileBytes, s.written = end, end
	return nil
}

// scanRange reads the records in [start, end) in file order through one
// window buffer: buf[lo:hi] is the unparsed remainder and pos the file offset
// of buf[lo]. A refill slides the remainder to the front and reads behind it;
// the window doubles only when one record fills it. fn gets each record's
// offset, the record, its extent n and its parse error: nil, errBadCRC (n
// still spans the record), or an ErrCorrupt one, whose n is end-off for a
// record that runs past end and 0 for one that cannot be framed. The scan
// steps over each record fn accepts and stops at fn's first error or at an
// unframed record, which fails it. Payloads alias buf and are only valid
// during the call.
func (s *SegmentFile) scanRange(start, end int64, fn func(off int64, r record, n int, err error) error) error {
	buf := make([]byte, min(scanChunk, end-start))
	lo, hi, pos := 0, 0, start
	for pos < end {
		r, n, perr := parseRecord(buf[lo:hi])
		if perr == errTorn && pos+int64(hi-lo) < end {
			hi, lo = copy(buf, buf[lo:hi]), 0
			if hi == len(buf) {
				buf = slices.Grow(buf, len(buf))
				buf = buf[:cap(buf)]
			}
			want := buf[hi:min(int64(len(buf)), end-pos)]
			m, err := s.f.ReadAt(want, pos+int64(hi))
			if m < len(want) {
				return fmt.Errorf("stable: read: %w", err)
			}
			hi += m
			continue
		}
		if perr == errTorn {
			n, perr = int(end-pos), fmt.Errorf("%w: record runs past %d", ErrCorrupt, end)
		}
		if err := fn(pos, r, n, perr); err != nil {
			return err
		}
		if n == 0 {
			return perr
		}
		lo += n
		pos += int64(n)
	}
	return nil
}

// record is one parsed log record. An uncompressed payload aliases the bytes
// it was parsed from, so it is only valid while the caller owns those; a
// compressed one (inflated) is freshly allocated.
type record struct {
	kind     byte
	id       uint64
	payload  []byte
	inflated bool
}

// recHeader is a record's framing up to its stored bytes.
type recHeader struct {
	kind, flags byte
	id          uint64
	body        int // the stored bytes are p[body : body+stored]
	stored      int // zero for a remove
}

// size is the record's full on-disk extent, checksum included.
func (h recHeader) size() int { return h.body + h.stored + 4 }

// uvarint decodes a uvarint as appendRecord writes one: errTorn if p ends
// first, ErrCorrupt for an overflow or a padded (non-minimal) encoding.
func uvarint(p []byte) (uint64, int, error) {
	v, n := binary.Uvarint(p)
	if n == 0 && len(p) < binary.MaxVarintLen64 {
		return 0, 0, errTorn
	}
	if n <= 0 || (n > 1 && p[n-1] == 0) {
		return 0, 0, fmt.Errorf("%w: bad varint", ErrCorrupt)
	}
	return v, n, nil
}

// parseHeader decodes a record header from a prefix of the record; errTorn
// means the prefix was too short.
func parseHeader(p []byte) (h recHeader, err error) {
	if len(p) < 1 {
		return h, errTorn
	}
	h.kind = p[0]
	if h.kind != kindAppend && h.kind != kindRemove {
		return h, fmt.Errorf("%w: bad kind %#x", ErrCorrupt, h.kind)
	}
	var n int
	if h.id, n, err = uvarint(p[1:]); err != nil {
		return h, err
	}
	h.body = 1 + n
	if h.kind == kindRemove {
		return h, nil
	}
	if h.body >= len(p) {
		return h, errTorn
	}
	if h.flags = p[h.body]; h.flags&^flagCompressed != 0 {
		return h, fmt.Errorf("%w: bad flags %#x", ErrCorrupt, h.flags)
	}
	stored, n, err := uvarint(p[h.body+1:])
	if err != nil {
		return h, err
	}
	if stored > MaxRecord {
		return h, fmt.Errorf("%w: record of %d bytes", ErrCorrupt, stored)
	}
	h.body += 1 + n
	h.stored = int(stored)
	return h, nil
}

// parseRecord parses and checksums the record at the front of p and returns
// how many bytes it spans. On errBadCRC the span is still reported, so a
// scan can tell a torn write at the tail (record ends exactly at EOF)
// from interior corruption.
func parseRecord(p []byte) (record, int, error) {
	h, err := parseHeader(p)
	if err != nil {
		return record{}, 0, err
	}
	n := h.size()
	if n > len(p) {
		return record{}, 0, errTorn
	}
	if crc32.Checksum(p[:n-4], crcTable) != binary.LittleEndian.Uint32(p[n-4:]) {
		return record{}, n, errBadCRC
	}
	r := record{kind: h.kind, id: h.id, payload: p[h.body : h.body+h.stored]}
	if h.flags&flagCompressed != 0 {
		dec, err := compress.Inflate(r.payload, MaxRecord)
		if err != nil {
			return record{}, 0, fmt.Errorf("%w: inflate: %v", ErrCorrupt, err)
		}
		r.payload, r.inflated = dec, true
	}
	return r, n, nil
}

// appendRecord encodes one record onto b, deflating a payload over 64 bytes
// when deflate is set and it helps.
func appendRecord(b []byte, kind byte, id uint64, payload []byte, deflate bool) []byte {
	start := len(b)
	b = append(b, kind)
	b = binary.AppendUvarint(b, id)
	if kind == kindAppend {
		body, deflated := len(b), false
		if deflate && len(payload) > 64 {
			b, deflated = compress.AppendDeflate(b, payload)
		}
		if deflated {
			// The stored length precedes the deflated bytes but is known
			// only once they are in place.
			var hdr [1 + binary.MaxVarintLen64]byte
			hdr[0] = flagCompressed
			n := 1 + binary.PutUvarint(hdr[1:], uint64(len(b)-body))
			b = slices.Insert(b, body, hdr[:n]...)
		} else {
			b = append(b, 0)
			b = binary.AppendUvarint(b, uint64(len(payload)))
			b = append(b, payload...)
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[start:], crcTable))
}

// AppendNoSync stages one record and returns its starting byte offset
// without writing it or waiting for durability; the offset must not be
// published to readers until a Commit covering it returns nil, which also
// puts the record in the file. On a poisoned segment it fails immediately.
func (s *SegmentFile) AppendNoSync(rec []byte) (int64, error) {
	off, _, err := s.stage(kindAppend, rec, 0)
	return off, err
}

// stage encodes one record of kind per id into the staging buffer, returning
// its offset and write sequence number; the caller decides whether to wait
// for durability (commit). id 0 takes the segment's own next id. The buffer
// is written once it holds rewriteChunk bytes, else by the next commit.
func (s *SegmentFile) stage(kind byte, payload []byte, ids ...uint64) (int64, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return 0, 0, ErrClosed
	case s.syncErr != nil:
		return 0, 0, s.syncErr
	case len(payload) > MaxRecord:
		return 0, 0, ErrRecordBig
	}
	start := len(s.scratch)
	for _, id := range ids {
		if id == 0 {
			id = s.nextID
		}
		if id >= s.nextID {
			s.nextID = id + 1
		}
		s.scratch = appendRecord(s.scratch, kind, id, payload, s.opts.Compress)
	}
	off := s.fileBytes
	s.fileBytes += int64(len(s.scratch) - start)
	s.stats.BytesWritten += int64(len(s.scratch) - start)
	s.writeSeq++
	if kind == kindAppend {
		s.stats.Appends += int64(len(ids))
		s.stats.BytesLogical += int64(len(payload) * len(ids))
	}
	if len(s.scratch) >= rewriteChunk {
		if err := s.writeLocked(); err != nil {
			return 0, 0, err
		}
	}
	return off, s.writeSeq, nil
}

// writeLocked writes the staged records to the file in one write. A failed
// or short write leaves bytes of unknown extent at the tail, so it poisons
// the segment exactly as a failed fsync does: nothing may land after them,
// the logical end falls back to the written one, and the next open
// truncates them as a torn tail.
func (s *SegmentFile) writeLocked() error {
	if len(s.scratch) == 0 {
		return nil
	}
	_, err := s.f.Write(s.scratch)
	s.scratch = s.scratch[:0]
	if err != nil {
		s.fileBytes = s.written
		s.syncErr = &PoisonedError{Cause: fmt.Errorf("write: %w", err)}
		return s.syncErr
	}
	s.written = s.fileBytes
	return nil
}

// Commit blocks until every record appended so far is durable, joining the
// in-flight group commit if one is running — Log's staged-append contract,
// minus the id-based surface.
func (s *SegmentFile) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.commitLocked(s.writeSeq)
}

// commit blocks until write number seq is durable. Unlike Commit it does not
// refuse a closed segment: a waiter whose write an owner's Commit-then-Close
// already covered must get that verdict.
func (s *SegmentFile) commit(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitLocked(seq)
}

// staged returns the write sequence number a Commit issued now would cover.
func (s *SegmentFile) staged() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeSeq
}

// commitLocked blocks until write number seq is durable, via group commit:
// the first appender to arrive becomes the leader; in one hold of s.mu it
// writes everything staged in one write(2) and captures the high-water mark,
// then fsyncs with s.mu RELEASED — so appenders arriving during the flush
// stage behind it and wait. When the fsync returns, every record it covered
// is durable at once; an uncovered waiter becomes the next leader, and
// writes what was staged meanwhile first. No append or remove returns
// success before its bytes are written and flushed (under NoSync, written).
// An fsync failure is sticky — after the kernel fails a flush the page-cache
// state is unknowable, so the segment is poisoned and every waiter and later
// append gets the same typed *PoisonedError (errors.Is(err, ErrPoisoned)).
func (s *SegmentFile) commitLocked(seq uint64) error {
	if s.opts.NoSync {
		return s.writeLocked()
	}
	for s.syncedSeq < seq {
		if s.syncErr != nil {
			return s.syncErr
		}
		if s.syncing {
			s.synced.Wait()
			continue
		}
		if err := s.writeLocked(); err != nil {
			return err
		}
		target := s.writeSeq
		s.syncing = true
		s.mu.Unlock()
		yield.Point(yieldSync)
		start := time.Now()
		err := s.f.Sync()
		d := time.Since(start)
		s.mu.Lock()
		s.syncing = false
		if err != nil {
			if s.syncErr == nil {
				s.syncErr = &PoisonedError{Cause: err}
			}
		} else {
			s.syncedSeq = target
			s.stats.Syncs++
			s.stats.SyncNanos += int64(d)
		}
		s.synced.Broadcast()
	}
	return nil
}

// Rewrite replaces the segment's file with a fresh one holding whatever fill
// appends to it: it creates <path>.compact, runs fill, makes the result
// durable, renames it over <path>, and returns the fresh segment, whose
// offsets and counters start from the rewrite. s itself is untouched and
// still open (fill may read from it, and may let others append to it while
// it runs): the owner, which must keep appends to s out from the time fill
// returns, swaps its pointer and closes s, so a straggling reader gets
// ErrClosed rather than old offsets in a new file. On error the temp file
// is closed and removed and s stays the live segment. What fill appends is
// staged like any append, so it reaches the file rewriteChunk bytes at a
// time: fill must not read the fresh segment.
func (s *SegmentFile) Rewrite(fill func(fresh *SegmentFile) error) (*SegmentFile, error) {
	tmp := s.path + rewriteSuffix
	fresh, err := CreateSegmentFile(tmp, s.opts)
	if err != nil {
		return nil, err
	}
	// The survivors fit in what the live file holds: the buffer is sized once.
	fresh.scratch = make([]byte, 0, min(2*rewriteChunk, s.Size()+1))
	if err = fill(fresh); err == nil {
		err = fresh.Commit()
	}
	if err == nil {
		err = os.Rename(tmp, s.path)
	}
	if err != nil {
		fresh.Close()
		os.Remove(tmp)
		return nil, err
	}
	fresh.path = s.path
	// It stages a group at a time from here on, in the old one's buffer (what
	// is still staged there could only reach the file the rename replaced).
	s.mu.Lock()
	fresh.scratch, s.scratch = s.scratch[:0], nil
	s.mu.Unlock()
	return fresh, nil
}

// segReadPool recycles the read buffers of ReadAtFunc — the cold-object
// fault-in path does one pread per miss and the buffer is dead the moment
// the payload is decoded, so recycling removes the dominant per-fault
// allocation.
var segReadPool = sync.Pool{New: func() any { return new([]byte) }}

// readChunk is how much ReadAtFunc reads before it knows a record's length:
// a whole record of the common sizes, so it takes one pread, and only a
// longer one a second for its remainder.
const readChunk = 1 << 10

// ReadAtFunc reads back the append record starting at off — the offset a
// previous AppendNoSync (or the open-time scan) reported — verifying its
// checksum, and hands its payload to fn without copying: the payload aliases
// a pooled read buffer and is only valid for the duration of the call. This
// is the cold-object fault-in path — a single pread of up to readChunk bytes
// plus a CRC check, no locks held across the I/O, and (via the pool) no
// per-read allocation when the caller decodes in place. A record still staged
// is refused with ErrCorrupt: a read never writes.
func (s *SegmentFile) ReadAtFunc(off int64, fn func(payload []byte) error) error {
	s.mu.Lock()
	closed, size := s.closed, s.written
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if off < 0 || off >= size {
		return fmt.Errorf("%w: segment read at %d past end %d", ErrCorrupt, off, size)
	}
	bp := segReadPool.Get().(*[]byte)
	defer segReadPool.Put(bp)
	if cap(*bp) < readChunk {
		*bp = make([]byte, readChunk)
	}
	n, err := s.f.ReadAt((*bp)[:min(readChunk, size-off)], off)
	if err != nil && err != io.EOF {
		return fmt.Errorf("stable: segment read: %w", err)
	}
	h, err := parseHeader((*bp)[:n])
	if err != nil || h.kind != kindAppend {
		return fmt.Errorf("%w: segment record at %d: unparsable header", ErrCorrupt, off)
	}
	if h.size() > n {
		// Longer than the first read: keep what it got, pread the rest.
		if cap(*bp) < h.size() {
			*bp = append(make([]byte, 0, h.size()), (*bp)[:n]...)
		}
		if _, err := s.f.ReadAt((*bp)[n:h.size()], off+int64(n)); err != nil {
			return fmt.Errorf("%w: segment record at %d: short read", ErrCorrupt, off)
		}
	}
	rec, _, perr := parseRecord((*bp)[:h.size()])
	if perr != nil {
		return fmt.Errorf("%w: segment record at %d: %v", ErrCorrupt, off, perr)
	}
	return fn(rec.payload)
}

// ReadRangeFunc hands fn, in file order, every record in [start, end) — a
// run of whole append records already published, such as everything below
// an offset noted earlier — with its offset and payload. It reads the range
// sequentially through one window of up to scanChunk bytes, not with a pread
// per record; a payload is a view of the window, valid only during the call.
// A record whose checksum fails, but whose header still spans it, is handed
// to fn with a nil payload, for the caller to judge; one that runs past end
// fails the read with ErrCorrupt, as does a range that reaches records
// still staged.
func (s *SegmentFile) ReadRangeFunc(start, end int64, fn func(off int64, payload []byte) error) error {
	s.mu.Lock()
	closed, size := s.closed, s.written
	s.mu.Unlock()
	switch {
	case closed:
		return ErrClosed
	case start < 0 || start > end || end > size:
		return fmt.Errorf("%w: segment range [%d, %d) outside [0, %d)", ErrCorrupt, start, end, size)
	}
	return s.scanRange(start, end, func(off int64, r record, _ int, err error) error {
		if err != errBadCRC && (err != nil || r.kind != kindAppend) {
			return fmt.Errorf("%w: segment record at %d: %v", ErrCorrupt, off, err)
		}
		return fn(off, r.payload)
	})
}

// Size returns the segment's length in bytes, staged records included.
func (s *SegmentFile) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fileBytes
}

// TornTail reports the torn trailing record recovery truncated at open, as
// a *TornTailError (errors.Is(err, ErrTornTail) is true), or nil if the
// file ended cleanly.
func (s *SegmentFile) TornTail() error { return s.torn }

// Poisoned reports the sticky *PoisonedError set by the first failed write
// or fsync, or nil while the segment is healthy. Once non-nil, every append
// and Commit returns the same error.
func (s *SegmentFile) Poisoned() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncErr
}

// Stats returns operation counters.
func (s *SegmentFile) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close flushes a staged suffix through the group-commit loop (a poisoned
// segment has nothing more it may flush), waits out an fsync in flight, and
// closes the file.
func (s *SegmentFile) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.syncErr == nil {
		err = s.commitLocked(s.writeSeq)
	}
	for s.syncing {
		// Poisoned by a failed write while a leader is mid-flush: the leader
		// still holds the file.
		s.synced.Wait()
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}
