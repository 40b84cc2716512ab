package stable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"rover/internal/compress"
)

// FileLog is a crash-safe append-only file log.
//
// Record format (all integers are uvarints unless noted):
//
//	kind[1] id [flags[1] storedLen data[storedLen]] crc32[4]
//
// kind is 'A' (append) or 'R' (remove); only 'A' records carry a payload.
// The CRC (Castagnoli) covers every byte of the record before it. A torn
// record at the tail — the signature of a crash mid-append — is detected
// and truncated away at open (TornTail reports the typed ErrTornTail with
// its offset; every earlier record survives). Corruption anywhere earlier
// is reported as ErrCorrupt and fails the open, since silently skipping
// interior records would reorder the replayed request stream.
type FileLog struct {
	mu   sync.Mutex
	path string
	f    *os.File
	opts Options

	next      uint64
	live      map[uint64]liveRec
	order     []uint64
	fileBytes int64
	liveBytes int64
	stats     Stats
	closed    bool
	scratch   []byte
	torn      *TornTailError // set when recovery truncated a torn tail

	// Group-commit state. Writes are sequenced under mu; fsync happens with
	// mu RELEASED so concurrent appenders can queue more writes behind the
	// in-flight flush and then ride the next one. See commitLocked.
	writeSeq  uint64        // writes issued to the file
	syncedSeq uint64        // writes known durable
	syncing   bool          // an fsync is in flight (mu released by the leader)
	syncErr   error         // sticky: the first fsync failure poisons the log
	synced    *sync.Cond    // broadcast when a sync completes (or fails)
	syncEWMA  time.Duration // rolling measured fsync latency (see Cost)
}

type liveRec struct {
	payload []byte // decompressed
}

const (
	kindAppend = byte('A')
	kindRemove = byte('R')

	flagCompressed = byte(1)

	compactFloor = 64 << 10 // don't bother compacting tiny logs
)

var _ BatchLog = (*FileLog)(nil)

// OpenFileLog opens or creates the log at path, replaying its contents.
func OpenFileLog(path string, opts Options) (*FileLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, fmt.Errorf("stable: open: %w", err)
	}
	l := &FileLog{
		path: path,
		f:    f,
		opts: opts,
		next: 1,
		live: make(map[uint64]liveRec),
	}
	l.synced = sync.NewCond(&l.mu)
	if err := l.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// recover scans the file, rebuilding the live set and truncating a torn
// tail if present.
func (l *FileLog) recover() error {
	data, err := io.ReadAll(l.f)
	if err != nil {
		return fmt.Errorf("stable: read: %w", err)
	}
	off := 0
	goodEnd := 0
	for off < len(data) {
		rec, n, err := parseRecord(data[off:])
		if err != nil {
			if err == errTorn {
				break // crash tail: truncate below
			}
			if err == errBadCRC && off+n == len(data) {
				// A CRC mismatch on the final record is a torn write whose
				// partial bytes happened to parse structurally — same crash
				// signature, same recovery.
				break
			}
			return fmt.Errorf("stable: offset %d: %w", off, err)
		}
		off += n
		goodEnd = off
		switch rec.kind {
		case kindAppend:
			l.live[rec.id] = liveRec{payload: rec.payload}
			l.order = append(l.order, rec.id)
			l.liveBytes += int64(len(rec.payload))
		case kindRemove:
			if old, ok := l.live[rec.id]; ok {
				l.liveBytes -= int64(len(old.payload))
				delete(l.live, rec.id)
			}
		}
		if rec.id >= l.next {
			l.next = rec.id + 1
		}
	}
	if goodEnd < len(data) {
		l.torn = &TornTailError{Offset: int64(goodEnd)}
		if err := l.f.Truncate(int64(goodEnd)); err != nil {
			return fmt.Errorf("stable: truncate torn tail: %w", err)
		}
	}
	if _, err := l.f.Seek(int64(goodEnd), io.SeekStart); err != nil {
		return err
	}
	l.fileBytes = int64(goodEnd)
	return nil
}

type parsedRecord struct {
	kind    byte
	id      uint64
	payload []byte
}

var (
	errTorn = fmt.Errorf("stable: torn record")
	// errBadCRC is a structurally complete record whose checksum failed.
	// recover decides by position whether it is a torn tail (last record:
	// truncate and continue) or interior corruption (fail the open).
	errBadCRC = fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
)

func parseRecord(p []byte) (parsedRecord, int, error) {
	if len(p) < 1 {
		return parsedRecord{}, 0, errTorn
	}
	kind := p[0]
	if kind != kindAppend && kind != kindRemove {
		return parsedRecord{}, 0, fmt.Errorf("%w: bad kind %#x", ErrCorrupt, kind)
	}
	off := 1
	id, n := binary.Uvarint(p[off:])
	if n <= 0 {
		return parsedRecord{}, 0, errTorn
	}
	off += n
	var payload []byte
	if kind == kindAppend {
		if off >= len(p) {
			return parsedRecord{}, 0, errTorn
		}
		flags := p[off]
		off++
		storedLen, n := binary.Uvarint(p[off:])
		if n <= 0 {
			return parsedRecord{}, 0, errTorn
		}
		off += n
		if storedLen > MaxRecord {
			return parsedRecord{}, 0, fmt.Errorf("%w: record of %d bytes", ErrCorrupt, storedLen)
		}
		if off+int(storedLen) > len(p) {
			return parsedRecord{}, 0, errTorn
		}
		stored := p[off : off+int(storedLen)]
		off += int(storedLen)
		if flags&flagCompressed != 0 {
			dec, err := compress.Inflate(stored, MaxRecord)
			if err != nil {
				return parsedRecord{}, 0, fmt.Errorf("%w: inflate: %v", ErrCorrupt, err)
			}
			payload = dec
		} else {
			payload = append([]byte(nil), stored...)
		}
	}
	if off+4 > len(p) {
		return parsedRecord{}, 0, errTorn
	}
	want := binary.LittleEndian.Uint32(p[off:])
	got := crc32.Checksum(p[:off], crcTable)
	off += 4
	if got != want {
		// Report the record's full extent so recover can tell a torn write
		// at the tail (record ends exactly at EOF) from interior corruption.
		return parsedRecord{}, off, errBadCRC
	}
	return parsedRecord{kind: kind, id: id, payload: payload}, off, nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Append implements Log.
func (l *FileLog) Append(rec []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	id, seq, err := l.appendLocked(rec)
	if err != nil {
		return 0, err
	}
	if err := l.commitLocked(seq); err != nil {
		return 0, err
	}
	return id, nil
}

// AppendNoSync implements BatchLog: the record is written and sequenced
// exactly like Append, but the call returns without waiting for the flush.
// The staged record becomes durable at the next Commit (or any later
// durable Append/Remove, whose group-commit leader covers it); until then a
// crash loses it as a torn tail. Close's final safety sync also covers a
// staged suffix.
func (l *FileLog) AppendNoSync(rec []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.syncErr != nil {
		// Append surfaces the sticky poison through commitLocked; the
		// no-wait path must refuse up front or the caller would stage
		// records nothing can ever make durable.
		return 0, l.syncErr
	}
	id, _, err := l.appendLocked(rec)
	return id, err
}

// Commit implements BatchLog: blocks until every record appended so far —
// including AppendNoSync staging — is durable, riding the group commit.
func (l *FileLog) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.commitLocked(l.writeSeq)
}

// appendLocked writes one append record and returns its id and write
// sequence number; the caller decides whether to wait for durability.
func (l *FileLog) appendLocked(rec []byte) (uint64, uint64, error) {
	if l.closed {
		return 0, 0, ErrClosed
	}
	if len(rec) > MaxRecord {
		return 0, 0, ErrRecordBig
	}
	id := l.next
	l.next++
	if err := l.writeRecord(kindAppend, id, rec); err != nil {
		return 0, 0, err
	}
	cp := make([]byte, len(rec))
	copy(cp, rec)
	l.live[id] = liveRec{payload: cp}
	l.order = append(l.order, id)
	l.liveBytes += int64(len(rec))
	l.stats.Appends++
	l.stats.BytesLogical += int64(len(rec))
	return id, l.writeSeq, nil
}

// Remove implements Log.
func (l *FileLog) Remove(id uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	old, ok := l.live[id]
	if !ok {
		return ErrNotFound
	}
	if err := l.writeRecord(kindRemove, id, nil); err != nil {
		return err
	}
	if err := l.commitLocked(l.writeSeq); err != nil {
		return err
	}
	l.liveBytes -= int64(len(old.payload))
	delete(l.live, id)
	l.stats.Removes++
	return l.maybeCompactLocked()
}

// RemoveBatch implements Log: one remove record per live id, staged in a
// single write and made durable by a single group commit.
func (l *FileLog) RemoveBatch(ids []uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	b := l.scratch[:0]
	for _, id := range ids {
		if _, ok := l.live[id]; ok {
			b = l.appendRecord(b, kindRemove, id, nil)
		}
	}
	l.scratch = b
	if len(b) == 0 {
		return nil
	}
	if err := l.writeLocked(b); err != nil {
		return err
	}
	if err := l.commitLocked(l.writeSeq); err != nil {
		return err
	}
	for _, id := range ids {
		if old, ok := l.live[id]; ok {
			l.liveBytes -= int64(len(old.payload))
			delete(l.live, id)
			l.stats.Removes++
		}
	}
	return l.maybeCompactLocked()
}

// writeRecord encodes and appends one record, advancing the write sequence.
// It does NOT wait for durability — callers commit (or stage) explicitly.
func (l *FileLog) writeRecord(kind byte, id uint64, payload []byte) error {
	l.scratch = l.appendRecord(l.scratch[:0], kind, id, payload)
	return l.writeLocked(l.scratch)
}

// appendRecord encodes one record onto b.
func (l *FileLog) appendRecord(b []byte, kind byte, id uint64, payload []byte) []byte {
	start := len(b)
	b = append(b, kind)
	b = binary.AppendUvarint(b, id)
	if kind == kindAppend {
		stored := payload
		flags := byte(0)
		if l.opts.Compress && len(payload) > 64 {
			if c, ok := compress.Deflate(payload); ok {
				stored = c
				flags = flagCompressed
			}
		}
		b = append(b, flags)
		b = binary.AppendUvarint(b, uint64(len(stored)))
		b = append(b, stored...)
	}
	crc := crc32.Checksum(b[start:], crcTable)
	return binary.LittleEndian.AppendUint32(b, crc)
}

// writeLocked appends encoded records to the file as one write, advancing
// the write sequence.
func (l *FileLog) writeLocked(b []byte) error {
	if _, err := l.f.Write(b); err != nil {
		return fmt.Errorf("stable: write: %w", err)
	}
	l.fileBytes += int64(len(b))
	l.stats.BytesWritten += int64(len(b))
	l.writeSeq++
	return nil
}

// commitLocked blocks until write number seq is durable, via group commit:
// the first appender to arrive becomes the leader, captures the current
// high-water write mark, and fsyncs with l.mu RELEASED — so appenders
// arriving during the flush write their records behind it and wait. When
// the leader's fsync returns, every write it covered is durable at once
// (one fsync amortized over N appends); an uncovered waiter becomes the
// next leader. Durability is never weakened: no Append or Remove returns
// success before its own bytes are flushed. An fsync failure is sticky —
// after the kernel fails a flush the page-cache state is unknowable, so
// the log is poisoned and every waiter and later append gets the same
// typed *PoisonedError (errors.Is(err, ErrPoisoned); see Poisoned).
func (l *FileLog) commitLocked(seq uint64) error {
	if l.opts.NoSync {
		return nil
	}
	for l.syncedSeq < seq {
		if l.syncErr != nil {
			return l.syncErr
		}
		if l.syncing {
			l.synced.Wait()
			continue
		}
		// Leader: flush on behalf of every write issued so far. Yield once
		// before capturing the target so appenders already racing toward
		// the log land inside this flush instead of forcing the next one;
		// writes issued after the capture wait for the next leader, since
		// an fsync only guarantees data written before it started.
		l.syncing = true
		l.mu.Unlock()
		runtime.Gosched()
		l.mu.Lock()
		target := l.writeSeq
		f := l.f
		l.mu.Unlock()
		start := time.Now()
		err := f.Sync()
		d := time.Since(start)
		l.mu.Lock()
		l.syncing = false
		if err != nil {
			l.syncErr = &PoisonedError{Cause: err}
		} else {
			if target > l.syncedSeq {
				l.syncedSeq = target
			}
			l.stats.Syncs++
			l.stats.SyncNanos += int64(d)
			l.updateSyncEWMALocked(d)
		}
		l.synced.Broadcast()
	}
	return nil
}

// maybeCompactLocked rewrites the log when it holds mostly dead records.
func (l *FileLog) maybeCompactLocked() error {
	if l.fileBytes < compactFloor {
		return nil
	}
	if l.fileBytes < int64(l.opts.compactFactor())*(l.liveBytes+1) {
		return nil
	}
	return l.compactLocked()
}

func (l *FileLog) compactLocked() error {
	// Compaction swaps l.f; wait out any fsync in flight on the old file
	// (the leader holds only a file reference, not the lock).
	for l.syncing {
		l.synced.Wait()
	}
	tmpPath := l.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return fmt.Errorf("stable: compact: %w", err)
	}
	defer os.Remove(tmpPath) // no-op after successful rename

	// Write live records in id order to the fresh file.
	ids := l.liveIDsLocked()
	var newBytes int64
	for _, id := range ids {
		rec := l.live[id]
		b := make([]byte, 0, len(rec.payload)+16)
		b = append(b, kindAppend)
		b = binary.AppendUvarint(b, id)
		b = append(b, 0) // compaction stores uncompressed; simple and safe
		b = binary.AppendUvarint(b, uint64(len(rec.payload)))
		b = append(b, rec.payload...)
		crc := crc32.Checksum(b, crcTable)
		b = binary.LittleEndian.AppendUint32(b, crc)
		if _, err := tmp.Write(b); err != nil {
			tmp.Close()
			return fmt.Errorf("stable: compact write: %w", err)
		}
		newBytes += int64(len(b))
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("stable: compact sync: %w", err)
	}
	if err := os.Rename(tmpPath, l.path); err != nil {
		tmp.Close()
		return fmt.Errorf("stable: compact rename: %w", err)
	}
	old := l.f
	l.f = tmp
	old.Close()
	if _, err := l.f.Seek(newBytes, io.SeekStart); err != nil {
		return err
	}
	l.fileBytes = newBytes
	l.order = ids
	l.stats.Compactions++
	// The compacted file was fully synced before the rename, so everything
	// written so far is durable; release any group-commit waiters.
	l.syncedSeq = l.writeSeq
	l.synced.Broadcast()
	return nil
}

func (l *FileLog) liveIDsLocked() []uint64 {
	ids := make([]uint64, 0, len(l.live))
	for id := range l.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Replay implements Log.
func (l *FileLog) Replay(fn func(id uint64, rec []byte) error) error {
	l.mu.Lock()
	ids := l.liveIDsLocked()
	recs := make([][]byte, len(ids))
	for i, id := range ids {
		recs[i] = l.live[id].payload
	}
	l.mu.Unlock()
	for i, id := range ids {
		if err := fn(id, recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Poisoned reports the sticky *PoisonedError set by the first failed
// group-commit fsync, or nil while the log is healthy. Once non-nil, every
// Append and Remove returns the same error.
func (l *FileLog) Poisoned() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncErr
}

// TornTail reports the torn trailing record recovery truncated at open, as
// a *TornTailError (errors.Is(err, ErrTornTail) is true), or nil if the
// file ended cleanly. Callers that care about the lost in-flight append —
// the QRPC client re-enqueues on the error it saw at Append time, so
// normally none do — can log or alert on it.
func (l *FileLog) TornTail() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.torn == nil {
		return nil
	}
	return l.torn
}

// Len implements Log.
func (l *FileLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.live)
}

// updateSyncEWMALocked folds one measured fsync duration into the rolling
// estimate Cost reports: first sample seeds it, later samples blend 1/8 new
// against 7/8 history so a single slow flush (compaction landing, disk
// hiccup) moves the estimate without whipsawing it.
func (l *FileLog) updateSyncEWMALocked(d time.Duration) {
	if l.syncEWMA == 0 {
		l.syncEWMA = d
		return
	}
	l.syncEWMA = (l.syncEWMA*7 + d) / 8
}

// Cost implements Log: a FileLog pays its flush cost in wall time inside
// Append, but reports a rolling estimate of that cost — an EWMA over its
// own group-commit fsync durations — so schedulers and stats lines can see
// what a flush actually costs on this disk. Zero until the first fsync
// completes (and always zero under NoSync).
func (l *FileLog) Cost() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncEWMA
}

// Stats implements Log.
func (l *FileLog) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Close implements Log. Group commit leaves no unsynced tail — every
// Append returns durable — so Close only needs to wait out an fsync still
// in flight before closing the file (a final safety sync covers the NoSync
// = false, sync-error edge where writes landed but were never flushed).
func (l *FileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	for l.syncing {
		l.synced.Wait()
	}
	var err error
	if l.syncedSeq < l.writeSeq && !l.opts.NoSync && l.syncErr == nil {
		start := time.Now()
		err = l.f.Sync()
		if err == nil {
			l.syncedSeq = l.writeSeq
			l.stats.Syncs++
			l.stats.SyncNanos += int64(time.Since(start))
		} else {
			l.syncErr = &PoisonedError{Cause: err}
		}
	}
	l.synced.Broadcast()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
