package disk

import (
	"bytes"
	"crypto/rand"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"rover/internal/stable"
	"rover/internal/store"
	"rover/internal/urn"
	"rover/internal/wire"
)

// FooterName is the sidecar file beside store.seg recording where the
// segment's index footer starts. It is a pure accelerator: deleting it (or
// finding it stale) costs the next Open a full streaming scan, never
// correctness — the generation token ties it to the exact segment rewrite
// it describes, so a sidecar can never be trusted against the wrong file.
const FooterName = "store.fidx"

const sidecarMagic = "rover-fidx-v1"

// footerInfo locates one footer run: the random generation shared by the
// sidecar and every chunk, the offset of the first chunk, and the number of
// chunks.
type footerInfo struct {
	gen   []byte
	off   int64
	parts uint64
}

func (s *Store) sidecarPath() string { return filepath.Join(s.opts.Dir, FooterName) }

func encodeSidecar(f footerInfo) []byte {
	var b wire.Buffer
	b.PutString(sidecarMagic)
	b.PutBytes(f.gen)
	b.PutUvarint(uint64(f.off))
	b.PutUvarint(f.parts)
	return b.Bytes()
}

func decodeSidecar(p []byte) (footerInfo, error) {
	r := wire.NewReader(p)
	if r.String() != sidecarMagic {
		return footerInfo{}, errors.New("disk: bad footer sidecar magic")
	}
	var f footerInfo
	f.gen = r.Bytes()
	f.off = int64(r.Uvarint())
	f.parts = r.Uvarint()
	if err := r.Err(); err != nil || len(f.gen) != footerGenLen || !r.Done() {
		return footerInfo{}, errors.New("disk: bad footer sidecar")
	}
	return f, nil
}

// writeSidecar persists f write-temp-then-rename and reports success. On
// failure both the temp and the sidecar are removed, so the next Open falls
// back to a scan instead of trusting a half-written pointer.
func (s *Store) writeSidecar(f footerInfo) bool {
	path := s.sidecarPath()
	tmp := path + ".tmp"
	err := func() error {
		fh, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
		if err != nil {
			return err
		}
		if _, err = fh.Write(encodeSidecar(f)); err == nil {
			err = fh.Sync()
		}
		if cerr := fh.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		return os.Rename(tmp, path)
	}()
	if err != nil {
		os.Remove(tmp)
		os.Remove(path)
		return false
	}
	return true
}

// appendFooter writes idx as a run of 'X' chunks at seg's current end and
// returns where the run starts. Durability is the caller's: compaction
// commits the whole tmp segment after, Close rides the final safety sync.
func appendFooter(seg *stable.SegmentFile, idx map[urn.URN]idxEnt) (footerInfo, error) {
	gen := make([]byte, footerGenLen)
	if _, err := rand.Read(gen); err != nil {
		return footerInfo{}, err
	}
	f := footerInfo{gen: gen, off: seg.Size()}
	ents := make([]footerEnt, 0, footerChunkEnts)
	flush := func() error {
		if len(ents) == 0 {
			return nil
		}
		off, err := seg.AppendNoSync(encodeFooterChunk(gen, f.parts, ents))
		if err != nil {
			return err
		}
		if f.parts == 0 {
			f.off = off
		}
		f.parts++
		ents = ents[:0]
		return nil
	}
	for u, ent := range idx {
		ents = append(ents, footerEnt{u: u, ent: ent})
		if len(ents) >= footerChunkEnts {
			if err := flush(); err != nil {
				return footerInfo{}, err
			}
		}
	}
	if err := flush(); err != nil {
		return footerInfo{}, err
	}
	return f, nil
}

// scannedRec is one raw record captured by the footer-open's tail scan.
type scannedRec struct {
	off int64
	end int // where rec ends in the buffer every captured record shares
	rec []byte
}

// openFromFooter attempts footer-based recovery: read the sidecar, scan the
// segment only from the footer offset, rebuild the index from the footer
// chunks (decoded in parallel), reconstruct history windows with a pread
// worker pool, and replay the post-footer tail. It reports success; any
// validation or I/O surprise abandons the attempt — closing the segment and
// resetting partial state — and the caller falls back to the full scan.
func (s *Store) openFromFooter() bool {
	raw, err := os.ReadFile(s.sidecarPath())
	if err != nil {
		return false
	}
	f, err := decodeSidecar(raw)
	if err != nil {
		return false
	}
	// The scan's payloads are only valid during its callback: copy them back
	// to back into one buffer, sized for the uncompressed case, and slice it
	// once the scan is done.
	var (
		tail []scannedRec
		buf  []byte
	)
	if fi, err := os.Stat(s.path); err == nil && fi.Size() > f.off {
		buf = make([]byte, 0, fi.Size()-f.off)
	}
	seg, err := stable.OpenSegmentFileAt(s.path, stable.Options{}, f.off,
		func(off int64, rec []byte) error {
			buf = append(buf, rec...)
			tail = append(tail, scannedRec{off: off, end: len(buf)})
			return nil
		})
	if err != nil {
		return false
	}
	for i, start := 0, 0; i < len(tail); i++ {
		tail[i].rec = buf[start:tail[i].end:tail[i].end]
		start = tail[i].end
	}
	if s.buildFromFooter(seg, f, tail) {
		return true
	}
	seg.Close()
	s.seg = nil
	s.idx = make(map[urn.URN]idxEnt)
	s.hist = store.NewHistory()
	s.liveBytes = 0
	s.segFooterBytes = 0
	return false
}

// buildFromFooter rebuilds resident state from one footer run plus the tail
// records that follow it. Called only from openFromFooter, before the store
// is shared — the parallel phases below touch s only through the segment
// (whose ReadAt is thread-safe) and write results back single-threaded.
func (s *Store) buildFromFooter(seg *stable.SegmentFile, f footerInfo, tail []scannedRec) bool {
	if uint64(len(tail)) < f.parts {
		return false
	}
	chunks := tail[:f.parts]
	rest := tail[f.parts:]
	for _, c := range chunks {
		if len(c.rec) == 0 || c.rec[0] != recFooter {
			return false
		}
	}
	// Phase 1: decode the footer chunks in parallel; each must carry the
	// sidecar's generation and its position in the run.
	decoded := make([][]footerEnt, len(chunks))
	var bad atomic.Bool
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range chunks {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, p []byte) {
			defer wg.Done()
			defer func() { <-sem }()
			gen, part, ents, err := decodeFooterChunk(p, newNames())
			if err != nil || part != uint64(i) || !bytes.Equal(gen, f.gen) {
				bad.Store(true)
				return
			}
			decoded[i] = ents
		}(i, chunks[i].rec)
	}
	wg.Wait()
	if bad.Load() {
		return false
	}
	for i, c := range chunks {
		s.segFooterBytes += segExtent(chunks, rest, i, c, seg)
	}
	total := 0
	for _, ents := range decoded {
		total += len(ents)
	}
	s.idx = make(map[urn.URN]idxEnt, total)
	for _, ents := range decoded {
		for i := range ents {
			e := &ents[i]
			if e.ent.off < 0 || e.ent.off >= f.off {
				return false // live entries always precede their footer
			}
			s.idx[e.u] = e.ent
		}
	}
	if len(s.idx) != total {
		return false // a URN listed twice: not an index this store wrote
	}
	s.seg = seg
	// Phase 2: history windows. 'Z' entries restore their persisted window,
	// 'O' entries walk the record chain backwards — both pread, so fan out
	// across a worker pool and apply the windows single-threaded (History is
	// not safe for concurrent use).
	var histWork []footerEnt
	for _, ents := range decoded {
		for _, e := range ents {
			if e.ent.kind == recSnap || e.ent.kind == recOps {
				histWork = append(histWork, e)
			}
		}
	}
	windows := make([][]store.OpsRec, len(histWork))
	for i := range histWork {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			w, err := rebuildWindow(seg, histWork[i])
			if err != nil {
				bad.Store(true)
				return
			}
			windows[i] = w
		}(i)
	}
	wg.Wait()
	if bad.Load() {
		return false
	}
	for i, w := range windows {
		s.hist.Restore(histWork[i].u, w)
	}
	// Phase 3: replay the post-footer tail in order. 'X' records here are a
	// later footer run whose sidecar write never landed — dead weight.
	tailMuts := 0
	nm := newNames()
	for _, t := range rest {
		if len(t.rec) > 0 && t.rec[0] == recFooter {
			s.segFooterBytes += int64(len(t.rec)) + 16
			continue
		}
		if err := s.applyScan(t.off, t.rec, nm); err != nil {
			return false
		}
		tailMuts++
	}
	s.sumLiveBytes()
	s.recoveredByFooter = true
	s.cleanFooter = len(rest) == 0 && seg.TornTail() == nil
	s.mutsSinceCompact = tailMuts
	if seg.Size() >= 2*(s.liveBytes+s.segFooterBytes+1) {
		// Inherit the segment's dead weight as compaction pressure, as the
		// full scan does by counting superseded records.
		s.mutsSinceCompact = s.opts.CompactEvery
	}
	return true
}

// segExtent approximates chunk i's on-disk extent from neighbor offsets.
func segExtent(chunks, rest []scannedRec, i int, c scannedRec, seg *stable.SegmentFile) int64 {
	var next int64
	switch {
	case i+1 < len(chunks):
		next = chunks[i+1].off
	case len(rest) > 0:
		next = rest[0].off
	default:
		next = seg.Size()
	}
	return next - c.off
}

// rebuildWindow reconstructs the history window the streaming scan would
// have produced for one object: a 'Z' record's persisted window, or an 'O'
// chain walked backwards via prevOff until an opaque jump ('S'), a 'Z'
// ancestor (whose persisted window is prepended), a record without a chain
// link, or the window limit. An I/O or decode error is fatal to the footer
// fast path; a merely broken chain just yields the shorter (still accurate)
// window.
func rebuildWindow(seg *stable.SegmentFile, e footerEnt) ([]store.OpsRec, error) {
	if e.ent.kind == recSnap {
		rec, err := readRecordAt(seg, e.ent.off)
		if err != nil {
			return nil, err
		}
		if rec.kind != recSnap || rec.urn != e.u || rec.ver != e.ent.ver {
			return nil, errors.New("disk: footer entry does not match its record")
		}
		return rec.hist, nil
	}
	var newest []store.OpsRec // newest-first along the chain
	var prefix []store.OpsRec // a 'Z' ancestor's window, oldest-first
	off := e.ent.off
	wantVer := e.ent.ver
	for i := 0; i < store.DefaultHistoryLimit && off >= 0; i++ {
		rec, err := readRecordAt(seg, off)
		if err != nil {
			return nil, err
		}
		if rec.urn != e.u {
			break // foreign link: stop with what we have
		}
		if rec.kind == recSnap {
			prefix = rec.hist
			break
		}
		if rec.kind != recOps || (len(newest) > 0 && rec.ver != wantVer) {
			break // opaque jump ('S') or a gap: history starts after it
		}
		if len(newest) == 0 && rec.ver != e.ent.ver {
			return nil, errors.New("disk: footer entry does not match its record")
		}
		newest = append(newest, store.OpsRec{Ver: rec.ver, Invs: rec.invs, Src: rec.src})
		wantVer = rec.ver - 1
		off = rec.prevOff
	}
	out := make([]store.OpsRec, 0, len(prefix)+len(newest))
	out = append(out, prefix...)
	for i := len(newest) - 1; i >= 0; i-- {
		out = append(out, newest[i])
	}
	return out, nil
}

// readRecordAt preads and decodes one segment record, decoding in place on
// the segment's pooled read buffer (decodeRecord copies what it keeps).
func readRecordAt(seg *stable.SegmentFile, off int64) (record, error) {
	var rec record
	err := seg.ReadAtFunc(off, func(p []byte) error {
		var derr error
		rec, derr = decodeRecord(p, nil)
		return derr
	})
	return rec, err
}
