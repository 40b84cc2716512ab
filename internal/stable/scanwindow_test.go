package stable

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// recordOfSize returns an append record whose whole on-disk extent is n
// bytes.
func recordOfSize(t *testing.T, id uint64, n int) []byte {
	t.Helper()
	for l := n - 8; l > 0 && l > n-20; l-- {
		if rec := appendRecord(nil, kindAppend, id, bytes.Repeat([]byte{byte(id)}, l), false); len(rec) == n {
			return rec
		}
	}
	t.Fatalf("no record of %d bytes", n)
	return nil
}

// segmentFixture is a file image plus the payload at each record offset.
type segmentFixture struct {
	data []byte
	want map[int64][]byte
	offs []int64
}

func (f *segmentFixture) add(rec []byte) {
	r, n, err := parseRecord(rec)
	if err != nil || n != len(rec) {
		panic(fmt.Sprintf("fixture record: %v", err))
	}
	f.want[int64(len(f.data))] = r.payload
	f.offs = append(f.offs, int64(len(f.data)))
	f.data = append(f.data, rec...)
}

// scanFrom opens path with the recovery scan starting at start and returns
// a copy of every payload it was handed, after checking that ReadRangeFunc
// over the same range hands over the very same records.
func scanFrom(t *testing.T, path string, start int64) (*SegmentFile, map[int64][]byte) {
	t.Helper()
	got := map[int64][]byte{}
	s, err := OpenSegmentFile(path, Options{}, start, func(off int64, rec []byte) error {
		got[off] = append([]byte(nil), rec...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checkScanned(t, readRange(t, s, start, s.Size()), got, start)
	return s, got
}

// readRange returns a copy of every payload ReadRangeFunc hands over for
// [start, end), nil for a record whose checksum failed.
func readRange(t *testing.T, s *SegmentFile, start, end int64) map[int64][]byte {
	t.Helper()
	got := map[int64][]byte{}
	if err := s.ReadRangeFunc(start, end, func(off int64, p []byte) error {
		if p != nil {
			p = append([]byte{}, p...)
		}
		got[off] = p
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func checkScanned(t *testing.T, got map[int64][]byte, want map[int64][]byte, start int64) {
	t.Helper()
	n := 0
	for off, p := range want {
		if off < start {
			continue
		}
		n++
		if !bytes.Equal(got[off], p) {
			t.Fatalf("record at %d: scanned %d bytes, want %d", off, len(got[off]), len(p))
		}
	}
	if len(got) != n {
		t.Fatalf("scan saw %d records, want %d", len(got), n)
	}
}

// TestScanWindowRecordLargerThanWindow: a record of 3 × scanChunk + 1 bytes
// fills the window more than once, so the window must grow to hold it —
// whether small records follow it or it ends the file.
func TestScanWindowRecordLargerThanWindow(t *testing.T) {
	for _, last := range []bool{false, true} {
		f := &segmentFixture{want: map[int64][]byte{}}
		for i := uint64(1); i <= 200; i++ {
			f.add(appendRecord(nil, kindAppend, i, []byte(fmt.Sprintf("small-%d", i)), false))
		}
		f.add(recordOfSize(t, 201, 3*scanChunk+1))
		if !last {
			for i := uint64(202); i <= 400; i++ {
				f.add(appendRecord(nil, kindAppend, i, []byte(fmt.Sprintf("small-%d", i)), false))
			}
		}
		path := filepath.Join(t.TempDir(), "seg")
		if err := os.WriteFile(path, f.data, 0o600); err != nil {
			t.Fatal(err)
		}
		for _, start := range []int64{0, f.offs[1]} {
			s, got := scanFrom(t, path, start)
			checkScanned(t, got, f.want, start)
			if s.TornTail() != nil || s.Size() != int64(len(f.data)) {
				t.Fatalf("last=%v start=%d: torn %v, size %d of %d", last, start, s.TornTail(), s.Size(), len(f.data))
			}
			s.Close()
		}
	}
}

// TestScanWindowTornRecordStraddlingRefill: a torn final record that starts
// in one window and is cut off after a refill is truncated away, whether it
// is cut within the next window's worth of bytes or after the window had to
// grow for it.
func TestScanWindowTornRecordStraddlingRefill(t *testing.T) {
	for _, tornSize := range []int{1000, 3*scanChunk + 1} {
		f := &segmentFixture{want: map[int64][]byte{}}
		f.add(appendRecord(nil, kindAppend, 1, []byte("first"), false))
		f.add(recordOfSize(t, 2, scanChunk-100-len(f.data)))
		tornAt := int64(len(f.data))
		if tornAt != scanChunk-100 {
			t.Fatalf("torn record starts at %d, want %d", tornAt, scanChunk-100)
		}
		torn := recordOfSize(t, 3, tornSize)
		data := append(f.data, torn[:len(torn)-400]...)
		for _, start := range []int64{0, f.offs[1]} {
			path := filepath.Join(t.TempDir(), "seg")
			if err := os.WriteFile(path, data, 0o600); err != nil {
				t.Fatal(err)
			}
			s, got := scanFrom(t, path, start)
			checkScanned(t, got, f.want, start)
			var tt *TornTailError
			if err := s.TornTail(); !errors.As(err, &tt) || tt.Offset != tornAt {
				t.Fatalf("torn record of %d bytes, start %d: TornTail = %v, want offset %d", tornSize, start, err, tornAt)
			}
			if s.Size() != tornAt {
				t.Fatalf("size %d after truncation, want %d", s.Size(), tornAt)
			}
			s.Close()
		}
	}
}

// TestScanWindowCompressedPayloadsOutliveScan: a compressed record's payload
// is inflated into fresh memory rather than the window, so a caller may keep
// it (FileLog does, copying only uncompressed payloads), across refills and
// a window that grew for a record wider than it.
func TestScanWindowCompressedPayloadsOutliveScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	s, _ := openSeg(t, path, Options{Compress: true})
	want := map[int64][]byte{}
	for i := 0; i < 64; i++ {
		p := bytes.Repeat([]byte(fmt.Sprintf("compressible %d ", i)), 2000)
		if i%16 == 5 {
			// Incompressible and wider than the window: stored as is.
			p = make([]byte, scanChunk+500)
			rand.New(rand.NewSource(int64(i))).Read(p)
		}
		off, err := s.AppendNoSync(p)
		if err != nil {
			t.Fatal(err)
		}
		want[off] = p
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	kept := map[int64][]byte{}
	inflated := 0
	s2, err := openSegment(path, Options{Compress: true}, 0, func(off int64, r record) error {
		if r.inflated {
			kept[off] = r.payload // no copy
			inflated++
		} else {
			kept[off] = append([]byte(nil), r.payload...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if inflated == 0 || inflated == len(want) {
		t.Fatalf("%d of %d payloads inflated; the fixture needs both kinds", inflated, len(want))
	}
	checkScanned(t, kept, want, 0)
	checkScanned(t, readRange(t, s2, 0, s2.Size()), want, 0)
}

// TestScanWindowAllocs: the recovery scan, and ReadRangeFunc, read a segment
// of many windows through one window buffer instead of allocating a chunk per
// refill.
func TestScanWindowAllocs(t *testing.T) {
	f := &segmentFixture{want: map[int64][]byte{}}
	for i := uint64(1); len(f.data) < 8*scanChunk; i++ {
		f.add(appendRecord(nil, kindAppend, i, bytes.Repeat([]byte{'r'}, 100), false))
	}
	path := filepath.Join(t.TempDir(), "seg")
	if err := os.WriteFile(path, f.data, 0o600); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := OpenSegmentFile(path, Options{}, 0, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 2*scanChunk {
		t.Fatalf("scanning %d bytes allocated %d bytes, want at most one %d-byte window and change",
			len(f.data), spent, scanChunk)
	}
	runtime.ReadMemStats(&before)
	err = s.ReadRangeFunc(0, s.Size(), func(int64, []byte) error { return nil })
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 2*scanChunk {
		t.Fatalf("reading %d bytes allocated %d bytes, want at most one %d-byte window and change",
			len(f.data), spent, scanChunk)
	}
}

// TestScanWindowBadRecords holds both entry points to their policies over a
// bad record. Mid-range, a record whose checksum fails reaches ReadRangeFunc
// with a nil payload and the records around it intact, and fails an open. A
// range that ends inside a record fails ReadRangeFunc. A bad record that ends
// the file, cut short or with a bad checksum, is a torn tail to an open.
func TestScanWindowBadRecords(t *testing.T) {
	f := &segmentFixture{want: map[int64][]byte{}}
	for i := uint64(1); i <= 5; i++ {
		f.add(appendRecord(nil, kindAppend, i, bytes.Repeat([]byte{byte(i)}, 300), false))
	}
	path := filepath.Join(t.TempDir(), "seg")
	write := func(data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	flipped := func(i int) []byte { // record i with its payload's first byte changed
		data := append([]byte(nil), f.data...)
		data[f.offs[i]+5] ^= 0x40
		return data
	}

	write(f.data)
	s, _ := scanFrom(t, path, 0)
	if err := s.ReadRangeFunc(0, f.offs[2]+3, func(int64, []byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("range ending inside a record: %v, want ErrCorrupt", err)
	}
	write(flipped(2)) // the same size under the open segment
	want := map[int64][]byte{}
	for off, p := range f.want {
		want[off] = p
	}
	want[f.offs[2]] = nil
	if got := readRange(t, s, 0, s.Size()); !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadRangeFunc over a bad checksum handed over %d records, want %d with record 2 nil", len(got), len(want))
	}
	s.Close()
	if _, err := OpenSegmentFile(path, Options{}, 0, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over an interior bad checksum: %v, want ErrCorrupt", err)
	}

	last := f.offs[4]
	for name, data := range map[string][]byte{"cut": f.data[:len(f.data)-3], "crc": flipped(4)} {
		write(data)
		s, got := scanFrom(t, path, 0)
		var tt *TornTailError
		if err := s.TornTail(); !errors.As(err, &tt) || tt.Offset != last || s.Size() != last || len(got) != 4 {
			t.Fatalf("%s tail: TornTail %v, size %d, %d records; want offset and size %d, 4 records", name, err, s.Size(), len(got), last)
		}
		s.Close()
		if fi, err := os.Stat(path); err != nil || fi.Size() != last {
			t.Fatalf("%s tail: file not truncated to %d: %v", name, last, err)
		}
	}
}

// FuzzScanRange holds the two policies over the one scan loop to each other:
// for any image that opens, ReadRangeFunc over the whole file hands over
// exactly the records, offsets and payloads, the open scan handed over.
func FuzzScanRange(f *testing.F) {
	var image []byte
	for _, g := range goldenRecords {
		rec, _ := hex.DecodeString(g.hex)
		image = append(image, rec...)
		f.Add(image)
	}
	f.Add(append(append([]byte(nil), image...), image[:7]...)) // a torn tail
	f.Add(appendRecord(nil, kindAppend, 1, bytes.Repeat([]byte("deflate me "), 40), true))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "seg")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		var scanned []scannedPayload
		s, err := OpenSegmentFile(path, Options{}, 0, func(off int64, p []byte) error {
			scanned = append(scanned, scannedPayload{off, append([]byte{}, p...)})
			return nil
		})
		if err != nil {
			return
		}
		defer s.Close()
		var ranged []scannedPayload
		if err := s.ReadRangeFunc(0, s.Size(), func(off int64, p []byte) error {
			ranged = append(ranged, scannedPayload{off, append([]byte{}, p...)})
			return nil
		}); err != nil {
			t.Fatalf("ReadRangeFunc over an image that opened: %v", err)
		}
		if !reflect.DeepEqual(ranged, scanned) {
			t.Fatalf("ReadRangeFunc handed over %v, the open scan %v", ranged, scanned)
		}
	})
}

type scannedPayload struct {
	off int64
	p   []byte
}
