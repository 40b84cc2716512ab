package stable

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// long is the one payload in the golden data big and regular enough to be
// stored compressed.
var long = bytes.Repeat([]byte("rover "), 40)

// goldenRecords pins the record encoding: each input must keep encoding to
// exactly these bytes (produced by the pre-unification FileLog encoder), or
// logs written by earlier builds stop being readable and appendable.
var goldenRecords = []struct {
	kind     byte
	id       uint64
	payload  []byte
	compress bool
	hex      string
}{
	{kindAppend, 1, []byte("hello"), false, "4101000568656c6c6f566be355"},
	{kindAppend, 300, nil, false, "41ac0200009baebe0d"},
	{kindRemove, 7, nil, false, "520752143cc2"},
	{kindRemove, 1 << 40, nil, true, "52808080808020f06687fd"},
	{kindAppend, 2, long, false, "410200f001" + hex.EncodeToString(long) + "2e50712b"},
	{kindAppend, 2, long, true, "4102011be4c4210d00000002c12a9443b3bd203f4130476af4e3020000ffff330e3241"},
	{kindAppend, 3, []byte("short stays plain"), true, "4103001173686f727420737461797320706c61696e569eef0e"},
}

func TestGoldenRecordBytes(t *testing.T) {
	for _, g := range goldenRecords {
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendRecord(nil, g.kind, g.id, g.payload, g.compress); !bytes.Equal(got, want) {
			t.Errorf("encode(%q, %d, %d bytes, compress=%v) = %x, want %x", g.kind, g.id, len(g.payload), g.compress, got, want)
		}
		rec, n, err := parseRecord(append(want, "trailing"...))
		if err != nil || n != len(want) || rec.kind != g.kind || rec.id != g.id || !bytes.Equal(rec.payload, g.payload) {
			t.Errorf("parse(%x) = %+v, %d, %v", want, rec, n, err)
		}
	}
}

// A compressed record whose stored bytes run on past the end of the deflate
// stream is corrupt even though the checksum holds and the stream inflates:
// nothing this package writes ends that way.
func TestCompressedRecordTrailingBytes(t *testing.T) {
	whole := appendRecord(nil, kindAppend, 2, long, true)
	h, err := parseHeader(whole)
	if err != nil || h.flags&flagCompressed == 0 {
		t.Fatalf("setup: header %+v, %v", h, err)
	}
	stream := whole[h.body : h.body+h.stored]
	bad := append([]byte{kindAppend, 2, flagCompressed, byte(len(stream) + 8)}, stream...)
	bad = append(bad, "JUNKJUNK"...)
	bad = binary.LittleEndian.AppendUint32(bad, crc32.Checksum(bad, crcTable))
	if _, _, err := parseRecord(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("parseRecord(stream + junk) = %v, want ErrCorrupt", err)
	}
	if rec, n, err := parseRecord(whole); err != nil || n != len(whole) || !bytes.Equal(rec.payload, long) {
		t.Fatalf("parseRecord(stream) = %d, %v", n, err)
	}
}

// copyFixture copies a file the parent commit wrote (testdata/) somewhere
// writable and returns the copy's path and the original bytes.
func copyFixture(t *testing.T, name string) (string, []byte) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestParentWrittenLog reopens a log written by the commit before the engines
// were unified (appends 1-4 under Compress, then Remove(2)): same Replay, ids
// continue, and appending rewrites no byte before the old tail.
func TestParentWrittenLog(t *testing.T) {
	path, fixture := copyFixture(t, "parent.wal")
	l, err := OpenFileLog(path, Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		id   uint64
		body string
	}
	replay := func(l *FileLog) (out []rec) {
		l.Replay(func(id uint64, b []byte) error {
			out = append(out, rec{id, string(b)})
			return nil
		})
		return out
	}
	want := []rec{{1, "one"}, {3, string(long)}, {4, "four"}}
	if got := replay(l); len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("Replay = %v", got)
	}
	if l.TornTail() != nil {
		t.Errorf("TornTail = %v on a clean fixture", l.TornTail())
	}
	if id, err := l.Append([]byte("five")); err != nil || id != 5 {
		t.Fatalf("Append after reopen = %d, %v; want id 5", id, err)
	}
	if err := remove(l, 1); err != nil {
		t.Fatal(err)
	}
	l.Close()
	after, _ := os.ReadFile(path)
	tail := appendRecord(appendRecord(nil, kindAppend, 5, []byte("five"), true), kindRemove, 1, nil, true)
	if !bytes.Equal(after, append(append([]byte(nil), fixture...), tail...)) {
		t.Errorf("file after append+remove = %x, want the fixture followed by %x", after, tail)
	}
	l2, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := replay(l2); len(got) != 3 || got[0] != want[1] || got[2] != (rec{5, "five"}) {
		t.Errorf("Replay after append+remove = %v", got)
	}
}

// TestParentWrittenSegment: the same for a bare segment (three appends under
// Compress): the scan reports the offsets the parent handed out, ReadAt
// serves them, and the next append lands at the old end under the next id.
func TestParentWrittenSegment(t *testing.T) {
	path, fixture := copyFixture(t, "parent.seg")
	s, got := openSeg(t, path, Options{Compress: true})
	want := map[int64]string{0: "s-one", 13: string(long), 48: "s-three"}
	if len(got) != len(want) {
		t.Fatalf("scan saw %d records, want %d", len(got), len(want))
	}
	for off, body := range want {
		if string(got[off]) != body {
			t.Errorf("scan offset %d = %q, want %q", off, got[off], body)
		}
		if back, err := readAt(s, off); err != nil || string(back) != body {
			t.Errorf("ReadAt(%d) = %q, %v", off, back, err)
		}
	}
	if off, err := appendDurable(s, []byte("s-four")); err != nil || off != int64(len(fixture)) {
		t.Fatalf("Append after reopen = offset %d, %v; want %d", off, err, len(fixture))
	}
	s.Close()
	after, _ := os.ReadFile(path)
	tail := appendRecord(nil, kindAppend, 4, []byte("s-four"), true)
	if !bytes.Equal(after, append(append([]byte(nil), fixture...), tail...)) {
		t.Errorf("file after append = %x, want the fixture followed by %x", after, tail)
	}
}
