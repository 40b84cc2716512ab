package stable

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"testing"
)

// completeFrame extends a torn prefix to a whole, well-framed record: it
// terminates whatever varint the prefix stops in, supplies a missing flags
// byte, pads the stored bytes and appends a checksum. It returns nil for the
// one torn prefix with no completion: a length varint whose bits so far are
// already past MaxRecord (the parser bounds a length once it has all of it).
func completeFrame(t *testing.T, p []byte) []byte {
	ext := append([]byte(nil), p...)
	if len(ext) == 0 {
		ext = append(ext, kindRemove)
	}
	endVarint := func(from int) int {
		i := from
		for i < len(ext) && ext[i] >= 0x80 {
			i++
		}
		if i == len(ext) {
			ext = append(ext, 0x01)
		}
		return i + 1
	}
	off := endVarint(1)
	if ext[0] == kindAppend {
		if off == len(ext) {
			ext = append(ext, 0)
		}
		endVarint(off + 1)
		if v, _ := binary.Uvarint(ext[off+1:]); v > MaxRecord {
			return nil
		}
	}
	h, err := parseHeader(ext)
	if err != nil {
		t.Fatalf("parseHeader(%x), completed from torn %x: %v", ext, p, err)
	}
	for len(ext) < h.size()-4 {
		ext = append(ext, 0)
	}
	if len(ext) == h.size()-4 {
		return binary.LittleEndian.AppendUint32(ext, crc32.Checksum(ext, crcTable))
	}
	for len(ext) < h.size() { // the prefix already holds part of a checksum
		ext = append(ext, 0)
	}
	return ext
}

// FuzzParseRecord feeds the one record parser bytes it did not write — as
// they come, and again with the checksum patched so the fuzzer reaches past
// the CRC. It must never panic or claim more than it was given; errTorn must
// mean exactly "a proper prefix of a well-framed record"; and a parsed
// uncompressed record must re-encode to the very bytes consumed, so there is
// one byte string per record.
func FuzzParseRecord(f *testing.F) {
	for _, g := range goldenRecords {
		rec, _ := hex.DecodeString(g.hex)
		f.Add(rec)
		f.Add(rec[:len(rec)-3])                                // torn_test.go: tail cut mid-record
		f.Add(append(append([]byte(nil), rec...), rec[:4]...)) // whole record, then a torn one
		flip := append([]byte(nil), rec...)
		flip[len(flip)/2] ^= 0x40 // torn_test.go: CRC-bad record
		f.Add(flip)
	}
	f.Add([]byte{kindAppend, 0x80, 0x00, 0, 0, 0, 0, 0, 0})                            // padded varint
	f.Add([]byte{kindAppend, 1, 2, 0, 0, 0, 0, 0})                                     // unknown flag bit
	f.Add([]byte{kindRemove, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2}) // varint overflow
	f.Add([]byte{kindAppend, 1, 0, 0xff, 0xff, 0xff, 0x7f})                            // length past MaxRecord
	f.Add([]byte{'X', 1, 2, 3})

	check := func(t *testing.T, data []byte) {
		rec, n, err := parseRecord(data)
		if n < 0 || n > len(data) {
			t.Fatalf("parseRecord(%x) consumed %d of %d bytes", data, n, len(data))
		}
		switch {
		case err == errTorn:
			// The completion is a whole frame, so the verdict on it is about
			// its content: fine, a checksum the prefix had already begun
			// wrongly, or a deflate stream that does not inflate.
			ext := completeFrame(t, data)
			if ext == nil {
				return
			}
			h, _ := parseHeader(ext)
			_, n2, err2 := parseRecord(ext)
			whole := err2 == nil || err2 == errBadCRC || (h.flags&flagCompressed != 0 && errors.Is(err2, ErrCorrupt))
			if len(ext) <= len(data) || !whole || (n2 != 0 && n2 != len(ext)) {
				t.Fatalf("parseRecord(%x) = errTorn, but its completion %x parses to %d, %v", data, ext, n2, err2)
			}
		case err != nil:
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("parseRecord(%x) = %v, neither torn nor ErrCorrupt", data, err)
			}
		case !rec.inflated:
			if again := appendRecord(nil, rec.kind, rec.id, rec.payload, false); !bytes.Equal(again, data[:n]) {
				t.Fatalf("parseRecord(%x) = %+v, which re-encodes to %x", data[:n], rec, again)
			}
		default:
			if len(rec.payload) > MaxRecord {
				t.Fatalf("inflated to %d bytes", len(rec.payload))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		if h, err := parseHeader(data); err == nil && h.size() <= len(data) {
			fixed := append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(fixed[h.size()-4:], crc32.Checksum(fixed[:h.size()-4], crcTable))
			check(t, fixed)
		}
	})
}
