package stable

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildLog writes records and returns the file's contents plus the offset
// at which each record begins.
func buildLog(t *testing.T, path string, recs ...string) (data []byte, offsets []int64) {
	t.Helper()
	l, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		st, _ := os.Stat(path)
		offsets = append(offsets, st.Size())
		if _, err := l.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, offsets
}

func replayAll(t *testing.T, l *FileLog) []string {
	t.Helper()
	var got []string
	l.Replay(func(_ uint64, rec []byte) error {
		got = append(got, string(rec))
		return nil
	})
	return got
}

func TestFileLogTornTailReportsTypedError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	data, offsets := buildLog(t, path, "one", "two", "three")

	// Tear the last record: keep only part of it.
	torn := data[:offsets[2]+3]
	if err := os.WriteFile(path, torn, 0o600); err != nil {
		t.Fatal(err)
	}
	l, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatalf("torn tail must recover, got %v", err)
	}
	defer l.Close()
	if got := replayAll(t, l); len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Fatalf("earlier records lost: recovered %v", got)
	}
	terr := l.TornTail()
	if terr == nil {
		t.Fatal("TornTail() = nil after truncating a torn record")
	}
	if !errors.Is(terr, ErrTornTail) {
		t.Errorf("TornTail() = %v; want errors.Is(_, ErrTornTail)", terr)
	}
	var tt *TornTailError
	if !errors.As(terr, &tt) {
		t.Fatalf("TornTail() = %T; want *TornTailError", terr)
	}
	if tt.Offset != offsets[2] {
		t.Errorf("torn offset = %d, want %d", tt.Offset, offsets[2])
	}
	// The truncated file must end exactly where the torn record began.
	if st, _ := os.Stat(path); st.Size() != offsets[2] {
		t.Errorf("file size after recovery = %d, want %d", st.Size(), offsets[2])
	}
}

func TestFileLogTornTailBadCRCOnFinalRecord(t *testing.T) {
	// A final record that parses structurally but fails its CRC is the
	// same crash signature (the tail bytes are garbage): truncate and go on.
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	data, offsets := buildLog(t, path, "alpha", "beta")

	mut := append([]byte(nil), data...)
	mut[len(mut)-6] ^= 0x40 // inside the final record's payload
	if err := os.WriteFile(path, mut, 0o600); err != nil {
		t.Fatal(err)
	}
	l, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatalf("CRC-bad final record must recover, got %v", err)
	}
	defer l.Close()
	if got := replayAll(t, l); len(got) != 1 || got[0] != "alpha" {
		t.Fatalf("recovered %v, want [alpha]", got)
	}
	var tt *TornTailError
	if err := l.TornTail(); !errors.As(err, &tt) || tt.Offset != offsets[1] {
		t.Errorf("TornTail() = %v, want offset %d", err, offsets[1])
	}
}

// TestTornTailEndingOnScanChunkBoundary: a checksum-failed final record that
// ends exactly where a recovery read chunk ends is still a torn tail — the
// scan has to look past the chunk to learn the file stops there.
func TestTornTailEndingOnScanChunkBoundary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	first := appendRecord(nil, kindAppend, 1, make([]byte, 200000), false)
	last := appendRecord(nil, kindAppend, 2, make([]byte, scanChunk-len(first)-10), false)
	if len(first)+len(last) != scanChunk {
		t.Fatalf("fixture is %d bytes, want %d", len(first)+len(last), scanChunk)
	}
	last[100] ^= 0x40
	if err := os.WriteFile(path, append(first, last...), 0o600); err != nil {
		t.Fatal(err)
	}
	s, got := openSeg(t, path, Options{})
	defer s.Close()
	var tt *TornTailError
	if err := s.TornTail(); !errors.As(err, &tt) || tt.Offset != int64(len(first)) || len(got) != 1 {
		t.Fatalf("TornTail = %v with %d records recovered, want offset %d and 1", err, len(got), len(first))
	}
}

func TestFileLogInteriorCorruptionDetected(t *testing.T) {
	// Corruption before the final record must fail the open with
	// ErrCorrupt: silently truncating there would discard good later
	// records and reorder the replayed request stream.
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	data, offsets := buildLog(t, path, "first", "second", "third")

	mut := append([]byte(nil), data...)
	mut[offsets[1]+int64(3)] ^= 0x01 // inside the middle record
	if err := os.WriteFile(path, mut, 0o600); err != nil {
		t.Fatal(err)
	}
	l, err := OpenFileLog(path, Options{})
	if err == nil {
		l.Close()
		t.Fatal("interior corruption silently accepted")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("open error = %v; want errors.Is(_, ErrCorrupt)", err)
	}
	// Detection must not destroy the file: the bytes are untouched for
	// out-of-band repair.
	after, _ := os.ReadFile(path)
	if len(after) != len(mut) {
		t.Errorf("file size changed from %d to %d on failed open", len(mut), len(after))
	}
}

func TestFileLogCleanOpenHasNoTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	buildLog(t, path, "only")
	l, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.TornTail(); err != nil {
		t.Errorf("TornTail() = %v on a clean file", err)
	}
}

// TestPoisonedErrorTyping pins the contract consumers (the QRPC server
// journal, chaos harnesses) rely on: a poisoned log reports a typed error
// that matches the ErrPoisoned sentinel via errors.Is and unwraps to the
// sync failure that caused it.
func TestPoisonedErrorTyping(t *testing.T) {
	cause := errors.New("fsync: input/output error")
	var err error = &PoisonedError{Cause: cause}
	if !errors.Is(err, ErrPoisoned) {
		t.Error("PoisonedError does not match ErrPoisoned sentinel")
	}
	if !errors.Is(err, cause) {
		t.Error("PoisonedError does not unwrap to its cause")
	}
	if !strings.Contains(err.Error(), "poisoned") || !strings.Contains(err.Error(), cause.Error()) {
		t.Errorf("Error() = %q", err.Error())
	}
	// A fresh sentinel comparison must not match arbitrary errors.
	if errors.Is(cause, ErrPoisoned) {
		t.Error("plain error matched ErrPoisoned")
	}
}

// TestFileLogHealthyNotPoisoned: the accessor reports nil until a sync
// actually fails.
func TestFileLogHealthyNotPoisoned(t *testing.T) {
	l, err := OpenFileLog(filepath.Join(t.TempDir(), "wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("r")); err != nil {
		t.Fatal(err)
	}
	if err := l.Poisoned(); err != nil {
		t.Fatalf("Poisoned = %v on a healthy log", err)
	}
}
