package qrpc

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"rover/internal/stable"
	"rover/internal/wire"
)

// testdata/parent.journal is a session journal written by the commit before
// sessions held their replies' encodings, through the server engine and a
// stable.FileLog:
//
//   - "laptop" executes seqs 1-6 (echo, an app error, an unknown service)
//     and acks 1 and 3; "desktop" executes 1-2;
//   - a reopen over the compaction threshold snapshots both sessions and
//     removes the records before it;
//   - "laptop" acks 2, executes 7 and 9, acks 9 and says Hello with LowSeq
//     5 (a prune record); "desktop" executes 3 and acks 1; a replica peer's
//     reply for "phone" seq 2 is installed (InstallReply);
//   - "dave" runs in a journal of its own, which then joins this one as a
//     two-shard journal, so recovery reshards "dave" into this file with a
//     migrate record; "dave" then executes 3-4 and acks 2.
//
// testdata/parent.snapshot is the record that commit wrote when a server
// opened parent.journal alone and compacted it at once.

// parentJournalState is what the parent recovered from parent.journal, and
// parentReplies the reply frames it replayed for each cached seq.
var parentJournalState = map[string]struct {
	lowSeq, maxExec uint64
	acked           []uint64
}{
	"dave":    {3, 4, nil},
	"desktop": {2, 3, nil},
	"laptop":  {5, 9, []uint64{9}},
	"phone":   {0, 2, nil},
}

var parentReplies = map[string]map[uint64]string{
	"dave":    {3: "030002763300", 4: "0401000b726566757365643a207634"},
	"desktop": {2: "020002643200", 3: "030002643300"},
	"laptop":  {5: "0501000b726566757365643a206c35", 6: "060200066e6f73756368", 7: "0700026c3700"},
	"phone":   {2: "02000a7265706c69636174656400"},
}

// openParentJournal opens a writable copy of testdata/parent.journal as the
// only shard of a server with no handlers.
func openParentJournal(t *testing.T, compactEvery int) (*Server, *stable.FileLog, string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "parent.journal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "parent.journal")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	log, err := stable.OpenFileLog(path, stable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{log}, JournalCompactEvery: compactEvery})
	if err := srv.JournalError(); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	return srv, log, path
}

// TestParentWrittenJournal recovers the journal the parent commit wrote:
// the same sessions, each cached seq replayed as the parent's bytes, and a
// compaction right after recovery writes the parent's snapshot record.
func TestParentWrittenJournal(t *testing.T) {
	srv, log, _ := openParentJournal(t, 1<<20)
	if len(srv.sessions) != len(parentJournalState) {
		t.Fatalf("recovered %d sessions, want %d", len(srv.sessions), len(parentJournalState))
	}
	up := true
	for id, want := range parentJournalState {
		sess := srv.sessions[id]
		if sess == nil {
			t.Fatalf("session %q not recovered", id)
		}
		var acked []uint64
		for seq := range sess.acked {
			acked = append(acked, seq)
		}
		slices.Sort(acked)
		if sess.lowSeq != want.lowSeq || sess.maxExec != want.maxExec || !slices.Equal(acked, want.acked) {
			t.Errorf("%s: lowSeq=%d maxExec=%d acked=%v, want %d %d %v", id, sess.lowSeq, sess.maxExec, acked, want.lowSeq, want.maxExec, want.acked)
		}
		if len(sess.replies) != len(parentReplies[id]) {
			t.Errorf("%s: %d cached replies, want %d", id, len(sess.replies), len(parentReplies[id]))
		}
		snd := &harnessSender{up: &up}
		srv.OnConnect(snd, 0)
		srv.OnFrame(snd, helloFrame(id, 0), 0)
		for seq, frame := range parentReplies[id] {
			snd.queue = nil
			srv.OnFrame(snd, requestFrame(seq, "echo", nil), 0)
			if len(snd.queue) != 1 || hex.EncodeToString(snd.queue[0].Payload) != frame {
				t.Errorf("%s seq %d replayed %v, want the reply frame %s", id, seq, snd.queue, frame)
			}
		}
	}
	if st := srv.Stats(); st.Executed != 0 || st.ReplaysServed != 8 {
		t.Errorf("executed=%d replays=%d, want 0 and 8", st.Executed, st.ReplaysServed)
	}
	srv.Close()
	log.Close()

	// A shard recovered over the threshold is compacted at once.
	srv, log, path := openParentJournal(t, 1)
	srv.Close()
	log.Close()
	want, err := os.ReadFile(filepath.Join("testdata", "parent.snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	log, err = stable.OpenFileLog(path, stable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	var recs [][]byte
	if err := log.Replay(func(_ uint64, rec []byte) error {
		recs = append(recs, bytes.Clone(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !bytes.Equal(recs[0], want) {
		t.Fatalf("compacted journal holds %x, want the one snapshot record %x", recs, want)
	}
}

// TestJournalCountCannotOutgrowRecord: a snapshot record whose session count
// claims 2^20 sessions, in a few bytes, fails recovery without sizing a map
// for the claim.
func TestJournalCountCannotOutgrowRecord(t *testing.T) {
	var b wire.Buffer
	b.PutByte(jrecSnapshot)
	b.PutUvarint(wire.MaxSliceLen)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := applyJournalRecord(map[string]*session{}, b.Bytes())
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("a count with no sessions behind it decoded")
	}
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 1<<20 {
		t.Errorf("%d record bytes allocated %d bytes", b.Len(), spent)
	}
}
