package qrpc

import (
	"bytes"
	"runtime"
	"testing"

	"rover/internal/wire"
)

// FuzzJournalRecord: recovery applies every record a journal shard holds,
// and a shard's file may be torn or damaged on disk. applyJournalRecord
// never panics on bytes it did not write, and never allocates out of
// proportion to the record whatever a count in it claims. It reads the
// record in place and never writes it, and every reply it caches is a view
// of the record capped at the reply's own end, so appending to one cannot
// reach the bytes behind it.
func FuzzJournalRecord(f *testing.F) {
	reply := wire.Marshal(&Reply{Seq: 7, Status: StatusOK, Result: []byte("done")})
	sess := newSession("c1")
	sess.lowSeq, sess.maxExec = 3, 7
	sess.replies[7] = reply
	sess.acked[5] = true
	sessions := map[string]*session{"c1": sess, "c2": newSession("c2")}
	f.Add(encodeExecRecordEnc("c1", reply))
	f.Add(encodeAckRecord("c1", []uint64{4, 5, 7}))
	f.Add(encodePruneRecord("c1", 6))
	f.Add(encodeSnapshotRecord(sessions))
	f.Add(encodeMigrateRecord(sessions))
	// Counts the record cannot back: sessions in a snapshot, replies in a
	// session, acknowledged seqs in an ack record.
	var snap, migrate wire.Buffer
	snap.PutByte(jrecSnapshot)
	snap.PutUvarint(1 << 40)
	f.Add(snap.Bytes())
	migrate.PutByte(jrecMigrate)
	migrate.PutUvarint(1)
	migrate.PutString("c1")
	migrate.PutUvarint(0) // lowSeq
	migrate.PutUvarint(0) // maxExec
	migrate.PutUvarint(1 << 40)
	f.Add(migrate.Bytes())
	f.Add([]byte{jrecAck, 2, 'c', '1', 0xff, 0xff, 0xff, 0xff, 0x0f})

	f.Fuzz(func(t *testing.T, rec []byte) {
		orig := bytes.Clone(rec)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sessions, _ := applyJournalRecord(map[string]*session{}, rec)
		runtime.ReadMemStats(&after)
		if spent := after.TotalAlloc - before.TotalAlloc; spent > 1<<20+256*uint64(len(rec)) {
			t.Fatalf("%d record bytes made recovery allocate %d bytes", len(rec), spent)
		}
		if !bytes.Equal(rec, orig) {
			t.Fatalf("recovery wrote the record: %x, was %x", rec, orig)
		}
		for id, sess := range sessions {
			for seq, enc := range sess.replies {
				if !viewOf(rec, enc) {
					t.Fatalf("session %q reply %d (%x, cap %d) is not a view of the record %x ending at its own end",
						id, seq, enc, cap(enc), rec)
				}
			}
		}
	})
}

// viewOf reports whether enc is a non-empty subslice of rec whose capacity
// ends where enc does.
func viewOf(rec, enc []byte) bool {
	if len(enc) == 0 || cap(enc) != len(enc) {
		return false
	}
	for start := 0; start+len(enc) <= len(rec); start++ {
		if &rec[start] == &enc[0] {
			return true
		}
	}
	return false
}
