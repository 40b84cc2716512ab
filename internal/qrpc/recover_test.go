package qrpc_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"rover/internal/qrpc"
	"rover/internal/stable"
	"rover/internal/wire"
)

// recoverSessions is how many client sessions the recovery benchmark and
// allocation pin journal, over as many shards.
const recoverSessions = 4

type discardSender struct{}

func (discardSender) SendFrame(wire.Frame) bool { return true }

// recoverConfig is a journaled server over shards whose recovery writes
// nothing: no shard is near its compaction threshold.
func recoverConfig(shards []stable.Log) qrpc.ServerConfig {
	return qrpc.ServerConfig{ServerID: "recover", Journals: shards, JournalCompactEvery: 1 << 30}
}

// fillJournal journals recoverSessions client sessions, each executing
// records echoes, into as many fresh MemLog shards. Each session
// acknowledges the first of every two seqs: one ack record per two exec
// records, and half the replies still cached when the server is abandoned.
func fillJournal(tb testing.TB, records int) []stable.Log {
	tb.Helper()
	shards := make([]stable.Log, recoverSessions)
	for i := range shards {
		shards[i] = stable.NewMemLog(stable.Options{})
	}
	srv := qrpc.NewServer(recoverConfig(shards))
	srv.Register("echo", func(_ string, req qrpc.Request) ([]byte, error) { return req.Args, nil })
	args := make([]byte, 32)
	for c := range recoverSessions {
		snd := discardSender{}
		srv.OnConnect(snd, 0)
		srv.OnFrame(snd, wire.Frame{Type: wire.FrameHello, Payload: wire.Marshal(&qrpc.Hello{ClientID: fmt.Sprintf("recover-c%d", c), LowSeq: 1})}, 0)
		for seq := uint64(1); seq <= uint64(records); seq++ {
			srv.OnFrame(snd, wire.Frame{Type: wire.FrameRequest, Payload: wire.Marshal(&qrpc.Request{Seq: seq, Service: "echo", Args: args})}, 0)
			if seq%2 == 0 {
				srv.OnFrame(snd, wire.Frame{Type: wire.FrameAck, Payload: wire.Marshal(&qrpc.Ack{Seqs: []uint64{seq - 1}})}, 0)
			}
		}
		srv.OnDisconnect(snd, 0)
	}
	if err := srv.JournalError(); err != nil {
		tb.Fatal(err)
	}
	srv.Close()
	checkRecovery(tb, shards, records)
	return shards
}

// checkRecovery checks that a server recovered from shards holds every
// session and the unacknowledged half of its replies.
func checkRecovery(tb testing.TB, shards []stable.Log, records int) {
	tb.Helper()
	srv := qrpc.NewServer(recoverConfig(shards))
	defer srv.Close()
	st := srv.Stats()
	if err := srv.JournalError(); err != nil || st.RecoveredSessions != recoverSessions || st.RecoveredReplies != int64(recoverSessions*records/2) {
		tb.Fatalf("recovered %d sessions and %d replies (%v), want %d and %d",
			st.RecoveredSessions, st.RecoveredReplies, err, recoverSessions, recoverSessions*records/2)
	}
}

// BenchmarkRecoverJournal times a restarted server's journal recovery:
// NewServer, then Close, over four FileLog shards reopened from disk that
// hold four sessions of the given number of exec records each, with one
// ack record per two. The shards are opened once; recovery reads them and
// writes nothing, so every iteration replays the same records.
func BenchmarkRecoverJournal(b *testing.B) {
	for _, records := range []int{256, 1024} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			dir := b.TempDir()
			shards := fillJournal(b, records)
			for i, mem := range shards {
				path := filepath.Join(dir, fmt.Sprintf("journal.%d", i))
				fl, err := stable.OpenFileLog(path, stable.Options{})
				if err != nil {
					b.Fatal(err)
				}
				err = mem.Replay(func(_ uint64, rec []byte) error {
					_, err := fl.AppendNoSync(rec)
					return err
				})
				if err == nil {
					err = fl.Commit()
				}
				if err == nil {
					err = fl.Close()
				}
				if err != nil {
					b.Fatal(err)
				}
				if fl, err = stable.OpenFileLog(path, stable.Options{}); err != nil {
					b.Fatal(err)
				}
				defer fl.Close()
				shards[i] = fl
			}
			checkRecovery(b, shards, records)
			cfg := recoverConfig(shards)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				qrpc.NewServer(cfg).Close()
			}
		})
	}
}

// TestRecoverJournalAllocs pins what journal recovery allocates over four
// MemLog shards: the sessions, their maps and the shards' replay order, and
// nothing per record. Every record is read in place, and a recovered reply
// is a view of its exec record, so four times the records costs only the
// maps' growth, well under twice as much.
func TestRecoverJournalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts, so allocation counts mean nothing")
	}
	counts := map[int]float64{}
	for _, tc := range []struct {
		records int
		want    float64
	}{{256, 189}, {1024, 233}} {
		cfg := recoverConfig(fillJournal(t, tc.records))
		n := testing.AllocsPerRun(20, func() { qrpc.NewServer(cfg).Close() })
		if n != tc.want {
			t.Errorf("recovering %d sessions of %d exec records allocates %v objects, want %v",
				recoverSessions, tc.records, n, tc.want)
		}
		counts[tc.records] = n
	}
	if counts[1024] >= 2*counts[256] {
		t.Errorf("recovery allocates %v objects for 1024 records a session against %v for 256: it allocates per record",
			counts[1024], counts[256])
	}
}
