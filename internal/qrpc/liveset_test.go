package qrpc_test

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"rover/internal/qrpc"
	"rover/internal/stable"
	"rover/internal/transport"
	"rover/internal/vtime"
)

// TestLiveSetMatchesRecovery: a log keeps the record it is handed, and the
// request frame, the cached reply and their records are one allocation. If
// anything wrote such a record after appending it, the log's live set would
// stop matching its file. So a FileLog client and a 4-shard FileLog journal
// are driven through requests, lazy acks, journal compactions and requests
// left queued, and every live record read through Replay before the logs
// close must come back byte for byte when they reopen.
func TestLiveSetMatchesRecovery(t *testing.T) {
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "client.log")}
	for i := range 4 {
		paths = append(paths, filepath.Join(dir, fmt.Sprintf("journal.%d", i)))
	}
	logs := make([]stable.Log, len(paths))
	for i, p := range paths {
		l, err := stable.OpenFileLog(p, stable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = l
	}
	cli, err := qrpc.NewClient(qrpc.ClientConfig{ClientID: "live", Log: logs[0]})
	if err != nil {
		t.Fatal(err)
	}
	srv := qrpc.NewServer(qrpc.ServerConfig{ServerID: "live", Journals: logs[1:], JournalCompactEvery: 4})
	srv.Register("echo", func(_ string, req qrpc.Request) ([]byte, error) { return req.Args, nil })
	clock := vtime.NewRealClock()
	pipe := transport.NewPipe(cli, srv, clock)
	pipe.SetConnected(true)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	args := make([]byte, 48)
	for i := range 24 {
		args[0] = byte(i) // Enqueue copies args: reusing them is allowed
		p, err := cli.Enqueue("echo", args, qrpc.PriorityNormal, clock.Now())
		if err != nil {
			t.Fatal(err)
		}
		if got, err := p.Wait(ctx); err != nil || got[0] != byte(i) {
			t.Fatalf("echo %d: % x, %v", i, got, err)
		}
	}
	pipe.SetConnected(false)
	for i := range 3 { // left in the client log
		args[0] = byte(100 + i)
		if _, err := cli.Enqueue("echo", args, qrpc.PriorityNormal, clock.Now()); err != nil {
			t.Fatal(err)
		}
	}
	pipe.Close()
	cli.Close()
	if err := srv.Close(); err != nil { // waits out background compactions
		t.Fatal(err)
	}
	if n := srv.Stats().JournalCompactions; n == 0 {
		t.Fatal("no journal compaction ran")
	}

	liveSet := func(l stable.Log) map[uint64][]byte {
		recs := make(map[uint64][]byte)
		if err := l.Replay(func(id uint64, rec []byte) error {
			recs[id] = bytes.Clone(rec)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return recs
	}
	for i, p := range paths {
		before := liveSet(logs[i])
		if err := logs[i].Close(); err != nil {
			t.Fatal(err)
		}
		l, err := stable.OpenFileLog(p, stable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		after := liveSet(l)
		l.Close()
		if i == 0 && len(before) != 4 { // three requests and a sequence floor
			t.Errorf("client log holds %d live records, want 4", len(before))
		}
		if len(after) != len(before) {
			t.Errorf("%s: %d live records, %d after reopen", filepath.Base(p), len(before), len(after))
		}
		for id, rec := range before {
			if !bytes.Equal(after[id], rec) {
				t.Errorf("%s: record %d was % x in memory, % x on reopen", filepath.Base(p), id, rec, after[id])
			}
		}
	}
}
