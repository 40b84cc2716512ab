package qrpc

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"rover/internal/stable"
)

// TestGrowJournalShardsOnlineExactlyOnce grows a live server's journal
// 1→2→4 shards between bursts of traffic, then restarts against the four
// shard files: every session and reply must recover, and redelivered
// requests replay from cache — growth never costs exactly-once.
func TestGrowJournalShardsOnlineExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	paths := make([]string, 4)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("journal.s%d", i))
	}
	openAt := func(i int) stable.Log {
		fl, err := stable.OpenFileLog(paths[i], stable.Options{})
		if err != nil {
			t.Fatalf("open shard %d: %v", i, err)
		}
		return fl
	}

	var mu sync.Mutex
	execs := map[string]map[uint64]int{}
	handler := func(clientID string, req Request) ([]byte, error) {
		mu.Lock()
		if execs[clientID] == nil {
			execs[clientID] = map[uint64]int{}
		}
		execs[clientID][req.Seq]++
		mu.Unlock()
		return append([]byte("r:"), req.Args...), nil
	}

	logs := []stable.Log{openAt(0)}
	srv1 := NewServer(ServerConfig{ServerID: "srv", Journals: logs})
	srv1.Register("echo", handler)
	// Clients chosen to cover all four FUTURE buckets.
	probe := NewServer(ServerConfig{ServerID: "probe", Journals: newShardLogs(4)})
	clients := clientsAcrossShards(t, probe, 4)
	probe.Close()

	up := true
	senders := make([]*harnessSender, len(clients))
	for i, id := range clients {
		senders[i] = &harnessSender{up: &up}
		srv1.OnConnect(senders[i], 0)
		srv1.OnFrame(senders[i], helloFrame(id, 1), 0)
		srv1.OnFrame(senders[i], requestFrame(1, "echo", []byte(id+"-a")), 0)
	}

	if err := srv1.GrowJournalShards([]stable.Log{openAt(1)}); err != nil {
		t.Fatalf("grow 1→2: %v", err)
	}
	if n := srv1.JournalShardCount(); n != 2 {
		t.Fatalf("shard count after first growth = %d, want 2", n)
	}
	for i, id := range clients {
		srv1.OnFrame(senders[i], requestFrame(2, "echo", []byte(id+"-b")), 0)
	}

	if err := srv1.GrowJournalShards([]stable.Log{openAt(2), openAt(3)}); err != nil {
		t.Fatalf("grow 2→4: %v", err)
	}
	if n := srv1.JournalShardCount(); n != 4 {
		t.Fatalf("shard count after second growth = %d, want 4", n)
	}
	for i, id := range clients {
		srv1.OnFrame(senders[i], requestFrame(3, "echo", []byte(id+"-c")), 0)
	}
	if got := srv1.Stats().JournalShardGrowths; got != 2 {
		t.Fatalf("JournalShardGrowths = %d, want 2", got)
	}
	if err := srv1.JournalError(); err != nil {
		t.Fatalf("journal poisoned by growth: %v", err)
	}
	srv1.Close()
	for _, l := range logs {
		l.Close()
	}

	// Restart against the grown shard set.
	logs = make([]stable.Log, 4)
	for i := range logs {
		logs[i] = openAt(i)
	}
	defer func() {
		for _, l := range logs {
			l.Close()
		}
	}()
	srv2 := NewServer(ServerConfig{ServerID: "srv", Journals: logs})
	srv2.Register("echo", handler)
	defer srv2.Close()
	if err := srv2.JournalError(); err != nil {
		t.Fatalf("recovery after online growth failed: %v", err)
	}
	st := srv2.Stats()
	if st.RecoveredSessions != 4 || st.RecoveredReplies != 12 {
		t.Fatalf("recovered sessions=%d replies=%d, want 4/12", st.RecoveredSessions, st.RecoveredReplies)
	}
	for i, id := range clients {
		snd := &harnessSender{up: &up}
		srv2.OnConnect(snd, 0)
		srv2.OnFrame(snd, helloFrame(id, 1), 0)
		snd.queue = nil
		for seq := uint64(1); seq <= 3; seq++ {
			srv2.OnFrame(snd, requestFrame(seq, "echo", []byte(id)), 0)
		}
		reps := drainReplies(t, snd)
		if len(reps) != 3 {
			t.Fatalf("client %d: redelivery got %d replies, want 3", i, len(reps))
		}
		suffix := map[uint64]string{1: "-a", 2: "-b", 3: "-c"}
		for _, rep := range reps {
			want := "r:" + id + suffix[rep.Seq]
			if rep.Status != StatusOK || string(rep.Result) != want {
				t.Errorf("client %d recovered reply %d = %q, want %q", i, rep.Seq, rep.Result, want)
			}
		}
		mu.Lock()
		for seq, c := range execs[id] {
			if c != 1 {
				t.Errorf("client %d seq %d executed %d times across growth+restart, want 1", i, seq, c)
			}
		}
		mu.Unlock()
	}
}

// TestGrowJournalShardsRejectsMisuse covers the guard rails: growing a
// journal-less server errors, and empty growth is a no-op.
func TestGrowJournalShardsRejectsMisuse(t *testing.T) {
	srv := NewServer(ServerConfig{ServerID: "srv"})
	defer srv.Close()
	if err := srv.GrowJournalShards(newShardLogs(1)); err == nil {
		t.Fatal("grew the journal of a journal-less server")
	}
	j := NewServer(ServerConfig{ServerID: "srv", Journals: newShardLogs(2)})
	defer j.Close()
	if err := j.GrowJournalShards(nil); err != nil {
		t.Fatalf("empty growth errored: %v", err)
	}
	if n := j.JournalShardCount(); n != 2 {
		t.Fatalf("empty growth changed the shard count to %d", n)
	}
}

// TestGrowJournalShardsUnderConcurrentTraffic races executes against two
// online growths (run under -race): no lost or duplicated execution, no
// journal poisoning, and every session's appends land in its current home.
func TestGrowJournalShardsUnderConcurrentTraffic(t *testing.T) {
	srv := NewServer(ServerConfig{ServerID: "srv", Journals: newShardLogs(1)})
	defer srv.Close()
	var mu sync.Mutex
	execs := map[string]int{}
	srv.Register("echo", func(clientID string, req Request) ([]byte, error) {
		mu.Lock()
		execs[clientID]++
		mu.Unlock()
		return req.Args, nil
	})

	const workers = 8
	const perWorker = 50
	up := true
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("traffic-%d", w)
			snd := &harnessSender{up: &up}
			srv.OnConnect(snd, 0)
			srv.OnFrame(snd, helloFrame(id, 1), 0)
			<-start
			for seq := uint64(1); seq <= perWorker; seq++ {
				srv.OnFrame(snd, requestFrame(seq, "echo", []byte{byte(seq)}), 0)
			}
		}(w)
	}
	close(start)
	for _, batch := range [][]stable.Log{newShardLogs(1), newShardLogs(2)} {
		if err := srv.GrowJournalShards(batch); err != nil {
			t.Fatalf("growth under traffic: %v", err)
		}
	}
	wg.Wait()
	if err := srv.JournalError(); err != nil {
		t.Fatalf("journal poisoned under concurrent growth: %v", err)
	}
	if n := srv.JournalShardCount(); n != 4 {
		t.Fatalf("shard count = %d, want 4", n)
	}
	mu.Lock()
	defer mu.Unlock()
	for w := 0; w < workers; w++ {
		id := fmt.Sprintf("traffic-%d", w)
		if execs[id] != perWorker {
			t.Errorf("client %s executed %d requests, want %d", id, execs[id], perWorker)
		}
	}
}
