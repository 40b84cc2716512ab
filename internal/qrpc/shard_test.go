package qrpc

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rover/internal/stable"
	"rover/internal/wire"
)

// newShardLogs returns n fresh MemLogs as a Journals slice.
func newShardLogs(n int) []stable.Log {
	logs := make([]stable.Log, n)
	for i := range logs {
		logs[i] = stable.NewMemLog(stable.Options{})
	}
	return logs
}

// clientsAcrossShards returns clientIDs chosen so that every one of the n
// shards is some client's home bucket (FNV-1a is fixed, so this search is
// deterministic).
func clientsAcrossShards(t *testing.T, srv *Server, n int) []string {
	t.Helper()
	byShard := make(map[int]string, n)
	for i := 0; len(byShard) < n && i < 100*n; i++ {
		id := fmt.Sprintf("shard-client-%d", i)
		idx := srv.shardIndexFor(id)
		if _, ok := byShard[idx]; !ok {
			byShard[idx] = id
		}
	}
	if len(byShard) < n {
		t.Fatalf("could not find clients covering all %d shards", n)
	}
	ids := make([]string, n)
	for idx, id := range byShard {
		ids[idx] = id
	}
	return ids
}

// TestShardedJournalRecoveryExactlyOnce rebuilds a server from a 4-bucket
// journal and checks that every session's redelivered requests are answered
// from the recovered reply caches — no re-execution anywhere, regardless of
// which bucket a session hashed to. The first incarnation runs pooled so
// the batched (pipelined group commit) execute path is the one journaling.
func TestShardedJournalRecoveryExactlyOnce(t *testing.T) {
	logs := newShardLogs(4)
	up := true

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

	srv1 := NewServer(ServerConfig{ServerID: "srv", Journals: logs, Workers: 4})
	srv1.Register("echo", handler)
	clients := clientsAcrossShards(t, srv1, 4)
	senders := make([]*harnessSender, len(clients))
	for i, id := range clients {
		senders[i] = &harnessSender{up: &up}
		srv1.OnConnect(senders[i], 0)
		srv1.OnFrame(senders[i], helloFrame(id, 1), 0)
		srv1.OnFrame(senders[i], requestFrame(1, "echo", []byte(id+"-a")), 0)
		srv1.OnFrame(senders[i], requestFrame(2, "echo", []byte(id+"-b")), 0)
	}
	srv1.Quiesce()
	srv1.Close()

	srv2 := NewServer(ServerConfig{ServerID: "srv", Journals: logs})
	srv2.Register("echo", handler)
	if err := srv2.JournalError(); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	st := srv2.Stats()
	if st.RecoveredSessions != 4 || st.RecoveredReplies != 8 {
		t.Fatalf("recovered sessions=%d replies=%d, want 4/8", st.RecoveredSessions, st.RecoveredReplies)
	}
	for i, id := range clients {
		snd := &harnessSender{up: &up}
		srv2.OnConnect(snd, 0)
		srv2.OnFrame(snd, helloFrame(id, 1), 0)
		snd.queue = nil
		srv2.OnFrame(snd, requestFrame(1, "echo", []byte(id+"-a")), 0)
		srv2.OnFrame(snd, requestFrame(2, "echo", []byte(id+"-b")), 0)
		reps := drainReplies(t, snd)
		if len(reps) != 2 {
			t.Fatalf("client %d: redelivery got %d replies, want 2", i, len(reps))
		}
		for _, rep := range reps {
			want := "r:" + id + map[uint64]string{1: "-a", 2: "-b"}[rep.Seq]
			if rep.Status != StatusOK || string(rep.Result) != want {
				t.Errorf("client %d recovered reply %d = %q, want %q", i, rep.Seq, rep.Result, want)
			}
		}
		mu.Lock()
		for seq, c := range execs[id] {
			if c != 1 {
				t.Errorf("client %d seq %d executed %d times, want 1", i, seq, c)
			}
		}
		mu.Unlock()
	}
	srv2.Close()
}

// TestShardedJournalTornTailIsolation tears the trailing record of ONE
// journal bucket and verifies the damage is confined: sessions homed in
// other buckets recover every reply, and the torn bucket's session loses
// only its truncated suffix (which re-executes on redelivery — the
// documented torn-tail contract), with the server healthy throughout.
func TestShardedJournalTornTailIsolation(t *testing.T) {
	dir := t.TempDir()
	const shards = 4
	paths := make([]string, shards)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("journal.s%d", i))
	}
	open := func() []stable.Log {
		logs := make([]stable.Log, shards)
		for i, p := range paths {
			fl, err := stable.OpenFileLog(p, stable.Options{})
			if err != nil {
				t.Fatalf("open shard %d: %v", i, err)
			}
			logs[i] = fl
		}
		return logs
	}
	closeAll := func(logs []stable.Log) {
		for _, l := range logs {
			l.Close()
		}
	}

	execs := map[string]int{}
	handler := func(clientID string, req Request) ([]byte, error) {
		execs[clientID]++
		return req.Args, nil
	}

	logs := open()
	srv1 := NewServer(ServerConfig{ServerID: "srv", Journals: logs})
	srv1.Register("echo", handler)
	clients := clientsAcrossShards(t, srv1, shards)
	up := true
	for _, id := range clients {
		snd := &harnessSender{up: &up}
		srv1.OnConnect(snd, 0)
		srv1.OnFrame(snd, helloFrame(id, 1), 0)
		srv1.OnFrame(snd, requestFrame(1, "echo", []byte(id)), 0)
	}
	victim := srv1.shardIndexFor(clients[0])
	srv1.Close()
	closeAll(logs)

	// Tear the victim bucket: append a prefix of a valid record.
	data, err := os.ReadFile(paths[victim])
	if err != nil || len(data) < 8 {
		t.Fatalf("read victim shard: %v (%d bytes)", err, len(data))
	}
	f, err := os.OpenFile(paths[victim], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(data[:5])
	f.Close()

	logs = open()
	defer closeAll(logs)
	srv2 := NewServer(ServerConfig{ServerID: "srv", Journals: logs})
	srv2.Register("echo", handler)
	if err := srv2.JournalError(); err != nil {
		t.Fatalf("torn tail in one bucket poisoned the server: %v", err)
	}
	defer srv2.Close()
	// Every session recovered (the torn suffix was an incomplete record, so
	// all fully-written replies survive), and redelivery replays from cache.
	if st := srv2.Stats(); st.RecoveredSessions != shards {
		t.Fatalf("recovered %d sessions, want %d", st.RecoveredSessions, shards)
	}
	for _, id := range clients {
		snd := &harnessSender{up: &up}
		srv2.OnConnect(snd, 0)
		srv2.OnFrame(snd, helloFrame(id, 1), 0)
		snd.queue = nil
		srv2.OnFrame(snd, requestFrame(1, "echo", []byte(id)), 0)
		if reps := drainReplies(t, snd); len(reps) != 1 {
			t.Fatalf("client %s: got %d replies, want 1", id, len(reps))
		}
		if execs[id] != 1 {
			t.Errorf("client %s executed %d times across the torn-tail rebuild, want 1", id, execs[id])
		}
	}
}

// TestJournalRecoverReshardOnGrowth grows a single-bucket journal to four
// buckets across a restart: recovery must migrate every misplaced session
// to its home bucket (counted in JournalReshards), keep exactly-once
// intact, and converge — a second 4-shard restart reshards nothing.
func TestJournalRecoverReshardOnGrowth(t *testing.T) {
	dir := t.TempDir()
	paths := []string{
		filepath.Join(dir, "journal.s0"),
		filepath.Join(dir, "journal.s1"),
		filepath.Join(dir, "journal.s2"),
		filepath.Join(dir, "journal.s3"),
	}
	open := func(n int) []stable.Log {
		logs := make([]stable.Log, n)
		for i := 0; i < n; i++ {
			fl, err := stable.OpenFileLog(paths[i], stable.Options{})
			if err != nil {
				t.Fatalf("open shard %d: %v", i, err)
			}
			logs[i] = fl
		}
		return logs
	}
	closeAll := func(logs []stable.Log) {
		for _, l := range logs {
			l.Close()
		}
	}

	execs := map[string]int{}
	handler := func(clientID string, req Request) ([]byte, error) {
		execs[clientID]++
		return req.Args, nil
	}

	// Era 1: everything lands in the single bucket.
	logs := open(1)
	srv1 := NewServer(ServerConfig{ServerID: "srv", Journals: logs})
	srv1.Register("echo", handler)
	probe := NewServer(ServerConfig{ServerID: "probe", Journals: newShardLogs(4)})
	clients := clientsAcrossShards(t, probe, 4) // covers all four FUTURE buckets
	probe.Close()
	up := true
	for _, id := range clients {
		snd := &harnessSender{up: &up}
		srv1.OnConnect(snd, 0)
		srv1.OnFrame(snd, helloFrame(id, 1), 0)
		srv1.OnFrame(snd, requestFrame(1, "echo", []byte(id)), 0)
	}
	srv1.Close()
	closeAll(logs)

	// Era 2: reopen as four buckets — recovery reshards the three sessions
	// whose home is no longer bucket 0.
	logs = open(4)
	srv2 := NewServer(ServerConfig{ServerID: "srv", Journals: logs})
	srv2.Register("echo", handler)
	if err := srv2.JournalError(); err != nil {
		t.Fatalf("reshard recovery failed: %v", err)
	}
	st := srv2.Stats()
	if st.RecoveredSessions != 4 {
		t.Fatalf("recovered %d sessions, want 4", st.RecoveredSessions)
	}
	if st.JournalReshards != 3 {
		t.Fatalf("resharded %d sessions, want 3 (all but the one homed in bucket 0)", st.JournalReshards)
	}
	for _, id := range clients {
		snd := &harnessSender{up: &up}
		srv2.OnConnect(snd, 0)
		srv2.OnFrame(snd, helloFrame(id, 1), 0)
		snd.queue = nil
		srv2.OnFrame(snd, requestFrame(1, "echo", []byte(id)), 0)
		if reps := drainReplies(t, snd); len(reps) != 1 {
			t.Fatalf("client %s: got %d replies after reshard, want 1", id, len(reps))
		}
		if execs[id] != 1 {
			t.Errorf("client %s executed %d times across the reshard, want 1", id, execs[id])
		}
	}
	srv2.Close()
	closeAll(logs)

	// Era 3: the reshard converged — reopening at four buckets moves nothing.
	logs = open(4)
	defer closeAll(logs)
	srv3 := NewServer(ServerConfig{ServerID: "srv", Journals: logs})
	defer srv3.Close()
	if err := srv3.JournalError(); err != nil {
		t.Fatalf("post-reshard recovery failed: %v", err)
	}
	st = srv3.Stats()
	if st.RecoveredSessions != 4 || st.JournalReshards != 0 {
		t.Fatalf("after converged reshard: sessions=%d reshards=%d, want 4/0", st.RecoveredSessions, st.JournalReshards)
	}
}

// TestAdmissionControlRefusesNewSessions checks the high-water mark: past
// MaxSessions a NEW clientID's Hello gets FrameBusy and no session, while
// an ESTABLISHED session re-handshakes freely at the mark.
func TestAdmissionControlRefusesNewSessions(t *testing.T) {
	srv := NewServer(ServerConfig{ServerID: "srv", MaxSessions: 2})
	defer srv.Close()
	srv.Register("echo", func(_ string, req Request) ([]byte, error) { return req.Args, nil })
	up := true

	hello := func(id string) *harnessSender {
		snd := &harnessSender{up: &up}
		srv.OnConnect(snd, 0)
		srv.OnFrame(snd, helloFrame(id, 1), 0)
		return snd
	}
	busyCount := func(snd *harnessSender) int {
		n := 0
		for _, f := range snd.queue {
			if f.Type == wire.FrameBusy {
				n++
			}
		}
		return n
	}

	a := hello("client-a")
	b := hello("client-b")
	if busyCount(a) != 0 || busyCount(b) != 0 {
		t.Fatalf("established sessions refused: a=%d b=%d busy frames", busyCount(a), busyCount(b))
	}
	if n := srv.SessionCount(); n != 2 {
		t.Fatalf("sessions = %d, want 2", n)
	}

	c := hello("client-c")
	if busyCount(c) != 1 {
		t.Fatalf("new session past the mark got %d busy frames, want 1", busyCount(c))
	}
	if n := srv.SessionCount(); n != 2 {
		t.Fatalf("refused session was created anyway: sessions = %d", n)
	}
	if got := srv.Stats().SessionsRefused; got != 1 {
		t.Fatalf("SessionsRefused = %d, want 1", got)
	}
	// The refused connection stays unauthenticated: its requests drop.
	c.queue = nil
	srv.OnFrame(c, requestFrame(1, "echo", []byte("x")), 0)
	if reps := drainReplies(t, c); len(reps) != 0 {
		t.Fatalf("refused session got %d replies", len(reps))
	}

	// An established session reconnecting at the high-water mark is always
	// re-admitted — the mark sheds NEW work, never strands accepted work.
	a2 := hello("client-a")
	if busyCount(a2) != 0 {
		t.Fatalf("established session re-handshake refused at the mark")
	}
	a2.queue = nil
	srv.OnFrame(a2, requestFrame(1, "echo", []byte("y")), 0)
	if reps := drainReplies(t, a2); len(reps) != 1 || string(reps[0].Result) != "y" {
		t.Fatalf("re-admitted session replies = %v", reps)
	}
}

// TestSessionBudgetBackpressure fills a session's unacked-reply budget and
// checks that NEW requests are dropped (BudgetRefused) while cached replays
// still serve, and that acks release the budget.
func TestSessionBudgetBackpressure(t *testing.T) {
	// replyApproxSize = 16 + len(result); 8-byte payloads cost 24 each, so
	// a 48-byte budget admits two replies and refuses the third request.
	srv := NewServer(ServerConfig{ServerID: "srv", SessionBudgetBytes: 48})
	defer srv.Close()
	srv.Register("echo", func(_ string, req Request) ([]byte, error) { return req.Args, nil })
	up := true
	snd := &harnessSender{up: &up}
	srv.OnConnect(snd, 0)
	srv.OnFrame(snd, helloFrame("budget-client", 1), 0)

	payload := []byte("8bytes!!")
	srv.OnFrame(snd, requestFrame(1, "echo", payload), 0)
	srv.OnFrame(snd, requestFrame(2, "echo", payload), 0)
	if reps := drainReplies(t, snd); len(reps) != 2 {
		t.Fatalf("got %d replies within budget, want 2", len(reps))
	}
	srv.OnFrame(snd, requestFrame(3, "echo", payload), 0)
	if reps := drainReplies(t, snd); len(reps) != 0 {
		t.Fatalf("request past budget got %d replies, want 0 (dropped)", len(reps))
	}
	if got := srv.Stats().BudgetRefused; got != 1 {
		t.Fatalf("BudgetRefused = %d, want 1", got)
	}
	// Cached replies replay even at the budget — refusing them would break
	// at-most-once by forcing a re-execution.
	srv.OnFrame(snd, requestFrame(1, "echo", payload), 0)
	if reps := drainReplies(t, snd); len(reps) != 1 || reps[0].Seq != 1 {
		t.Fatalf("replay at budget = %v", reps)
	}
	// Acks free the budget; the dropped request's redelivery now executes.
	srv.OnFrame(snd, ackFrame(1, 2), 0)
	srv.OnFrame(snd, requestFrame(3, "echo", payload), 0)
	reps := drainReplies(t, snd)
	if len(reps) != 1 || reps[0].Seq != 3 || string(reps[0].Result) != string(payload) {
		t.Fatalf("post-ack redelivery = %v", reps)
	}
}

// TestReplyCacheServesEncodedReplays checks the encoded-reply cache: a
// redelivered request replays the encoding marshaled at execution time
// (hit), a disabled cache re-marshals every replay (miss), and a byte
// budget evicts LRU entries.
func TestReplyCacheServesEncodedReplays(t *testing.T) {
	up := true
	t.Run("hit", func(t *testing.T) {
		srv := NewServer(ServerConfig{ServerID: "srv"})
		defer srv.Close()
		srv.Register("echo", func(_ string, req Request) ([]byte, error) { return req.Args, nil })
		snd := &harnessSender{up: &up}
		srv.OnConnect(snd, 0)
		srv.OnFrame(snd, helloFrame("c", 1), 0)
		srv.OnFrame(snd, requestFrame(1, "echo", []byte("x")), 0)
		snd.queue = nil
		srv.OnFrame(snd, requestFrame(1, "echo", []byte("x")), 0)
		if reps := drainReplies(t, snd); len(reps) != 1 || string(reps[0].Result) != "x" {
			t.Fatalf("replay = %v", reps)
		}
		st := srv.Stats()
		if st.ReplyCacheHits != 1 || st.ReplyCacheMisses != 0 {
			t.Fatalf("hits=%d misses=%d, want 1/0", st.ReplyCacheHits, st.ReplyCacheMisses)
		}
	})
	t.Run("disabled", func(t *testing.T) {
		srv := NewServer(ServerConfig{ServerID: "srv", ReplyCacheBytes: -1})
		defer srv.Close()
		srv.Register("echo", func(_ string, req Request) ([]byte, error) { return req.Args, nil })
		snd := &harnessSender{up: &up}
		srv.OnConnect(snd, 0)
		srv.OnFrame(snd, helloFrame("c", 1), 0)
		srv.OnFrame(snd, requestFrame(1, "echo", []byte("x")), 0)
		snd.queue = nil
		srv.OnFrame(snd, requestFrame(1, "echo", []byte("x")), 0)
		if reps := drainReplies(t, snd); len(reps) != 1 || string(reps[0].Result) != "x" {
			t.Fatalf("replay = %v", reps)
		}
		st := srv.Stats()
		if st.ReplyCacheHits != 0 || st.ReplyCacheMisses != 1 {
			t.Fatalf("hits=%d misses=%d, want 0/1", st.ReplyCacheHits, st.ReplyCacheMisses)
		}
	})
	t.Run("eviction", func(t *testing.T) {
		// A cache barely larger than one encoded reply: the second execute
		// evicts the first, whose replay then misses and repopulates.
		srv := NewServer(ServerConfig{ServerID: "srv", ReplyCacheBytes: 40})
		defer srv.Close()
		srv.Register("echo", func(_ string, req Request) ([]byte, error) { return req.Args, nil })
		snd := &harnessSender{up: &up}
		srv.OnConnect(snd, 0)
		srv.OnFrame(snd, helloFrame("c", 1), 0)
		srv.OnFrame(snd, requestFrame(1, "echo", []byte(strings.Repeat("a", 24))), 0)
		srv.OnFrame(snd, requestFrame(2, "echo", []byte(strings.Repeat("b", 24))), 0)
		if st := srv.Stats(); st.ReplyCacheEvictions == 0 {
			t.Fatalf("no evictions from a %d-byte cache after two ~30-byte replies", 40)
		}
		snd.queue = nil
		srv.OnFrame(snd, requestFrame(1, "echo", []byte(strings.Repeat("a", 24))), 0)
		reps := drainReplies(t, snd)
		if len(reps) != 1 || string(reps[0].Result) != strings.Repeat("a", 24) {
			t.Fatalf("post-eviction replay = %v", reps)
		}
		if st := srv.Stats(); st.ReplyCacheMisses == 0 {
			t.Fatalf("evicted reply replayed without a cache miss")
		}
	})
}
