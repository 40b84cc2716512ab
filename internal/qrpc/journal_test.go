package qrpc

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rover/internal/faults"
	"rover/internal/stable"
	"rover/internal/wire"
	"rover/internal/yield"
)

// Frame builders for driving a server engine directly (no client engine),
// so tests control redelivery and crash points exactly.

func helloFrame(clientID string, lowSeq uint64) wire.Frame {
	return wire.Frame{Type: wire.FrameHello, Payload: wire.Marshal(&Hello{ClientID: clientID, LowSeq: lowSeq})}
}

func requestFrame(seq uint64, service string, args []byte) wire.Frame {
	return wire.Frame{Type: wire.FrameRequest, Payload: wire.Marshal(&Request{Seq: seq, Service: service, Args: args})}
}

func ackFrame(seqs ...uint64) wire.Frame {
	return wire.Frame{Type: wire.FrameAck, Payload: wire.Marshal(&Ack{Seqs: seqs})}
}

// requestBatch is one batch frame carrying requests first..last, so the
// server dispatches them as one run.
func requestBatch(first, last uint64, service string) wire.Frame {
	var subs []wire.Frame
	for seq := first; seq <= last; seq++ {
		subs = append(subs, requestFrame(seq, service, nil))
	}
	return wire.BatchFrames(subs)
}

// drainReplies pops every queued frame off the sender, returning the
// decoded replies (Welcome/Pong/etc. frames are discarded; batches are
// unpacked).
func drainReplies(t *testing.T, snd *harnessSender) []*Reply {
	t.Helper()
	var reps []*Reply
	for _, f := range snd.queue {
		frames := []wire.Frame{f}
		if f.Type == wire.FrameBatch {
			subs, err := wire.UnbatchFrames(f.Payload)
			if err != nil {
				t.Fatalf("unbatch: %v", err)
			}
			frames = subs
		}
		for _, sf := range frames {
			if sf.Type != wire.FrameReply {
				continue
			}
			rep := &Reply{}
			if err := wire.Unmarshal(sf.Payload, rep); err != nil {
				t.Fatalf("reply unmarshal: %v", err)
			}
			reps = append(reps, rep)
		}
	}
	snd.queue = nil
	return reps
}

// TestJournalRecoveryExactlyOnce is the tentpole property: a server rebuilt
// from its session journal answers a redelivered request from the recovered
// reply cache instead of re-running the handler.
func TestJournalRecoveryExactlyOnce(t *testing.T) {
	journal := stable.NewMemLog(stable.Options{})
	up := true
	snd := &harnessSender{up: &up}

	execs := map[uint64]int{}
	handler := func(_ string, req Request) ([]byte, error) {
		execs[req.Seq]++
		return append([]byte("r:"), req.Args...), nil
	}

	srv1 := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{journal}})
	srv1.Register("echo", handler)
	srv1.OnConnect(snd, 0)
	srv1.OnFrame(snd, helloFrame("c1", 1), 0)
	srv1.OnFrame(snd, requestFrame(1, "echo", []byte("a")), 0)
	srv1.OnFrame(snd, requestFrame(2, "echo", []byte("b")), 0)
	if reps := drainReplies(t, snd); len(reps) != 2 {
		t.Fatalf("got %d replies, want 2", len(reps))
	}
	if execs[1] != 1 || execs[2] != 1 {
		t.Fatalf("execs = %v", execs)
	}

	// Crash: srv1 is abandoned. The journal is all that survives.
	srv2 := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{journal}})
	srv2.Register("echo", handler)
	if err := srv2.JournalError(); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	st := srv2.Stats()
	if st.RecoveredSessions != 1 || st.RecoveredReplies != 2 {
		t.Fatalf("recovered sessions=%d replies=%d, want 1/2", st.RecoveredSessions, st.RecoveredReplies)
	}

	srv2.OnConnect(snd, 0)
	srv2.OnFrame(snd, helloFrame("c1", 1), 0)
	snd.queue = nil
	srv2.OnFrame(snd, requestFrame(1, "echo", []byte("a")), 0)
	srv2.OnFrame(snd, requestFrame(2, "echo", []byte("b")), 0)
	reps := drainReplies(t, snd)
	if len(reps) != 2 {
		t.Fatalf("redelivery got %d replies, want 2", len(reps))
	}
	for _, rep := range reps {
		if rep.Status != StatusOK || string(rep.Result) != "r:"+map[uint64]string{1: "a", 2: "b"}[rep.Seq] {
			t.Errorf("recovered reply %d = %+v", rep.Seq, rep)
		}
	}
	if execs[1] != 1 || execs[2] != 1 {
		t.Fatalf("handler re-ran after restart: execs = %v", execs)
	}
	if got := srv2.Stats().ReplaysServed; got != 2 {
		t.Errorf("ReplaysServed = %d, want 2", got)
	}
}

// TestJournalAckAndPruneRecovery checks that ack and prune records are
// journaled and replayed. It pins behaviour, not how the session stores it:
// an acked request, redelivered before or after a restart, is neither
// re-executed nor re-answered; a seq the client has not acked yet still
// runs exactly once even though higher seqs are acked around it; and a
// Hello's floor survives a restart.
func TestJournalAckAndPruneRecovery(t *testing.T) {
	journal := stable.NewMemLog(stable.Options{})
	up := true
	snd := &harnessSender{up: &up}
	execs := map[uint64]int{}
	handler := func(_ string, req Request) ([]byte, error) { execs[req.Seq]++; return nil, nil }
	redeliver := func(srv *Server, seq uint64) int {
		t.Helper()
		snd.queue = nil
		srv.OnFrame(snd, requestFrame(seq, "echo", nil), 0)
		return len(drainReplies(t, snd))
	}

	srv1 := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{journal}})
	srv1.Register("echo", handler)
	srv1.OnConnect(snd, 0)
	srv1.OnFrame(snd, helloFrame("c1", 1), 0)
	// Seq 2 is still on its way when 1 and 3 complete and are acked.
	srv1.OnFrame(snd, requestFrame(1, "echo", nil), 0)
	srv1.OnFrame(snd, requestFrame(3, "echo", nil), 0)
	srv1.OnFrame(snd, ackFrame(1), 0)
	srv1.OnFrame(snd, ackFrame(3), 0)
	for _, seq := range []uint64{1, 3} {
		if n := redeliver(srv1, seq); n != 0 || execs[seq] != 1 {
			t.Fatalf("acked seq %d redelivered: %d replies, %d execs", seq, n, execs[seq])
		}
	}

	// Restart 1: the ack records must survive — the redelivered requests
	// are dropped (client has the replies), not re-executed, not re-answered.
	srv2 := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{journal}})
	srv2.Register("echo", handler)
	if err := srv2.JournalError(); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	srv2.OnConnect(snd, 0)
	srv2.OnFrame(snd, helloFrame("c1", 1), 0)
	for _, seq := range []uint64{1, 3} {
		if n := redeliver(srv2, seq); n != 0 || execs[seq] != 1 {
			t.Fatalf("acked seq %d after restart: %d replies, %d execs", seq, n, execs[seq])
		}
	}
	if sess := srv2.Sessions(); len(sess) != 1 || sess[0].CachedReplies != 0 {
		t.Fatalf("recovered session = %+v, want 0 cached", sess)
	}
	// The late seq 2 is new work: acks on both sides of it must not have
	// closed the gap.
	if n := redeliver(srv2, 2); n != 1 || execs[2] != 1 {
		t.Fatalf("unacked seq 2 after restart: %d replies, %d execs, want 1 and 1", n, execs[2])
	}
	srv2.OnFrame(snd, ackFrame(2), 0)
	if sess := srv2.Sessions(); sess[0].AckedPending != 0 || sess[0].LowSeq != 4 {
		t.Fatalf("seqs 1-3 all acked: %+v, want nothing pending and a floor of 4", sess[0])
	}

	// A Hello advertising LowSeq=6 raises the floor and journals the prune
	// record.
	srv2.OnFrame(snd, helloFrame("c1", 6), 0)
	if sess := srv2.Sessions(); sess[0].LowSeq != 6 {
		t.Fatalf("prune not applied: %+v", sess[0])
	}

	// Restart 2: recovery must replay the prune record.
	srv3 := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{journal}})
	srv3.Register("echo", handler)
	if err := srv3.JournalError(); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	sess := srv3.Sessions()
	if len(sess) != 1 || sess[0].AckedPending != 0 || sess[0].LowSeq != 6 {
		t.Fatalf("prune record not replayed: %+v", sess)
	}
	srv3.OnConnect(snd, 0)
	srv3.OnFrame(snd, helloFrame("c1", 6), 0)
	if n := redeliver(srv3, 5); n != 0 || execs[5] != 0 {
		t.Fatalf("seq below the recovered floor: %d replies, %d execs", n, execs[5])
	}
}

// TestAckedStateStaysBoundedOnLongConnection: one connection, 100k
// requests, every one acked (in pairs, the higher seq first). The acked
// state — in memory and in every compaction snapshot — must stay the size
// of the out-of-order window, not of the connection's history, across a
// restart too.
func TestAckedStateStaysBoundedOnLongConnection(t *testing.T) {
	journal := stable.NewMemLog(stable.Options{})
	up := true
	snd := &harnessSender{up: &up}
	srv := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{journal}, JournalCompactEvery: 64})
	srv.Register("echo", func(string, Request) ([]byte, error) { return nil, nil })
	srv.OnConnect(snd, 0)
	srv.OnFrame(snd, helloFrame("c1", 1), 0)
	const n = 100_000
	for seq := uint64(1); seq <= n; seq += 2 {
		srv.OnFrame(snd, requestFrame(seq, "echo", nil), 0)
		srv.OnFrame(snd, requestFrame(seq+1, "echo", nil), 0)
		srv.OnFrame(snd, ackFrame(seq+1), 0)
		if got := srv.Sessions()[0].AckedPending; got != 1 {
			t.Fatalf("after out-of-order ack of %d: AckedPending = %d, want 1", seq+1, got)
		}
		srv.OnFrame(snd, ackFrame(seq), 0)
		snd.queue = nil
	}
	if sess := srv.Sessions()[0]; sess.AckedPending != 0 || sess.LowSeq != n+1 || sess.CachedReplies != 0 {
		t.Fatalf("after %d acked requests: %+v", n, sess)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	var bytes int
	if err := journal.Replay(func(_ uint64, rec []byte) error { bytes += len(rec); return nil }); err != nil {
		t.Fatal(err)
	}
	if bytes > 4096 {
		t.Fatalf("compacted journal holds %d bytes after %d acked requests, want a few records' worth", bytes, n)
	}

	srv2 := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{journal}})
	if err := srv2.JournalError(); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if sess := srv2.Sessions()[0]; sess.AckedPending != 0 || sess.LowSeq != n+1 {
		t.Fatalf("recovered session %+v", sess)
	}
}

// TestJournalCompactionBoundsLog drives enough requests through a
// low-threshold journal to force several snapshot+truncate cycles, then
// verifies the journal stayed bounded and a rebuild from the compacted
// journal recovers the exact session state.
func TestJournalCompactionBoundsLog(t *testing.T) {
	journal := stable.NewMemLog(stable.Options{})
	up := true
	snd := &harnessSender{up: &up}
	const threshold = 8

	srv := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{journal}, JournalCompactEvery: threshold})
	srv.Register("echo", func(_ string, req Request) ([]byte, error) { return req.Args, nil })
	srv.OnConnect(snd, 0)
	srv.OnFrame(snd, helloFrame("c1", 1), 0)
	const n = 100
	for seq := uint64(1); seq <= n; seq++ {
		srv.OnFrame(snd, requestFrame(seq, "echo", []byte{byte(seq)}), 0)
		if seq%3 == 0 {
			srv.OnFrame(snd, ackFrame(seq), 0) // some replies acked, some cached
		}
	}
	if err := srv.Close(); err != nil { // waits out background compactions
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.JournalCompactions == 0 {
		t.Fatalf("no compactions after %d records (threshold %d)", st.JournalRecords, threshold)
	}
	// Bounded: live records ≤ threshold plus the records of one in-progress
	// window (snapshot + appends since the last compaction claimed).
	if n := liveLen(journal); n > 2*threshold+1 {
		t.Fatalf("journal holds %d live records after compaction, want ≤ %d", n, 2*threshold+1)
	}

	srv2 := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{journal}})
	if err := srv2.JournalError(); err != nil {
		t.Fatalf("recovery from compacted journal: %v", err)
	}
	sess := srv2.Sessions()
	if len(sess) != 1 {
		t.Fatalf("recovered %d sessions", len(sess))
	}
	wantCached := n - n/3
	if sess[0].CachedReplies != wantCached || sess[0].AckedPending != n/3 || sess[0].MaxExecuted != n {
		t.Fatalf("recovered session %+v, want cached=%d acked=%d maxExec=%d", sess[0], wantCached, n/3, n)
	}
}

// TestHandlerJournalsWhileCompactionWaits: a handler that journals on its
// own — as the replicator's apply handler does through InstallReply — must
// not hold its shard's gate while it does. Each install here crosses the
// tiny compaction threshold, and the pause after it lets the compaction
// reach the gate; had the run taken the gate before its handler, the next
// install's read lock would queue behind that waiting writer, which waits
// for the run: a deadlock in the default inline mode.
func TestHandlerJournalsWhileCompactionWaits(t *testing.T) {
	srv := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{stable.NewMemLog(stable.Options{})}, JournalCompactEvery: 2})
	const installs = 8
	srv.Register("apply", func(string, Request) ([]byte, error) {
		for seq := uint64(1); seq <= installs; seq++ {
			srv.InstallReply("peer", wire.Marshal(&Reply{Seq: seq, Status: StatusOK}))
			time.Sleep(2 * time.Millisecond)
		}
		return nil, nil
	})
	up := true
	snd := &harnessSender{up: &up}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.OnConnect(snd, 0)
		srv.OnFrame(snd, helloFrame("c1", 1), 0)
		srv.OnFrame(snd, requestFrame(1, "apply", nil), 0)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("request whose handler journals never finished: the run holds its shard gate across the handler")
	}
	srv.Close() // waits out the compactions
	if reps := drainReplies(t, snd); len(reps) != 1 || reps[0].Status != StatusOK {
		t.Fatalf("replies = %+v", reps)
	}
	if st := srv.Stats(); st.ReplicatedReplies != installs || st.JournalCompactions == 0 {
		t.Fatalf("installed %d replies with %d compactions, want %d and at least one", st.ReplicatedReplies, st.JournalCompactions, installs)
	}
}

// poisonLog is a stable.Log stub whose writes — appends and removes,
// waited for or staged, one budget for all — fail with a typed
// *stable.PoisonedError after a budget of successes: the signature of a
// FileLog whose group-commit fsync failed.
type poisonLog struct {
	*stable.MemLog
	mu     sync.Mutex
	budget int
}

func (p *poisonLog) charge() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.budget <= 0 {
		return &stable.PoisonedError{Cause: errors.New("disk gone")}
	}
	p.budget--
	return nil
}

func (p *poisonLog) Append(rec []byte) (uint64, error) {
	if err := p.charge(); err != nil {
		return 0, err
	}
	return p.MemLog.Append(rec)
}

func (p *poisonLog) AppendNoSync(rec []byte) (uint64, error) {
	if err := p.charge(); err != nil {
		return 0, err
	}
	return p.MemLog.AppendNoSync(rec)
}

func (p *poisonLog) RemoveNoSync(ids ...uint64) error {
	if err := p.charge(); err != nil {
		return err
	}
	return p.MemLog.RemoveNoSync(ids...)
}

// TestJournaledServerRefusesWhenPoisoned is the durability contract: once
// the journal cannot accept records, the server refuses to execute new work
// (instead of silently continuing without durability), keeps serving cached
// replays, and surfaces the typed poisoned error. The benchmark module
// still sets the ignored Workers field, so a server configured with it
// must hold the contract on the same inline run.
func TestJournaledServerRefusesWhenPoisoned(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// Budget 2: the Hello (LowSeq 1 > initial 0) journals a prune record,
			// then seq 1's exec record; seq 2's exec append is the one that fails.
			jl := &poisonLog{MemLog: stable.NewMemLog(stable.Options{}), budget: 2}
			up := true
			snd := &harnessSender{up: &up}
			execs := 0

			srv := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{jl}, Workers: workers})
			defer srv.Close()
			srv.Register("echo", func(string, Request) ([]byte, error) { execs++; return []byte("ok"), nil })
			srv.OnConnect(snd, 0)
			srv.OnFrame(snd, helloFrame("c1", 1), 0)
			deliver := func(seq uint64) []*Reply {
				srv.OnFrame(snd, requestFrame(seq, "echo", nil), 0)
				return drainReplies(t, snd)
			}
			if reps := deliver(1); len(reps) != 1 { // journaled fine
				t.Fatalf("healthy request got %d replies", len(reps))
			}

			// Budget exhausted: the exec append fails, the reply must NOT be
			// released, and the journal is poisoned.
			if reps := deliver(2); len(reps) != 0 {
				t.Fatalf("reply released without durability")
			}
			if execs != 2 {
				t.Fatalf("execs = %d (handler for seq 2 should have run once before the failed append)", execs)
			}
			if err := srv.JournalError(); !errors.Is(err, stable.ErrPoisoned) {
				t.Fatalf("JournalError = %v, want ErrPoisoned", err)
			}

			// Further requests are refused before the handler runs.
			if reps := deliver(3); len(reps) != 0 {
				t.Fatal("poisoned server released a reply")
			}
			if execs != 2 {
				t.Fatalf("poisoned server ran a handler: execs = %d", execs)
			}
			if got := srv.Stats().JournalRefused; got < 2 {
				t.Errorf("JournalRefused = %d, want ≥ 2", got)
			}

			// Cached replays still work: seq 1's reply was journaled and cached.
			if reps := deliver(1); len(reps) != 1 || string(reps[0].Result) != "ok" {
				t.Fatalf("cached replay unavailable while poisoned: %+v", reps)
			}
		})
	}
}

// TestJournalRecoveryFailureRefusesExecutes: a journal that cannot be
// replayed (unreadable at construction) must poison the server, not let it
// start with partial exactly-once state.
func TestJournalRecoveryFailureRefusesExecutes(t *testing.T) {
	jl := faults.WrapLog(stable.NewMemLog(stable.Options{}), 1, faults.LogFaultRates{ReplayFail: 1})
	up := true
	snd := &harnessSender{up: &up}
	execs := 0
	srv := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{jl}})
	srv.Register("echo", func(string, Request) ([]byte, error) { execs++; return nil, nil })
	if err := srv.JournalError(); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("JournalError = %v, want injected replay failure", err)
	}
	srv.OnConnect(snd, 0)
	srv.OnFrame(snd, helloFrame("c1", 1), 0)
	srv.OnFrame(snd, requestFrame(1, "echo", nil), 0)
	if execs != 0 {
		t.Fatalf("unrecovered server executed a request")
	}
	if got := srv.Stats().JournalRefused; got != 1 {
		t.Errorf("JournalRefused = %d, want 1", got)
	}
}

// TestJournalConcurrentSessions exercises the journal under sessions that
// deliver from goroutines of their own: their runs execute in parallel,
// exec appends ride the same journal past compactions, and a rebuild
// recovers every released reply. Run with -race.
func TestJournalConcurrentSessions(t *testing.T) {
	journal := stable.NewMemLog(stable.Options{})
	srv := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{journal}, JournalCompactEvery: 16})
	var mu sync.Mutex
	execs := map[string]int{}
	srv.Register("echo", func(clientID string, req Request) ([]byte, error) {
		mu.Lock()
		execs[fmt.Sprintf("%s/%d", clientID, req.Seq)]++
		mu.Unlock()
		return req.Args, nil
	})

	const clients, perClient = 4, 50
	up := true
	senders := make([]*harnessSender, clients)
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		ci := ci
		senders[ci] = &harnessSender{up: &up}
		srv.OnConnect(senders[ci], 0)
		srv.OnFrame(senders[ci], helloFrame(fmt.Sprintf("c%d", ci), 1), 0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(1); seq <= perClient; seq++ {
				srv.OnFrame(senders[ci], requestFrame(seq, "echo", []byte{byte(seq)}), 0)
			}
		}()
	}
	wg.Wait()
	if got := srv.Stats().Executed; got != clients*perClient {
		t.Fatalf("executed %d/%d", got, clients*perClient)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	for key, n := range execs {
		if n != 1 {
			t.Fatalf("request %s executed %d times", key, n)
		}
	}
	mu.Unlock()

	srv2 := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{journal}})
	if err := srv2.JournalError(); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	st := srv2.Stats()
	if st.RecoveredSessions != clients || st.RecoveredReplies != clients*perClient {
		t.Fatalf("recovered sessions=%d replies=%d, want %d/%d",
			st.RecoveredSessions, st.RecoveredReplies, clients, clients*perClient)
	}
}

// TestJournalDirtyAppendRecovers models the crash-before-ack write: the
// exec record reaches the journal durably but the server sees an error. The
// current incarnation must NOT release the reply (it poisons instead), and
// the next incarnation recovers the record — the redelivered request is
// answered from cache with the handler having run exactly once. A server
// configured with the ignored Workers field, as the benchmark module's
// still are, stages the record on the same inline run.
func TestJournalDirtyAppendRecovers(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			mem := stable.NewMemLog(stable.Options{})
			jl := faults.WrapLog(mem, 42, faults.LogFaultRates{AppendDirty: 1})
			up := true
			snd := &harnessSender{up: &up}
			execs := 0
			handler := func(string, Request) ([]byte, error) { execs++; return []byte("v"), nil }

			srv1 := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{jl}, Workers: workers})
			defer srv1.Close()
			srv1.Register("echo", handler)
			srv1.OnConnect(snd, 0)
			// LowSeq 0 keeps the Hello from journaling a prune record, so the
			// first (dirty) append is exactly seq 1's exec record.
			srv1.OnFrame(snd, helloFrame("c1", 0), 0)
			srv1.OnFrame(snd, requestFrame(1, "echo", nil), 0)
			if reps := drainReplies(t, snd); len(reps) != 0 {
				t.Fatal("reply released despite journal append error")
			}
			if execs != 1 {
				t.Fatalf("execs = %d", execs)
			}
			if srv1.JournalError() == nil {
				t.Fatal("dirty append did not poison the incarnation that saw the error")
			}

			// Next incarnation: the record was durable, so recovery serves it.
			jl.SetEnabled(false)
			srv2 := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{jl}, Workers: workers})
			defer srv2.Close()
			srv2.Register("echo", handler)
			if err := srv2.JournalError(); err != nil {
				t.Fatalf("recovery: %v", err)
			}
			srv2.OnConnect(snd, 0)
			srv2.OnFrame(snd, helloFrame("c1", 0), 0)
			snd.queue = nil
			srv2.OnFrame(snd, requestFrame(1, "echo", nil), 0)
			reps := drainReplies(t, snd)
			if len(reps) != 1 || string(reps[0].Result) != "v" {
				t.Fatalf("recovered reply = %+v", reps)
			}
			if execs != 1 {
				t.Fatalf("handler re-ran for a durably journaled request: execs = %d", execs)
			}
		})
	}
}

// TestRunCommitsOnceUnderFaultLog: a fault-injecting journal takes the same
// path as any other log. The 32 requests of one batch frame run as one run
// with one commit, so the whole burst costs the journal one flush, not one
// per request.
func TestRunCommitsOnceUnderFaultLog(t *testing.T) {
	mem := stable.NewMemLog(stable.Options{})
	jl := faults.WrapLog(mem, 7, faults.LogFaultRates{})
	srv := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{jl}})
	defer srv.Close()
	srv.Register("echo", func(_ string, req Request) ([]byte, error) { return req.Args, nil })
	up := true
	snd := &harnessSender{up: &up}
	srv.OnConnect(snd, 0)
	srv.OnFrame(snd, helloFrame("c1", 1), 0)
	const n = 32
	srv.OnFrame(snd, requestBatch(1, n, "echo"), 0)
	if reps := drainReplies(t, snd); len(reps) != n {
		t.Fatalf("got %d replies, want %d", len(reps), n)
	}
	if st := srv.Stats(); st.Executed != n || st.JournalRecords != n+1 {
		t.Fatalf("executed %d, journaled %d records, want %d and %d (the Hello's prune record too)", st.Executed, st.JournalRecords, n, n+1)
	}
	if syncs := mem.Stats().Syncs; syncs != 1 {
		t.Fatalf("%d requests cost the journal %d flushes, want 1", n, syncs)
	}
}

// dirtyAtLog fails its nth staged append dirty: the record is written and
// committed, but the caller sees an error.
type dirtyAtLog struct {
	*stable.MemLog
	appends, nth int
}

func (d *dirtyAtLog) AppendNoSync(rec []byte) (uint64, error) {
	id, err := d.MemLog.AppendNoSync(rec)
	if d.appends++; err == nil && d.appends == d.nth {
		if err = d.MemLog.Commit(); err == nil {
			err = errors.New("dirty append")
		}
	}
	return id, err
}

// TestDirtyStageMidRunJournalsWholeRun: a run's handlers all return before
// its records are staged, so a dirty failure on one record must not stop the
// records after it. Seq 1 runs alone; seqs 2-6 arrive in one batch frame and
// run as one run, in which seq 3's record fails dirty. Nothing of that run
// is released, and the next incarnation answers all of it from the journal
// without running a handler again.
func TestDirtyStageMidRunJournalsWholeRun(t *testing.T) {
	// The Hello's LowSeq 0 journals no prune record, so seq n's exec
	// record is append n.
	jl := &dirtyAtLog{MemLog: stable.NewMemLog(stable.Options{}), nth: 3}
	execs := map[uint64]int{}
	handler := func(_ string, req Request) ([]byte, error) {
		execs[req.Seq]++
		return []byte("v"), nil
	}
	up := true
	snd := &harnessSender{up: &up}
	srv1 := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{jl}})
	srv1.Register("echo", handler)
	srv1.OnConnect(snd, 0)
	srv1.OnFrame(snd, helloFrame("c1", 0), 0)
	srv1.OnFrame(snd, requestFrame(1, "echo", nil), 0)
	const n = 6
	srv1.OnFrame(snd, requestBatch(2, n, "echo"), 0)
	srv1.Close()
	if reps := drainReplies(t, snd); len(reps) != 1 || reps[0].Seq != 1 {
		t.Fatalf("released %+v, want only seq 1's reply", reps)
	}
	if srv1.JournalError() == nil {
		t.Fatal("dirty append did not poison the incarnation that saw it")
	}

	srv2 := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{jl.MemLog}})
	defer srv2.Close()
	srv2.Register("echo", handler)
	srv2.OnConnect(snd, 0)
	srv2.OnFrame(snd, helloFrame("c1", 0), 0)
	srv2.OnFrame(snd, requestBatch(1, n, "echo"), 0)
	if reps := drainReplies(t, snd); len(reps) != n {
		t.Fatalf("recovered incarnation answered %d of %d requests", len(reps), n)
	}
	for seq := uint64(1); seq <= n; seq++ {
		if execs[seq] != 1 {
			t.Errorf("seq %d ran %d times, want once", seq, execs[seq])
		}
	}
}

// TestAckRedeliveredJournalsOnce: an Ack frame delivered twice — a
// redelivery, or a batch the mail transport duplicated — changes the
// session once, so it adds one journal record, not two; nor does an ack of
// a seq below the session's LowSeq.
func TestAckRedeliveredJournalsOnce(t *testing.T) {
	srv := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{stable.NewMemLog(stable.Options{})}})
	defer srv.Close()
	srv.Register("echo", func(_ string, req Request) ([]byte, error) { return req.Args, nil })
	up := true
	snd := &harnessSender{up: &up}
	srv.OnConnect(snd, 0)
	srv.OnFrame(snd, helloFrame("c1", 0), 0)
	srv.OnFrame(snd, requestFrame(1, "echo", nil), 0)
	if reps := drainReplies(t, snd); len(reps) != 1 {
		t.Fatalf("got %d replies, want 1", len(reps))
	}
	before := srv.Stats().JournalRecords
	srv.OnFrame(snd, ackFrame(1), 0)
	if got := srv.Stats().JournalRecords; got != before+1 {
		t.Fatalf("first ack: %d journal records, want %d", got, before+1)
	}
	srv.OnFrame(snd, ackFrame(1), 0)
	if got := srv.Stats().JournalRecords; got != before+1 {
		t.Fatalf("redelivered ack: %d journal records, want still %d", got, before+1)
	}
	srv.OnFrame(snd, ackFrame(0), 0)
	if got := srv.Stats().JournalRecords; got != before+1 {
		t.Fatalf("ack below LowSeq: %d journal records, want still %d", got, before+1)
	}
}

// TestRefusedRunSurvivesCompaction: a run whose exec record fails dirty is
// refused, but the record may be durable. The runner must poison the
// journal before it lets go of the shard gate, or a compaction waiting on
// the gate snapshots the session without the reply, appends that snapshot
// after the record, and replay resets the record away: the redelivered
// request would run a second time. The yield hook holds the runner just
// after its release until a compaction claimed then has taken the gate and
// either appended or, seeing the poison, given up.
func TestRefusedRunSurvivesCompaction(t *testing.T) {
	// The Hello's LowSeq 0 journals no prune record, so seq 1's exec record
	// is append 1.
	jl := &dirtyAtLog{MemLog: stable.NewMemLog(stable.Options{}), nth: 1}
	var mu sync.Mutex
	execs := 0
	handler := func(string, Request) ([]byte, error) {
		mu.Lock()
		execs++
		mu.Unlock()
		return []byte("v"), nil
	}
	srv1 := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{jl}})
	srv1.Register("echo", handler)
	compacted := make(chan struct{})
	restore := yield.Set(func(site string) {
		switch site {
		case yieldRunRefused:
			sh := srv1.shards[0]
			srv1.mu.Lock()
			sh.compacting = true
			srv1.compactWG.Add(1)
			srv1.mu.Unlock()
			go srv1.compactShardOnce(sh)
			<-compacted
		case yieldCompactAbort, yieldCompactAppend:
			close(compacted)
		}
	})
	defer restore()
	up := true
	snd := &harnessSender{up: &up}
	srv1.OnConnect(snd, 0)
	srv1.OnFrame(snd, helloFrame("c1", 0), 0)
	srv1.OnFrame(snd, requestFrame(1, "echo", nil), 0)
	select {
	case <-compacted:
	default:
		t.Fatal("the refused run never released its gate through the yield site")
	}
	restore()
	srv1.Close()
	if reps := drainReplies(t, snd); len(reps) != 0 {
		t.Fatalf("released %+v from a refused run", reps)
	}
	if srv1.JournalError() == nil {
		t.Fatal("dirty append did not poison the incarnation that saw it")
	}

	srv2 := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{jl.MemLog}})
	defer srv2.Close()
	srv2.Register("echo", handler)
	srv2.OnConnect(snd, 0)
	srv2.OnFrame(snd, helloFrame("c1", 0), 0)
	srv2.OnFrame(snd, requestFrame(1, "echo", nil), 0)
	if reps := drainReplies(t, snd); len(reps) != 1 || reps[0].Status != StatusOK {
		t.Fatalf("recovered incarnation answered %+v", reps)
	}
	mu.Lock()
	defer mu.Unlock()
	if execs != 1 {
		t.Fatalf("the handler ran %d times, want once: recovery lost the durable exec record", execs)
	}
}

// TestRecoveredReplySurvivesJournalCompaction: a recovered reply is a view
// of the record it was replayed from. A server abandoned with unacked
// replies is reopened, and new traffic makes every shard compact: the
// journal snapshots its sessions and removes the exec records those replies
// view, and each FileLog rewrites its file. The old requests, redelivered
// after that and again after one more abandon and reopen, are answered with
// the bytes first sent, and their handler does not run again.
func TestRecoveredReplySurvivesJournalCompaction(t *testing.T) {
	const shards, compactEvery = 4, 8
	dir := t.TempDir()
	var logs []stable.Log
	open := func() *Server {
		t.Helper()
		logs = logs[:0]
		for i := range shards {
			fl, err := stable.OpenFileLog(filepath.Join(dir, fmt.Sprintf("journal.%d", i)), stable.Options{})
			if err != nil {
				t.Fatal(err)
			}
			logs = append(logs, fl)
		}
		srv := NewServer(ServerConfig{ServerID: "srv", Journals: logs, JournalCompactEvery: compactEvery})
		if err := srv.JournalError(); err != nil {
			t.Fatal(err)
		}
		return srv
	}
	// The abandoned server is never closed; its logs are, so the next
	// incarnation can open the files.
	abandon := func() {
		for _, l := range logs {
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	execs := map[string]int{}
	handler := func(clientID string, req Request) ([]byte, error) {
		execs[fmt.Sprintf("%s/%d", clientID, req.Seq)]++
		return req.Args, nil
	}
	up := true
	snd := &harnessSender{up: &up}
	send := func(srv *Server, clientID string, seq uint64, args []byte) []byte {
		t.Helper()
		snd.queue = nil
		srv.OnConnect(snd, 0)
		srv.OnFrame(snd, helloFrame(clientID, 1), 0)
		snd.queue = nil
		srv.OnFrame(snd, requestFrame(seq, "echo", args), 0)
		if len(snd.queue) != 1 || snd.queue[0].Type != wire.FrameReply {
			t.Fatalf("%s seq %d: sent %v, want one reply frame", clientID, seq, snd.queue)
		}
		return snd.queue[0].Payload
	}

	srv := open()
	srv.Register("echo", handler)
	clients := clientsAcrossShards(t, srv, shards)
	const old = 3
	sent := map[string][]byte{}
	for _, c := range clients {
		for seq := uint64(1); seq <= old; seq++ {
			sent[fmt.Sprintf("%s/%d", c, seq)] = bytes.Clone(send(srv, c, seq, []byte(fmt.Sprintf("old %s %d", c, seq))))
		}
	}
	abandon()

	srv = open()
	srv.Register("echo", handler)
	if got := srv.Stats().RecoveredReplies; got != shards*old {
		t.Fatalf("recovered %d replies, want %d", got, shards*old)
	}
	replayed := make([]map[uint64]bool, shards)
	for i, l := range logs {
		replayed[i] = map[uint64]bool{}
		l.Replay(func(id uint64, _ []byte) error { replayed[i][id] = true; return nil })
	}
	// Large acked replies: the shards compact, and the snapshots stay small
	// beside the files, so each FileLog rewrites its own.
	big := bytes.Repeat([]byte{0xA5}, 8<<10)
	for _, c := range clients {
		for seq := uint64(old + 1); seq <= old+3*compactEvery; seq++ {
			send(srv, c, seq, big)
			srv.OnFrame(snd, ackFrame(seq), 0)
		}
	}
	srv.compactWG.Wait()
	for i, l := range logs {
		if st := l.Stats(); st.Compactions == 0 {
			t.Fatalf("shard %d's file was never rewritten: %+v", i, st)
		}
		l.Replay(func(id uint64, _ []byte) error {
			if replayed[i][id] {
				t.Fatalf("shard %d still holds record %d, replayed at the reopen", i, id)
			}
			return nil
		})
	}

	redeliver := func(srv *Server) {
		t.Helper()
		for _, c := range clients {
			for seq := uint64(1); seq <= old; seq++ {
				key := fmt.Sprintf("%s/%d", c, seq)
				if got := send(srv, c, seq, []byte("redelivered")); !bytes.Equal(got, sent[key]) {
					t.Fatalf("%s redelivered: reply %x, want the bytes first sent %x", key, got, sent[key])
				}
			}
		}
	}
	redeliver(srv)
	abandon()
	srv = open()
	srv.Register("echo", handler)
	defer abandon()
	defer srv.Close()
	redeliver(srv)
	for key, n := range execs {
		if n != 1 {
			t.Fatalf("%s ran %d times, want once", key, n)
		}
	}
}

// TestRecoveredReplyAllocs: journal recovery checks a reply and learns its
// seq in place, and builds nothing for an OK or an application-error exec
// record: the error message, like the result, stays a view of its record.
func TestRecoveredReplyAllocs(t *testing.T) {
	for _, rep := range []Reply{
		{Seq: 7, Status: StatusOK, Result: []byte("the result")},
		{Seq: 7, Status: StatusAppError, ErrMsg: "the method failed"},
	} {
		enc := wire.Marshal(&rep)
		rec := encodeExecRecordEnc("phone", enc)
		sessions := map[string]*session{}
		recover := func() {
			if _, err := applyJournalRecord(sessions, rec); err != nil {
				t.Fatal(err)
			}
		}
		recover()
		if got := sessions["phone"].replies[rep.Seq]; !bytes.Equal(got, enc) {
			t.Fatalf("status %d: recovered reply %q, want %q", rep.Status, got, enc)
		}
		if n := testing.AllocsPerRun(100, recover); n != 0 {
			t.Errorf("status %d: recovering an exec record allocates %v objects, want 0", rep.Status, n)
		}
	}
}
