package qrpc

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rover/internal/faults"
	"rover/internal/stable"
	"rover/internal/wire"
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
	if journal.Len() > 2*threshold+1 {
		t.Fatalf("journal holds %d live records after compaction, want ≤ %d", journal.Len(), 2*threshold+1)
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

// poisonLog is a stable.BatchLog stub whose writes — appends and removes,
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

func (p *poisonLog) Remove(id uint64) error {
	if err := p.charge(); err != nil {
		return err
	}
	return p.MemLog.Remove(id)
}

func (p *poisonLog) RemoveNoSync(id uint64) error {
	if err := p.charge(); err != nil {
		return err
	}
	return p.MemLog.RemoveNoSync(id)
}

func (p *poisonLog) RemoveBatch(ids []uint64) error {
	if err := p.charge(); err != nil {
		return err
	}
	return p.MemLog.RemoveBatch(ids)
}

// TestJournaledServerRefusesWhenPoisoned is the durability contract: once
// the journal cannot accept records, the server refuses to execute new work
// (instead of silently continuing without durability), keeps serving cached
// replays, and surfaces the typed poisoned error.
func TestJournaledServerRefusesWhenPoisoned(t *testing.T) {
	// Budget 2: the Hello (LowSeq 1 > initial 0) journals a prune record,
	// then seq 1's exec record; seq 2's exec append is the one that fails.
	jl := &poisonLog{MemLog: stable.NewMemLog(stable.Options{}), budget: 2}
	up := true
	snd := &harnessSender{up: &up}
	execs := 0

	srv := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{jl}})
	srv.Register("echo", func(string, Request) ([]byte, error) { execs++; return []byte("ok"), nil })
	srv.OnConnect(snd, 0)
	srv.OnFrame(snd, helloFrame("c1", 1), 0)
	srv.OnFrame(snd, requestFrame(1, "echo", nil), 0) // journaled fine
	if reps := drainReplies(t, snd); len(reps) != 1 {
		t.Fatalf("healthy request got %d replies", len(reps))
	}

	// Budget exhausted: the exec append fails, the reply must NOT be
	// released, and the journal is poisoned.
	srv.OnFrame(snd, requestFrame(2, "echo", nil), 0)
	if reps := drainReplies(t, snd); len(reps) != 0 {
		t.Fatalf("reply released without durability")
	}
	if execs != 2 {
		t.Fatalf("execs = %d (handler for seq 2 should have run once before the failed append)", execs)
	}
	if err := srv.JournalError(); !errors.Is(err, stable.ErrPoisoned) {
		t.Fatalf("JournalError = %v, want ErrPoisoned", err)
	}

	// Further requests are refused before the handler runs.
	srv.OnFrame(snd, requestFrame(3, "echo", nil), 0)
	if execs != 2 {
		t.Fatalf("poisoned server ran a handler: execs = %d", execs)
	}
	if reps := drainReplies(t, snd); len(reps) != 0 {
		t.Fatal("poisoned server released a reply")
	}
	if got := srv.Stats().JournalRefused; got < 2 {
		t.Errorf("JournalRefused = %d, want ≥ 2", got)
	}

	// Cached replays still work: seq 1's reply was journaled and cached.
	srv.OnFrame(snd, requestFrame(1, "echo", nil), 0)
	if reps := drainReplies(t, snd); len(reps) != 1 || string(reps[0].Result) != "ok" {
		t.Fatalf("cached replay unavailable while poisoned: %+v", reps)
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

// TestJournalWithWorkerPool exercises the journal under the bounded worker
// pool: concurrent sessions execute in parallel, exec appends ride the same
// journal, and a rebuild recovers every released reply. Run with -race.
func TestJournalWithWorkerPool(t *testing.T) {
	journal := stable.NewMemLog(stable.Options{})
	srv := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{journal}, Workers: 4, JournalCompactEvery: 16})
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
	srv.Quiesce()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Executed < clients*perClient {
		if time.Now().After(deadline) {
			t.Fatalf("pool stalled: executed %d/%d", srv.Stats().Executed, clients*perClient)
		}
		time.Sleep(time.Millisecond)
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
// answered from cache with the handler having run exactly once.
func TestJournalDirtyAppendRecovers(t *testing.T) {
	mem := stable.NewMemLog(stable.Options{})
	jl := faults.WrapLog(mem, 42, faults.LogFaultRates{AppendDirty: 1})
	up := true
	snd := &harnessSender{up: &up}
	execs := 0
	handler := func(string, Request) ([]byte, error) { execs++; return []byte("v"), nil }

	srv1 := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{jl}})
	srv1.Register("echo", handler)
	srv1.OnConnect(snd, 0)
	// LowSeq 0 keeps the Hello from journaling a prune record, so the first
	// (dirty) append is exactly seq 1's exec record.
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
	srv2 := NewServer(ServerConfig{ServerID: "srv", Journals: []stable.Log{jl}})
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
}
