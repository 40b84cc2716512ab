package qrpc

import (
	"fmt"
	"sync"

	"rover/internal/auth"
	"rover/internal/stable"
	"rover/internal/vtime"
	"rover/internal/wire"
)

// Handler executes one service request at the server. Handlers run outside
// engine locks and may call back into the server (e.g. SendCallback).
type Handler func(clientID string, req Request) ([]byte, error)

// ServerConfig configures a server engine.
type ServerConfig struct {
	// ServerID names this server in Welcome frames and logs.
	ServerID string
	// Auth, when non-nil, makes the server verify Hello proofs and reject
	// unauthenticated sessions.
	Auth *auth.Registry
	// Workers selects the handler execution model:
	//
	//   - 0 (the default): inline. Handlers run synchronously on the
	//     goroutine that delivered the frame, in arrival order. This is
	//     required when the engine is driven by a single-threaded scheduler
	//     (the discrete-event simulator's virtual time) and is what
	//     synchronous tests expect.
	//   - n > 0: a bounded pool of n workers executes handlers. Requests
	//     from one session run serially in arrival order (per-session FIFO);
	//     different sessions run in parallel, and each worker coalesces the
	//     replies of a drained run into one FrameBatch.
	//
	// Pooled servers should be Close()d to stop the workers; Quiesce waits
	// for dispatched requests to finish (connectionless transports use it
	// before harvesting replies).
	Workers int
	// Journals, when non-empty, is the server's durable session journal:
	// each executed request's reply is write-ahead-logged here before it is
	// released, and NewServer replays the journal so exactly-once execution
	// survives server crashes and restarts — a redelivered request after a
	// restart is answered from the recovered reply cache instead of
	// re-running its handler. Journal appends ride the stable log's group
	// commit, so concurrent workers amortize the durability fsync. If the
	// journal fails (stable.ErrPoisoned) or cannot be replayed, the server
	// refuses further executes rather than continue without durability; see
	// JournalError.
	//
	// The journal is sharded across the N independent stable logs given,
	// keyed by session hash, so each shard elects its own group-commit
	// fsync leader and up to N fsyncs proceed in parallel instead of every
	// worker convoying behind one (see the package comment in journal.go).
	// All shard logs are replayed and merged at construction; a session
	// recovered outside its home shard (the shard count changed) is
	// resharded once, durably, before the server is reachable. The caller
	// owns the logs and closes them after Close. Shard counts may grow
	// between incarnations but must never shrink — records in dropped logs
	// would be silently unread (rover.NewServer enforces this for its
	// on-disk shard files).
	Journals []stable.Log
	// JournalCompactEvery bounds each journal shard: once more than this
	// many live records accumulate in a shard, a background compaction
	// snapshots that shard's session state into one record and removes the
	// records it supersedes. Zero selects the default (1024).
	JournalCompactEvery int
	// MaxSessions is the admission-control high-water mark: when positive,
	// a Hello from a clientID the server has no session for is refused with
	// a FrameBusy once MaxSessions sessions exist. Established sessions are
	// always re-admitted — refusing them would strand their queued work —
	// so the mark bounds growth, not reconnects; size it with headroom.
	// ServerStats.SessionsRefused counts refusals. Zero disables admission
	// control.
	MaxSessions int
	// SessionBudgetBytes bounds the approximate bytes of executed-but-
	// unacknowledged reply payloads one session may hold. A session at its
	// budget has NEW requests dropped (counted in ServerStats.BudgetRefused)
	// until acks or a Hello LowSeq release cached replies; the client's
	// redelivery machinery retries them later, so the budget is
	// backpressure, not loss. Cached replies are never evicted by the
	// budget — dropping one would re-execute its redelivered request and
	// break at-most-once. Zero means unbounded.
	SessionBudgetBytes int
	// ReplyCacheBytes bounds the server-global cache of encoded replies
	// that lets redelivery replays and replication exec-streaming reuse the
	// encoding produced at execution time instead of re-marshaling (an LRU;
	// eviction only costs a re-marshal on the next replay). Zero selects
	// the default (8 MiB); negative disables the cache.
	ReplyCacheBytes int
}

// session is the per-client redelivery state. It lives across transport
// connections (and server-side, across client crashes): the reply cache is
// what makes redelivered requests idempotent.
type session struct {
	clientID  string
	replies   map[uint64]*Reply // executed but unacknowledged
	executing map[uint64]bool   // in handler right now
	// acked records individually acknowledged sequence numbers at or above
	// lowSeq. A plain high-watermark is NOT sound here: replies complete
	// out of order (priorities, retransmission on lossy links), and
	// dropping every redelivery at or below the highest acked seq would
	// starve still-pending lower sequence numbers forever. What is sound is
	// folding the *contiguous* acked prefix into lowSeq (foldAcked), which
	// keeps the map at the size of the out-of-order window; a gap the
	// client never fills (it does not reuse a seq after a dirty append)
	// stops the fold until the next Hello's LowSeq steps over it.
	acked   map[uint64]bool
	maxExec uint64
	// lowSeq is the floor below which every request is complete on the
	// client: the highest LowSeq a Hello advertised, advanced over acked
	// seqs by foldAcked.
	lowSeq uint64
	sender Sender // most recent transport, for callbacks
	// replyBytes approximates the payload bytes held in replies (see
	// replyApproxSize); ServerConfig.SessionBudgetBytes bounds it.
	replyBytes int
	// queue holds the session's dispatched requests while the worker pool
	// has them; guarded by the pool's mutex, unused in inline mode.
	queue keyQueue
}

// foldAcked moves the contiguous run of acknowledged seqs starting at
// lowSeq (at 1 for a session no Hello has floored yet) out of the acked map
// and into lowSeq. A seq is dropped on redelivery whether it is acked or
// below lowSeq, so the fold changes what is stored, not what is answered.
func (sess *session) foldAcked() {
	for next := max(sess.lowSeq, 1); sess.acked[next]; next++ {
		delete(sess.acked, next)
		sess.lowSeq = next + 1
	}
}

// replyApproxSize is the budget charge for one cached reply: its payload
// bytes plus a small fixed overhead. Computed from the decoded Reply (not
// its encoding) so the charge can be reversed at ack/prune time without
// retaining the encoding.
func replyApproxSize(rep *Reply) int {
	return 16 + len(rep.Result) + len(rep.ErrMsg)
}

// conn is per-transport state: which client the transport authenticated
// as, and which optional capabilities its Hello advertised.
type conn struct {
	clientID string
	authed   bool
	caps     uint64
}

// Server is the server-side QRPC engine: it dispatches requests to
// registered service handlers with at-most-once execution semantics.
type Server struct {
	mu       sync.Mutex
	cfg      ServerConfig
	handlers map[string]service
	sessions map[string]*session
	conns    map[Sender]*conn
	stats    ServerStats
	pool     *workerPool // nil in inline mode

	// onExecuted, when set (SetOnExecuted), observes every execution after
	// its reply is recorded in the session cache (and journaled), with the
	// reply's wire encoding so observers need not re-marshal. The
	// replication layer streams these to the peer so a failed-over client's
	// redeliveries are answered from cache there too. Runs outside mu.
	onExecuted func(clientID string, req Request, rep *Reply, enc []byte)

	// replyCache holds encoded replies for the replay path (under mu; nil
	// when disabled). See replycache.go.
	replyCache *replyCache

	// Journal state (see journal.go): journaled is set at construction and
	// never changes; the shards slice is read and replaced under mu —
	// GrowJournalShards may extend it online (existing *journalShard values
	// are never replaced, only appended after). Each shard's gate orders its
	// appends against its compaction. journalErr is sticky and server-wide.
	journaled  bool
	shards     []*journalShard
	growing    bool  // under mu: one online shard growth at a time
	journalErr error // sticky (under mu): recovery or append failure
	compactWG  sync.WaitGroup
}

// NewServer builds a server engine. When cfg.Journals is set, every journal
// shard is replayed and merged to rebuild per-session exactly-once state; if
// replay fails, the server still constructs but refuses to execute requests
// (JournalError reports why) — a half-recovered reply cache must never
// execute.
func NewServer(cfg ServerConfig) *Server {
	s := &Server{
		cfg:      cfg,
		handlers: make(map[string]service),
		sessions: make(map[string]*session),
		conns:    make(map[Sender]*conn),
	}
	s.replyCache = newReplyCache(cfg.ReplyCacheBytes)
	if cfg.Workers > 0 {
		s.pool = newWorkerPool(s, cfg.Workers)
	}
	for i, log := range cfg.Journals {
		bl, _ := log.(stable.BatchLog)
		s.shards = append(s.shards, &journalShard{idx: i, log: log, batch: bl})
	}
	s.journaled = len(s.shards) > 0
	if s.hasJournal() {
		if err := s.recoverJournal(); err != nil {
			s.journalErr = fmt.Errorf("qrpc: journal recovery: %w", err)
		}
	}
	return s
}

// service is one registered handler. The name is kept beside it so a
// request's Service can be the table's own string rather than one built from
// every frame that names it.
type service struct {
	name string
	h    Handler
}

// Register installs a service handler.
func (s *Server) Register(name string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[name] = service{name: name, h: h}
}

// OnConnect registers a transport. Nothing is sent until its Hello.
func (s *Server) OnConnect(from Sender, now vtime.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conns[from] = &conn{}
}

// OnDisconnect forgets a transport. Session state (the reply cache)
// survives; only the live connection is dropped.
func (s *Server) OnDisconnect(from Sender, now vtime.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cn := s.conns[from]
	delete(s.conns, from)
	if cn != nil && cn.clientID != "" {
		if sess := s.sessions[cn.clientID]; sess != nil && sess.sender == from {
			sess.sender = nil
		}
	}
}

// OnFrame processes one frame from a transport. A batch frame's sub-frames
// are processed in order, and every synchronous response they provoke
// (Welcome, cached replays, pongs, inline replies) is coalesced back into a
// single frame toward the sender.
func (s *Server) OnFrame(from Sender, f wire.Frame, now vtime.Time) {
	var out []wire.Frame
	if f.Type == wire.FrameBatchZ {
		// Drop corrupt compressed batches; the client redelivers.
		zf, err := wire.InflateBatchFrame(f)
		if err != nil {
			return
		}
		f = zf
	}
	if f.Type == wire.FrameBatch {
		var room [16]wire.Frame // a pump cycle's batch decodes on the stack
		subs, err := wire.AppendUnbatched(room[:0], f.Payload)
		if err != nil {
			return
		}
		for _, sf := range subs {
			s.handleFrame(from, sf, now, &out)
		}
	} else {
		s.handleFrame(from, f, now, &out)
	}
	s.sendCoalesced(from, out)
}

// handleFrame processes one (non-batch) frame, appending any synchronous
// response frames to out rather than sending them directly.
func (s *Server) handleFrame(from Sender, f wire.Frame, now vtime.Time, out *[]wire.Frame) {
	switch f.Type {
	case wire.FrameHello:
		s.onHello(from, f.Payload, out)
	case wire.FrameRequest:
		s.onRequest(from, f.Payload, now, out)
	case wire.FrameAck:
		s.onAck(from, f.Payload)
	case wire.FramePing:
		*out = append(*out, wire.Frame{Type: wire.FramePong})
	}
}

// sendCoalesced delivers the collected response frames to a sender:
// nothing, the lone frame, or one batch for several — compressed when the
// connection's Hello advertised the compressed-batch capability (a single
// frame may also compress then: a large import reply is exactly the case
// the capability exists for).
func (s *Server) sendCoalesced(to Sender, out []wire.Frame) {
	if len(out) == 0 {
		return
	}
	s.mu.Lock()
	cn := s.conns[to]
	zOK := cn != nil && cn.caps&CapCompressedBatch != 0
	s.mu.Unlock()
	f := wire.CoalesceFrames(out, zOK)
	if !to.SendFrame(f) {
		return
	}
	if len(out) > 1 || f.Type == wire.FrameBatchZ {
		s.mu.Lock()
		if len(out) > 1 {
			s.stats.BatchesSent++
		}
		if f.Type == wire.FrameBatchZ {
			s.stats.ZBatchesSent++
		}
		s.mu.Unlock()
	}
}

func (s *Server) onHello(from Sender, payload []byte, out *[]wire.Frame) {
	var h Hello
	if err := wire.Unmarshal(payload, &h); err != nil {
		return
	}
	s.mu.Lock()
	cn := s.conns[from]
	if cn == nil {
		cn = &conn{}
		s.conns[from] = cn
	}
	if s.cfg.Auth != nil {
		if err := s.cfg.Auth.Verify(h.ClientID, h.Nonce, h.Proof); err != nil {
			s.stats.AuthFailures++
			s.mu.Unlock()
			*out = append(*out, wire.Frame{Type: wire.FrameAuthReject})
			return
		}
	}
	if s.cfg.MaxSessions > 0 && s.sessions[h.ClientID] == nil && len(s.sessions) >= s.cfg.MaxSessions {
		// Admission control: past the high-water mark, NEW sessions are
		// refused (a FrameBusy tells the client to rotate to a backup or
		// retry later) while established ones always re-admit — their
		// queued work must be able to drain. The connection stays unauthed,
		// so any requests the client sends anyway are dropped, not executed.
		s.stats.SessionsRefused++
		s.mu.Unlock()
		*out = append(*out, wire.Frame{Type: wire.FrameBusy})
		return
	}
	cn.clientID = h.ClientID
	cn.authed = true
	// Record the intersection of the client's capabilities and ours.
	// Clients that advertised nothing get nothing — including no Caps
	// field in the Welcome, which pre-capability decoders would reject.
	cn.caps = h.Caps & CapCompressedBatch
	sess := s.sessionLocked(h.ClientID)
	sess.sender = from
	pruned := false
	if h.LowSeq > sess.lowSeq {
		pruned = true
		sess.lowSeq = h.LowSeq
		// Everything below LowSeq has been consumed by the client; cached
		// replies and ack records there are dead weight.
		for seq := range sess.replies {
			if seq < sess.lowSeq {
				sess.replyBytes -= replyApproxSize(sess.replies[seq])
				delete(sess.replies, seq)
				s.replyCache.delete(h.ClientID, seq)
			}
		}
		for seq := range sess.acked {
			if seq < sess.lowSeq {
				delete(sess.acked, seq)
			}
		}
		sess.foldAcked()
	}
	w := &Welcome{ServerID: s.cfg.ServerID, HighSeq: sess.maxExec, Caps: cn.caps}
	s.mu.Unlock()
	if pruned {
		// Journal the new floor so recovery discards the same dead weight.
		// Unlike exec records this is apply-then-log, and only staged: a
		// lost prune record only means the recovered acked map is larger
		// until the client's next Hello advertises the floor again.
		s.journalSessionRecord(h.ClientID, true, func() []byte { return encodePruneRecord(h.ClientID, h.LowSeq) })
	}
	*out = append(*out, wire.Frame{Type: wire.FrameWelcome, Payload: wire.Marshal(w)})
}

// journalSessionRecord appends one session record (exec-install, ack or
// prune) to the session's home shard under that shard's gate read side and
// tracks its id for compaction. It is a no-op when no journal is configured
// or the journal is poisoned; an append failure poisons the journal. The
// in-memory state change these records describe proceeds regardless —
// losing one costs recovered-state memory, never correctness — so a lazy
// record (ack, prune) is only staged when the shard can stage: it becomes
// durable with the shard's next exec commit, snapshot or Close instead of
// holding the connection's read loop for a flush of its own.
func (s *Server) journalSessionRecord(clientID string, lazy bool, encode func() []byte) {
	if !s.hasJournal() {
		return
	}
	sh := s.lockShardFor(clientID)
	defer sh.gate.RUnlock()
	s.mu.Lock()
	poisoned := s.journalErr != nil
	s.mu.Unlock()
	if poisoned {
		return
	}
	var id uint64
	var err error
	if lazy && sh.batch != nil {
		id, err = sh.batch.AppendNoSync(encode())
	} else {
		id, err = sh.log.Append(encode())
	}
	s.mu.Lock()
	if err != nil {
		s.poisonJournalLocked(err)
		s.mu.Unlock()
		return
	}
	sh.ids = append(sh.ids, id)
	s.stats.JournalRecords++
	compact := s.shouldCompactLocked(sh)
	s.mu.Unlock()
	if compact {
		go s.compactJournal(sh.idx)
	}
}

func (s *Server) sessionLocked(clientID string) *session {
	sess := s.sessions[clientID]
	if sess == nil {
		sess = &session{
			clientID:  clientID,
			replies:   make(map[uint64]*Reply),
			executing: make(map[uint64]bool),
			acked:     make(map[uint64]bool),
		}
		s.sessions[clientID] = sess
	}
	return sess
}

// onRequest takes in one request. The payload is the receiver's
// (wire.ReadFrame), so it is decoded on the stack, Args aliases it, and the
// service name is looked up in place.
func (s *Server) onRequest(from Sender, payload []byte, now vtime.Time, out *[]wire.Frame) {
	var req Request
	r := wire.OwnedReader(payload)
	name := req.unmarshalNamed(&r)
	if r.Finish() != nil {
		return
	}
	s.mu.Lock()
	cn := s.conns[from]
	if cn == nil || !cn.authed {
		// Requests before a (valid) Hello are dropped; the client will
		// redeliver after it completes a handshake.
		s.stats.Dropped++
		s.mu.Unlock()
		return
	}
	sess := s.sessionLocked(cn.clientID)
	sess.sender = from
	s.stats.Requests++
	if cached, ok := sess.replies[req.Seq]; ok {
		// Redelivered request already executed: replay the reply, reusing
		// the encoding cached at execution time when it is still around (a
		// miss — evicted, or recovered from the journal — re-marshals and
		// repopulates the cache).
		s.stats.ReplaysServed++
		enc, hit := s.replyCache.get(cn.clientID, req.Seq)
		if hit {
			s.stats.ReplyCacheHits++
		} else {
			s.stats.ReplyCacheMisses++
			enc = wire.Marshal(cached)
			s.stats.ReplyCacheEvictions += s.replyCache.put(cn.clientID, req.Seq, enc)
		}
		s.mu.Unlock()
		*out = append(*out, wire.Frame{Type: wire.FrameReply, Payload: enc})
		return
	}
	if sess.acked[req.Seq] || req.Seq < sess.lowSeq || sess.executing[req.Seq] {
		// Acked (the client has the reply), already complete per the
		// client's own LowSeq, or currently executing: drop.
		s.stats.Dropped++
		s.mu.Unlock()
		return
	}
	if s.journalErr != nil {
		// The session journal is poisoned (or never recovered): executing
		// would release a reply whose durability cannot be guaranteed,
		// reopening the double-execution window. Cached replays (above)
		// are still served; new work waits for a repaired incarnation.
		s.stats.JournalRefused++
		s.mu.Unlock()
		return
	}
	if s.cfg.SessionBudgetBytes > 0 && sess.replyBytes >= s.cfg.SessionBudgetBytes {
		// The session holds its budget's worth of unacknowledged reply
		// payloads. Dropping the NEW request (never a cached reply — that
		// would break at-most-once) is safe backpressure: the client
		// redelivers it after acks or a Hello LowSeq free the budget.
		s.stats.BudgetRefused++
		s.mu.Unlock()
		return
	}
	svc, ok := s.handlers[string(name)]
	req.Service = svc.name
	if !ok {
		req.Service = string(name)
	}
	handler := svc.h
	// Marking the request executing at DISPATCH time — before the handler
	// runs, whether inline or queued to the pool — is what keeps redelivered
	// duplicates from executing twice while the first copy is in flight.
	sess.executing[req.Seq] = true
	clientID := cn.clientID
	pool := s.pool
	s.mu.Unlock()

	if pool != nil {
		pool.submit(poolTask{from: from, clientID: clientID, sess: sess, handler: handler, req: req})
		return
	}
	// Inline mode: execute here (outside the lock; handlers may be slow and
	// may re-enter the server, e.g. SendCallback) and coalesce the reply
	// with the rest of the batch's output. A nil reply means the journal
	// refused the execute; nothing may be released.
	if rep, enc := s.execute(sess, clientID, handler, req); rep != nil {
		*out = append(*out, wire.Frame{Type: wire.FrameReply, Payload: enc})
	}
}

// execute runs a dispatched request's handler outside engine locks, records
// the reply in the session's at-most-once cache, and returns it together
// with its wire encoding (marshaled exactly once here; the journal record,
// the reply frame, the encoded-reply cache, and the onExecuted hook all
// reuse it). When the server has a journal, the reply is write-ahead-logged
// to the session's home shard before it is recorded or returned — no
// transport can observe a reply the journal does not hold. A nil return
// means the journal refused the execute (poisoned mid-dispatch or the exec
// append failed): the handler may or may not have run, nothing is released,
// and the client redelivers to a future, repaired incarnation whose
// recovery decides from the journal alone.
func (s *Server) execute(sess *session, clientID string, handler Handler, req Request) (*Reply, []byte) {
	if s.hasJournal() && s.JournalError() != nil {
		// Poisoned between dispatch and execution (e.g. a queued pool task
		// behind the append that failed): refuse before running the handler.
		s.mu.Lock()
		delete(sess.executing, req.Seq)
		s.stats.JournalRefused++
		s.mu.Unlock()
		return nil, nil
	}
	rep := runHandler(clientID, handler, req)
	enc := wire.Marshal(rep)

	journaled := false
	var jid uint64
	var sh *journalShard
	if s.hasJournal() {
		// The durability write, to the session's home shard. Concurrent
		// executes coalesce onto that shard's group-commit fsync — and
		// different shards' leaders fsync in parallel — so this is
		// amortized, not one sync per request. The gate's read side is held
		// across append AND the bookkeeping below — see journalShard.gate.
		sh = s.lockShardFor(clientID)
		defer sh.gate.RUnlock()
		id, err := sh.log.Append(encodeExecRecordEnc(clientID, enc))
		if err != nil {
			s.mu.Lock()
			s.poisonJournalLocked(err)
			delete(sess.executing, req.Seq)
			s.stats.JournalRefused++
			s.mu.Unlock()
			return nil, nil
		}
		jid, journaled = id, true
	}

	s.mu.Lock()
	delete(sess.executing, req.Seq)
	sess.replies[req.Seq] = rep
	sess.replyBytes += replyApproxSize(rep)
	if req.Seq > sess.maxExec {
		sess.maxExec = req.Seq
	}
	s.stats.Executed++
	s.stats.ReplyCacheEvictions += s.replyCache.put(clientID, req.Seq, enc)
	var compact bool
	if journaled {
		sh.ids = append(sh.ids, jid)
		s.stats.JournalRecords++
		compact = s.shouldCompactLocked(sh)
	}
	hook := s.onExecuted
	s.mu.Unlock()
	if compact {
		go s.compactJournal(sh.idx)
	}
	if hook != nil {
		hook(clientID, req, rep, enc)
	}
	return rep, enc
}

// runHandler executes one request's handler and builds its reply. Handler
// panics are not recovered here, matching execute's historical behavior.
func runHandler(clientID string, handler Handler, req Request) *Reply {
	rep := &Reply{Seq: req.Seq}
	if handler == nil {
		rep.Status = StatusNoService
		rep.ErrMsg = req.Service
	} else if result, err := handler(clientID, req); err != nil {
		rep.Status = StatusAppError
		rep.ErrMsg = err.Error()
	} else {
		rep.Status = StatusOK
		rep.Result = result
	}
	return rep
}

// stagedExec is one executed task of a batched chunk: the handler has run
// and its exec record is written to the home shard, but nothing is durable
// or published until the chunk's single commit lands.
type stagedExec struct {
	task poolTask
	rep  *Reply
	enc  []byte
	jid  uint64
}

// executeChunkBatched runs one session's task run with pipelined group
// commit: handlers execute back-to-back in order, each exec record staged
// on the session's home shard WITHOUT waiting for durability, then one
// commit covers the whole run before any reply is published. Per-session
// ordering is untouched — what is amortized is the fsync (a run of K tasks
// joins one group commit instead of K) and the server lock (one bookkeeping
// pass for the run). At-most-once holds throughout: until the commit
// returns, the tasks' dispatch marks (sess.executing) stay set, so a
// concurrent redelivery is dropped rather than answered from a reply whose
// journal record is not yet durable — WAL-before-release is never weakened.
//
// ok=false means the chunk cannot take this path (no journal, or the
// shard's log cannot stage appends — e.g. a fault-injection wrapper); the
// caller falls back to per-task execute(). ok=true with an empty result
// means the journal refused the run (poisoned before or during it): the
// handlers may or may not have run, nothing is released, and the clients
// redeliver to a repaired incarnation.
func (s *Server) executeChunkBatched(tasks []poolTask) (staged []stagedExec, ok bool) {
	if len(tasks) == 0 {
		return nil, true
	}
	if !s.hasJournal() {
		return nil, false
	}
	// The gate's read side is held across every staged append AND the
	// bookkeeping below, exactly like execute's single-append window, so
	// compaction's write side still observes the full invariant.
	sh := s.lockShardFor(tasks[0].clientID)
	defer sh.gate.RUnlock()
	if sh.batch == nil {
		return nil, false
	}
	refuse := func(err error) {
		s.mu.Lock()
		if err != nil {
			s.poisonJournalLocked(err)
		}
		for i := range tasks {
			delete(tasks[i].sess.executing, tasks[i].req.Seq)
		}
		s.stats.JournalRefused += int64(len(tasks))
		s.mu.Unlock()
	}
	if s.JournalError() != nil {
		refuse(nil)
		return nil, true
	}
	staged = make([]stagedExec, 0, len(tasks))
	for i := range tasks {
		t := &tasks[i]
		rep := runHandler(t.clientID, t.handler, t.req)
		enc := wire.Marshal(rep)
		jid, err := sh.batch.AppendNoSync(encodeExecRecordEnc(t.clientID, enc))
		if err != nil {
			refuse(err)
			return nil, true
		}
		staged = append(staged, stagedExec{task: *t, rep: rep, enc: enc, jid: jid})
	}
	if err := sh.batch.Commit(); err != nil {
		refuse(err)
		return nil, true
	}
	s.mu.Lock()
	for i := range staged {
		st := &staged[i]
		sess := st.task.sess
		delete(sess.executing, st.task.req.Seq)
		sess.replies[st.task.req.Seq] = st.rep
		sess.replyBytes += replyApproxSize(st.rep)
		if st.task.req.Seq > sess.maxExec {
			sess.maxExec = st.task.req.Seq
		}
		s.stats.Executed++
		s.stats.ReplyCacheEvictions += s.replyCache.put(st.task.clientID, st.task.req.Seq, st.enc)
		sh.ids = append(sh.ids, st.jid)
		s.stats.JournalRecords++
	}
	compact := s.shouldCompactLocked(sh)
	hook := s.onExecuted
	s.mu.Unlock()
	if compact {
		go s.compactJournal(sh.idx)
	}
	if hook != nil {
		for i := range staged {
			hook(staged[i].task.clientID, staged[i].task.req, staged[i].rep, staged[i].enc)
		}
	}
	return staged, true
}

// SetOnExecuted installs the execution observer (see Server.onExecuted).
// Install it before the server sees traffic; pass nil to remove it.
func (s *Server) SetOnExecuted(fn func(clientID string, req Request, rep *Reply, enc []byte)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onExecuted = fn
}

// InstallReply installs a reply executed by a replica peer into clientID's
// session cache, so a client that fails over here has its redelivered
// requests answered from cache instead of re-executed. Stale installs —
// already acked, below the session's LowSeq, already cached, or currently
// executing locally — are ignored. Installed replies are journaled
// (apply-then-log) with the same exec record the local path writes, so
// recovery rebuilds them too. It reports whether the reply was installed.
func (s *Server) InstallReply(clientID string, rep *Reply) bool {
	if rep == nil {
		return false
	}
	s.mu.Lock()
	sess := s.sessionLocked(clientID)
	if sess.acked[rep.Seq] || rep.Seq < sess.lowSeq || sess.executing[rep.Seq] {
		s.mu.Unlock()
		return false
	}
	if _, ok := sess.replies[rep.Seq]; ok {
		s.mu.Unlock()
		return false
	}
	cp := *rep
	enc := wire.Marshal(&cp)
	sess.replies[rep.Seq] = &cp
	sess.replyBytes += replyApproxSize(&cp)
	if rep.Seq > sess.maxExec {
		sess.maxExec = rep.Seq
	}
	s.stats.ReplicatedReplies++
	s.stats.ReplyCacheEvictions += s.replyCache.put(clientID, rep.Seq, enc)
	s.mu.Unlock()
	s.journalSessionRecord(clientID, false, func() []byte { return encodeExecRecordEnc(clientID, enc) })
	return true
}

func (s *Server) onAck(from Sender, payload []byte) {
	// An Ack is its seqs, and it names one or two: they are read into a
	// stack array, not a slice of their own.
	var room [16]uint64
	r := wire.OwnedReader(payload)
	ack := Ack{Seqs: r.AppendUvarintSlice(room[:0])}
	if r.Finish() != nil {
		return
	}
	s.mu.Lock()
	cn := s.conns[from]
	if cn == nil || !cn.authed {
		s.mu.Unlock()
		return
	}
	clientID := cn.clientID
	sess := s.sessionLocked(clientID)
	for _, seq := range ack.Seqs {
		if rep, ok := sess.replies[seq]; ok {
			sess.replyBytes -= replyApproxSize(rep)
			delete(sess.replies, seq)
		}
		s.replyCache.delete(clientID, seq)
		if seq >= sess.lowSeq {
			sess.acked[seq] = true
		}
		s.stats.AcksReceived++
	}
	sess.foldAcked()
	s.mu.Unlock()
	// Journal the acknowledgment so recovery drops these reply payloads
	// too. Apply-then-log and only staged, like prune records: losing an ack
	// record means a fatter recovered cache, never a correctness violation
	// (the client already consumed the replies and will not redeliver).
	s.journalSessionRecord(clientID, true, func() []byte { return encodeAckRecord(clientID, ack.Seqs) })
}

// SendCallback pushes a notification to a client's current transport. It
// reports false when the client has no live connection (the notification
// is dropped; callbacks are an optimization, not a correctness mechanism —
// disconnected clients revalidate on import).
func (s *Server) SendCallback(clientID, topic string, payload []byte) bool {
	s.mu.Lock()
	sess := s.sessions[clientID]
	var snd Sender
	if sess != nil {
		snd = sess.sender
	}
	s.mu.Unlock()
	if snd == nil {
		return false
	}
	cb := &Callback{Topic: topic, Payload: payload}
	if snd.SendFrame(wire.Frame{Type: wire.FrameCallback, Payload: wire.Marshal(cb)}) {
		s.mu.Lock()
		s.stats.CallbacksSent++
		s.mu.Unlock()
		return true
	}
	return false
}

// BroadcastCallback sends a notification to every connected client except
// the named one (used to propagate object invalidations to other caches).
func (s *Server) BroadcastCallback(exceptClientID, topic string, payload []byte) int {
	s.mu.Lock()
	var targets []Sender
	for id, sess := range s.sessions {
		if id != exceptClientID && sess.sender != nil {
			targets = append(targets, sess.sender)
		}
	}
	s.mu.Unlock()
	cb := &Callback{Topic: topic, Payload: payload}
	frame := wire.Frame{Type: wire.FrameCallback, Payload: wire.Marshal(cb)}
	n := 0
	for _, snd := range targets {
		if snd.SendFrame(frame) {
			n++
		}
	}
	s.mu.Lock()
	s.stats.CallbacksSent += int64(n)
	s.mu.Unlock()
	return n
}

// Quiesce blocks until every request dispatched to the worker pool has
// executed and its reply has been handed to a transport. Inline servers
// return immediately. Connectionless transports (mail) use it to harvest a
// poll cycle's replies; tests use it to make pooled execution observable.
func (s *Server) Quiesce() {
	if s.pool != nil {
		s.pool.quiesce()
	}
}

// Close stops the worker pool, discarding requests not yet executing (their
// clients redeliver to the next server incarnation; at-most-once state is
// per-session and unaffected), and waits out any background journal
// compaction so the caller may close the journal log afterwards. Inline
// servers have nothing to stop. Close is idempotent.
func (s *Server) Close() error {
	if s.pool != nil {
		s.pool.close()
	}
	s.compactWG.Wait()
	return nil
}

// Stats returns a snapshot of the engine counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// SessionInfo describes one client session for inspection tools.
type SessionInfo struct {
	ClientID      string
	CachedReplies int
	MaxExecuted   uint64
	// AckedPending counts acknowledged seqs at or above LowSeq: acks that
	// arrived out of order and wait for the seqs below them.
	AckedPending int
	// LowSeq is the session's floor — the highest a Hello has advertised,
	// advanced over contiguously acknowledged seqs (or what recovery
	// replayed): all idempotency state below it has been pruned.
	LowSeq    uint64
	Connected bool
}

// SessionCount reports how many client sessions the server holds (the
// quantity ServerConfig.MaxSessions bounds).
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Sessions lists the server's client sessions.
func (s *Server) Sessions() []SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SessionInfo, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, SessionInfo{
			ClientID:      sess.clientID,
			CachedReplies: len(sess.replies),
			MaxExecuted:   sess.maxExec,
			AckedPending:  len(sess.acked),
			LowSeq:        sess.lowSeq,
			Connected:     sess.sender != nil,
		})
	}
	return out
}

// String describes the server for logs.
func (s *Server) String() string {
	return fmt.Sprintf("qrpc.Server(%s)", s.cfg.ServerID)
}
