package qrpc

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"rover/internal/stable"
	"rover/internal/wire"
)

// Server session journal.
//
// The client side of QRPC survives crashes because every request lives in a
// stable operation log until its reply is consumed. The server side's
// exactly-once machinery — the per-session reply cache and acked table —
// was historically in-memory only: kill the server and every redelivered
// request re-executed. ServerConfig.Journals closes that hole with a
// write-ahead journal of session state:
//
//   - exec records ('E') persist an executed request's reply BEFORE the
//     reply is released to any transport, so a reply the client may have
//     observed is always recoverable;
//   - ack records ('K') persist which replies the client acknowledged, so
//     recovered state does not retain reply payloads forever;
//   - prune records ('P') persist the LowSeq floor a Hello advertised, so
//     recovery can discard idempotency state the client no longer needs;
//   - snapshot records ('S') are written by compaction: one record holding
//     the complete recovery state of every session the shard owns,
//     superseding (and allowing removal of) everything journaled in that
//     shard before it;
//   - migrate records ('M') are written only by recovery-time resharding:
//     the same session-list payload as a snapshot, but replayed as an
//     upsert of the listed sessions rather than a reset (see below).
//
// # Sharding
//
// The journal is a set of N independent stable logs ("shards",
// ServerConfig.Journals); a session's records always go to the shard its
// clientID hashes to (FNV-1a mod N), so the per-session replay order the
// recovery invariants depend on is preserved within one log. What sharding
// buys is parallel group commit: each shard's log (a stable.FileLog, over
// its own stable.SegmentFile) elects its own fsync leader, so with N shards
// up to N fsyncs overlap instead of every worker in the server convoying
// behind a single leader — the dominant cost at high session counts (see
// BENCH_pr7). N=1 is one journal with one leader.
//
// Replay applies each shard's records in append order into a per-shard
// bucket; a snapshot record resets that bucket to its contents and later
// records apply on top. That reset is sound because compaction captures the
// snapshot while holding the shard's gate exclusively: no append to that
// shard is in flight, so every live record's effect is already inside the
// captured state. The buckets are then merged into one session map —
// idempotently, so the same session recovered from two shards (possible
// only after the shard count changed between incarnations) folds together:
// lowSeq and maxExec take the max, acked seqs union, cached replies union
// minus anything acked or below the merged floor.
//
// # Resharding
//
// When recovery finds a session whose records live outside its home shard
// (the operator changed the shard count), it reshards once, before the
// server is reachable: first a migrate record with the merged state of
// every misplaced session is appended to that session's home shard — the
// durable copy in the right place — and only then is each shard that held a
// stale copy compacted (snapshot of its owned sessions, remove the old
// records). The order is what makes a crash at any point safe: until the
// home-shard migrate record is durable, no old copy is superseded or
// removed; after it, a stale bucket resetting to an owned-only snapshot
// cannot lose the session. Decreasing the shard count is NOT supported at
// this layer — records in dropped logs would simply never be opened — and
// the rover facade refuses a configuration whose on-disk shard files exceed
// the configured count.
//
// Journal appends ride the stable log's group commit (the leader-fsync
// waiter protocol in stable.SegmentFile), so within a shard N concurrent
// executes share ~one fsync instead of paying N — the durability write is
// amortized per shard and parallel across shards.

// journalShard is one bucket of the sharded session journal.
type journalShard struct {
	idx   int
	log   stable.Log
	batch stable.BatchLog // non-nil when log supports staged appends (pipelined group commit)

	// gate orders this shard's appends against its compaction snapshots:
	// appenders hold the read side across their append AND the Server.mu
	// bookkeeping that tracks the new record's id, so the write side
	// observes "every live record's effect is in sessions and its id is in
	// ids" — the invariant compaction relies on. Lock order: gate before
	// Server.mu; gates of different shards are never held together, with
	// one exception: GrowJournalShards holds every existing gate's write
	// side (acquired in shard-index order) while it re-homes sessions.
	gate       sync.RWMutex
	ids        []uint64 // under Server.mu: live record ids compaction may remove
	compacting bool     // under Server.mu: one compaction per shard at a time
}

// Journal record kinds (first byte of each record).
const (
	jrecExec     = byte('E')
	jrecAck      = byte('K')
	jrecPrune    = byte('P')
	jrecSnapshot = byte('S')
	jrecMigrate  = byte('M')
)

// defaultJournalCompactEvery is the per-shard live-record count that
// triggers a background snapshot+truncate when
// ServerConfig.JournalCompactEvery is 0.
const defaultJournalCompactEvery = 1024

// hasJournal reports whether the server journals session state. journaled
// is set once at construction (growth adds shards but can never take a
// journal-less server to a journaled one), so this needs no lock.
func (s *Server) hasJournal() bool { return s.journaled }

// journalShardIndex maps a clientID to its home shard under an n-shard
// journal (FNV-1a mod n). Every record for a session is appended to its
// home shard, so per-session replay order is total within one log.
func journalShardIndex(clientID string, n int) int {
	if n <= 1 {
		return 0
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(clientID); i++ {
		h ^= uint32(clientID[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

// shardIndexFor is journalShardIndex under the current shard count. It
// takes s.mu (the shard slice may be swapped by online growth); callers
// already holding mu use journalShardIndex(id, len(s.shards)) directly.
func (s *Server) shardIndexFor(clientID string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return journalShardIndex(clientID, len(s.shards))
}

func (s *Server) shardFor(clientID string) *journalShard {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shards[journalShardIndex(clientID, len(s.shards))]
}

// lockShardFor resolves clientID's home shard and returns it with its gate
// read-held, revalidating after acquisition: an online growth may re-home
// the session between resolution and lock, and an append through the stale
// gate would land in a shard whose growth-triggered compaction has already
// captured (and will remove) the session's records there.
func (s *Server) lockShardFor(clientID string) *journalShard {
	for {
		sh := s.shardFor(clientID)
		sh.gate.RLock()
		if s.shardFor(clientID) == sh {
			return sh
		}
		sh.gate.RUnlock()
	}
}

// ownedSessionsLocked returns the sessions whose home is shard idx — the
// set a compaction snapshot of that shard must capture. Callers hold s.mu
// (or run single-threaded at construction).
func (s *Server) ownedSessionsLocked(idx int) map[string]*session {
	if len(s.shards) <= 1 {
		return s.sessions
	}
	owned := make(map[string]*session)
	for id, sess := range s.sessions {
		if journalShardIndex(id, len(s.shards)) == idx {
			owned[id] = sess
		}
	}
	return owned
}

// encodeExecRecordEnc builds an exec record from a reply's existing
// encoding. wire.Marshal(rep) produces exactly the bytes
// rep.MarshalWire(&b) would append, so splicing the cached encoding in
// raw keeps the record format identical while skipping the re-marshal.
func encodeExecRecordEnc(clientID string, encReply []byte) []byte {
	var b wire.Buffer
	b.PutByte(jrecExec)
	b.PutString(clientID)
	b.PutRaw(encReply)
	return b.Bytes()
}

func encodeExecRecord(clientID string, rep *Reply) []byte {
	var b wire.Buffer
	b.PutByte(jrecExec)
	b.PutString(clientID)
	rep.MarshalWire(&b)
	return b.Bytes()
}

func encodeAckRecord(clientID string, seqs []uint64) []byte {
	var b wire.Buffer
	b.PutByte(jrecAck)
	b.PutString(clientID)
	b.PutUvarintSlice(seqs)
	return b.Bytes()
}

func encodePruneRecord(clientID string, lowSeq uint64) []byte {
	var b wire.Buffer
	b.PutByte(jrecPrune)
	b.PutString(clientID)
	b.PutUvarint(lowSeq)
	return b.Bytes()
}

// encodeSnapshotRecord serializes the complete recovery state of the given
// sessions (a shard's owned set; the whole map on an unsharded server).
// Callers hold s.mu (and, for compaction, the shard gate's write lock).
func encodeSnapshotRecord(sessions map[string]*session) []byte {
	var b wire.Buffer
	b.PutByte(jrecSnapshot)
	putSessionList(&b, sessions)
	return b.Bytes()
}

// encodeMigrateRecord carries the same session-list payload as a snapshot
// but replays as an upsert: recovery-time resharding uses it to place a
// misplaced session's merged state into its home shard without resetting
// the sessions already journaled there.
func encodeMigrateRecord(sessions map[string]*session) []byte {
	var b wire.Buffer
	b.PutByte(jrecMigrate)
	putSessionList(&b, sessions)
	return b.Bytes()
}

// putSessionList appends the session-list payload shared by snapshot and
// migrate records. Iteration is sorted so identical states produce
// identical bytes.
func putSessionList(b *wire.Buffer, sessions map[string]*session) {
	ids := make([]string, 0, len(sessions))
	for id := range sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	b.PutUvarint(uint64(len(ids)))
	for _, id := range ids {
		sess := sessions[id]
		b.PutString(sess.clientID)
		b.PutUvarint(sess.lowSeq)
		b.PutUvarint(sess.maxExec)
		seqs := make([]uint64, 0, len(sess.replies))
		for seq := range sess.replies {
			seqs = append(seqs, seq)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		b.PutUvarint(uint64(len(seqs)))
		for _, seq := range seqs {
			sess.replies[seq].MarshalWire(b)
		}
		acked := make([]uint64, 0, len(sess.acked))
		for seq := range sess.acked {
			acked = append(acked, seq)
		}
		sort.Slice(acked, func(i, j int) bool { return acked[i] < acked[j] })
		b.PutUvarintSlice(acked)
	}
}

// readSessionList decodes a snapshot/migrate payload.
func readSessionList(r *wire.Reader) (map[string]*session, error) {
	n := r.Len()
	sessions := make(map[string]*session, n)
	for i := 0; i < n; i++ {
		clientID := r.String()
		sess := &session{
			clientID:  clientID,
			replies:   make(map[uint64]*Reply),
			executing: make(map[uint64]bool),
			acked:     make(map[uint64]bool),
		}
		sess.lowSeq = r.Uvarint()
		sess.maxExec = r.Uvarint()
		rn := r.Len()
		for j := 0; j < rn; j++ {
			rep := &Reply{}
			if err := rep.UnmarshalWire(r); err != nil {
				return nil, fmt.Errorf("qrpc: corrupt snapshot reply: %w", err)
			}
			sess.replies[rep.Seq] = rep
		}
		for _, seq := range r.UvarintSlice() {
			sess.acked[seq] = true
		}
		if r.Err() != nil {
			return nil, fmt.Errorf("qrpc: corrupt snapshot record: %w", r.Err())
		}
		sessions[clientID] = sess
	}
	return sessions, nil
}

// recoverJournal rebuilds session state from the journal shards at
// construction. It runs before the server is reachable, so no locking is
// needed. Any decode failure aborts recovery — executing against a
// half-recovered reply cache could re-run requests whose replies were
// already released, so the caller poisons the server instead. (A torn tail
// in one shard never reaches here: stable.FileLog truncates it at open, so
// one shard's crash-torn write costs at most its own last record and never
// the sessions journaled in other shards.)
func (s *Server) recoverJournal() error {
	buckets := make([]map[string]*session, len(s.shards))
	for i, sh := range s.shards {
		bucket := make(map[string]*session)
		err := sh.log.Replay(func(id uint64, rec []byte) error {
			var aerr error
			bucket, aerr = applyJournalRecord(bucket, rec)
			if aerr != nil {
				return fmt.Errorf("shard %d record %d: %w", sh.idx, id, aerr)
			}
			sh.ids = append(sh.ids, id)
			return nil
		})
		if err != nil {
			return err
		}
		buckets[i] = bucket
	}

	// Merge the buckets. A session normally lives entirely in its home
	// shard; finding it elsewhere (or in several buckets) means the shard
	// count changed between incarnations, so fold the copies together and
	// remember it for resharding.
	misplaced := make(map[string]bool)
	for i, bucket := range buckets {
		for id, bs := range bucket {
			if i != s.shardIndexFor(id) {
				misplaced[id] = true
			}
			if cur, ok := s.sessions[id]; ok {
				// Present in more than one bucket: at most one copy is home.
				misplaced[id] = true
				mergeSessionState(cur, bs)
			} else {
				s.sessions[id] = bs
			}
		}
	}

	// Idempotency state below a session's recovered LowSeq is dead weight
	// (replay order can leave stale entries when prune records landed before
	// late ack records), and after a cross-bucket merge a reply acked in one
	// bucket may still be cached from another; drop both once, here, then
	// settle the per-session reply budget.
	recoveredReplies := 0
	for _, sess := range s.sessions {
		for seq := range sess.replies {
			if seq < sess.lowSeq || sess.acked[seq] {
				delete(sess.replies, seq)
			}
		}
		for seq := range sess.acked {
			if seq < sess.lowSeq {
				delete(sess.acked, seq)
			}
		}
		sess.foldAcked()
		sess.replyBytes = 0
		for _, rep := range sess.replies {
			sess.replyBytes += replyApproxSize(rep)
		}
		recoveredReplies += len(sess.replies)
	}
	s.stats.RecoveredSessions = int64(len(s.sessions))
	s.stats.RecoveredReplies = int64(recoveredReplies)

	if len(misplaced) == 0 {
		return nil
	}
	return s.reshardJournal(misplaced, buckets)
}

// mergeSessionState folds one bucket's copy of a session into the merged
// state. The fold is monotone — floors and high-water marks take the max,
// acked seqs union, replies union — so merging the same copies in any order
// yields the same state; the caller's post-pass then drops replies the
// merged acked set or floor supersedes.
func mergeSessionState(dst, src *session) {
	if src.lowSeq > dst.lowSeq {
		dst.lowSeq = src.lowSeq
	}
	if src.maxExec > dst.maxExec {
		dst.maxExec = src.maxExec
	}
	for seq := range src.acked {
		dst.acked[seq] = true
	}
	for seq, rep := range src.replies {
		if _, ok := dst.replies[seq]; !ok {
			dst.replies[seq] = rep
		}
	}
}

// reshardJournal rewrites sessions recovered outside their home shard so
// every session's durable state lives where shardFor sends its future
// records. Phase 1 appends a migrate record with each misplaced session's
// merged state to its home shard; only once those are durable does phase 2
// compact the shards holding stale copies (owned-only snapshot, then remove
// superseded records). A crash between the phases re-runs resharding at the
// next recovery from the still-present copies; a crash inside phase 2
// cannot lose state because the home-shard migrate record already holds it.
func (s *Server) reshardJournal(misplaced map[string]bool, buckets []map[string]*session) error {
	byHome := make(map[int]map[string]*session)
	for id := range misplaced {
		home := s.shardIndexFor(id)
		if byHome[home] == nil {
			byHome[home] = make(map[string]*session)
		}
		byHome[home][id] = s.sessions[id]
	}
	for home := 0; home < len(s.shards); home++ {
		group := byHome[home]
		if len(group) == 0 {
			continue
		}
		sh := s.shards[home]
		id, err := sh.log.Append(encodeMigrateRecord(group))
		if err != nil {
			return fmt.Errorf("qrpc: reshard: migrate append to shard %d: %w", home, err)
		}
		sh.ids = append(sh.ids, id)
	}
	for i, bucket := range buckets {
		stale := false
		for id := range bucket {
			if misplaced[id] {
				stale = true
				break
			}
		}
		if !stale {
			continue
		}
		if err := s.compactShardAtRecovery(i); err != nil {
			return fmt.Errorf("qrpc: reshard: compact shard %d: %w", i, err)
		}
	}
	s.stats.JournalReshards = int64(len(misplaced))
	return nil
}

// compactShardAtRecovery compacts one shard during construction: snapshot
// its owned sessions, then remove everything the snapshot supersedes. The
// server is not reachable yet, so no gate or mu is needed.
func (s *Server) compactShardAtRecovery(idx int) error {
	sh := s.shards[idx]
	sid, err := sh.log.Append(encodeSnapshotRecord(s.ownedSessionsLocked(idx)))
	if err != nil {
		return err
	}
	prev := sh.ids
	sh.ids = []uint64{sid}
	if rerr := sh.log.RemoveBatch(prev); rerr != nil {
		sh.ids = append(sh.ids, prev...)
	}
	s.stats.JournalCompactions++
	return nil
}

// applyJournalRecord applies one journal record to a recovery bucket,
// returning the (possibly replaced, for snapshots) bucket map.
func applyJournalRecord(sessions map[string]*session, rec []byte) (map[string]*session, error) {
	r := wire.NewReader(rec)
	kind := r.Byte()
	switch kind {
	case jrecExec:
		clientID := r.String()
		rep := &Reply{}
		if err := rep.UnmarshalWire(r); err != nil {
			return nil, fmt.Errorf("qrpc: corrupt exec record: %w", err)
		}
		if err := journalRecordDone(r); err != nil {
			return nil, err
		}
		sess := bucketSession(sessions, clientID)
		if rep.Seq >= sess.lowSeq && !sess.acked[rep.Seq] {
			sess.replies[rep.Seq] = rep
		}
		if rep.Seq > sess.maxExec {
			sess.maxExec = rep.Seq
		}
	case jrecAck:
		clientID := r.String()
		seqs := r.UvarintSlice()
		if err := journalRecordDone(r); err != nil {
			return nil, err
		}
		sess := bucketSession(sessions, clientID)
		for _, seq := range seqs {
			delete(sess.replies, seq)
			if seq >= sess.lowSeq {
				sess.acked[seq] = true
			}
		}
		sess.foldAcked()
	case jrecPrune:
		clientID := r.String()
		lowSeq := r.Uvarint()
		if err := journalRecordDone(r); err != nil {
			return nil, err
		}
		sess := bucketSession(sessions, clientID)
		if lowSeq > sess.lowSeq {
			sess.lowSeq = lowSeq
			for seq := range sess.replies {
				if seq < lowSeq {
					delete(sess.replies, seq)
				}
			}
			for seq := range sess.acked {
				if seq < lowSeq {
					delete(sess.acked, seq)
				}
			}
			sess.foldAcked()
		}
	case jrecSnapshot:
		snap, err := readSessionList(r)
		if err != nil {
			return nil, err
		}
		if err := journalRecordDone(r); err != nil {
			return nil, err
		}
		// A snapshot captures this shard's complete state under the shard
		// gate, so it supersedes everything applied before it.
		return snap, nil
	case jrecMigrate:
		moved, err := readSessionList(r)
		if err != nil {
			return nil, err
		}
		if err := journalRecordDone(r); err != nil {
			return nil, err
		}
		// A migrate record carries a merged copy that already folded in
		// everything journaled for these sessions before it: upsert.
		for id, sess := range moved {
			sessions[id] = sess
		}
	default:
		return nil, fmt.Errorf("qrpc: unknown journal record kind %#x", kind)
	}
	return sessions, nil
}

// bucketSession finds or creates a session in a recovery bucket.
func bucketSession(sessions map[string]*session, clientID string) *session {
	sess := sessions[clientID]
	if sess == nil {
		sess = &session{
			clientID:  clientID,
			replies:   make(map[uint64]*Reply),
			executing: make(map[uint64]bool),
			acked:     make(map[uint64]bool),
		}
		sessions[clientID] = sess
	}
	return sess
}

func journalRecordDone(r *wire.Reader) error {
	if err := r.Err(); err != nil {
		return fmt.Errorf("qrpc: corrupt journal record: %w", err)
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("qrpc: trailing bytes in journal record")
	}
	return nil
}

// poisonJournalLocked records the first journal failure. Once set, the
// server refuses to execute further requests (see onRequest/execute):
// releasing replies whose durability cannot be guaranteed would silently
// reintroduce the double-execution window the journal exists to close. The
// poison is server-wide even though shards fail independently — a server
// that kept executing for lucky hash buckets while refusing others would be
// far harder to reason about (and to operate) than one that fails whole.
func (s *Server) poisonJournalLocked(err error) {
	if s.journalErr == nil {
		s.journalErr = fmt.Errorf("qrpc: session journal: %w", err)
	}
}

// JournalError reports why the server's session journal is out of service:
// a recovery failure at construction, or the first append failure on any
// shard (for stable.FileLog, typically a *stable.PoisonedError after a
// failed write or fsync). While non-nil, the server answers redelivered requests
// from the recovered reply cache but refuses to execute new work
// (ServerStats.JournalRefused counts the refusals). Nil when healthy or
// when no journal is configured.
func (s *Server) JournalError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journalErr
}

func (s *Server) journalCompactThreshold() int {
	if s.cfg.JournalCompactEvery > 0 {
		return s.cfg.JournalCompactEvery
	}
	return defaultJournalCompactEvery
}

// shouldCompactLocked decides (and claims) a background compaction run for
// one shard. The threshold applies per shard: each shard's journal is
// bounded by the live state of the sessions it owns.
func (s *Server) shouldCompactLocked(sh *journalShard) bool {
	if sh.compacting || s.journalErr != nil || len(sh.ids) < s.journalCompactThreshold() {
		return false
	}
	sh.compacting = true
	s.compactWG.Add(1)
	return true
}

// compactJournal runs in the background once a shard's live journal grows
// past the compaction threshold: it snapshots the recovery state of every
// session the shard owns into one record, appends it, and removes the
// records it supersedes, so the shard stays bounded by live session state
// rather than by history.
//
// Holding the shard's gate exclusively across capture+append is what makes
// this correct: appends to this shard hold the read side across their own
// append+bookkeeping, so at capture time every live record's effect is in
// s.sessions and its id is in sh.ids — "snapshot, then remove exactly the
// tracked ids" cannot lose an in-flight record. Sessions owned by other
// shards keep appending concurrently; their records are in other logs and
// are not captured or removed here.
func (s *Server) compactJournal(idx int) {
	defer s.compactWG.Done()
	s.mu.Lock()
	sh := s.shards[idx]
	s.mu.Unlock()
	sh.gate.Lock()
	s.mu.Lock()
	if s.journalErr != nil {
		sh.compacting = false
		s.mu.Unlock()
		sh.gate.Unlock()
		return
	}
	snap := encodeSnapshotRecord(s.ownedSessionsLocked(idx))
	prev := sh.ids
	sh.ids = nil
	s.mu.Unlock()
	sid, err := sh.log.Append(snap)
	sh.gate.Unlock()
	if err != nil {
		s.mu.Lock()
		s.poisonJournalLocked(err)
		sh.ids = append(sh.ids, prev...)
		sh.compacting = false
		s.mu.Unlock()
		return
	}
	// The removes run outside the gate: they touch only superseded records,
	// and all of them share one write and one flush. A failed remove is not
	// fatal — the records replay idempotently underneath the snapshot — so
	// they are kept for retry at the next compaction instead of poisoning
	// the journal.
	rerr := sh.log.RemoveBatch(prev)
	s.mu.Lock()
	sh.ids = append(sh.ids, sid)
	if rerr != nil {
		sh.ids = append(sh.ids, prev...)
	}
	s.stats.JournalCompactions++
	sh.compacting = false
	s.mu.Unlock()
}

// JournalShardCount reports the current number of journal shards (0 when
// the server has no journal).
func (s *Server) JournalShardCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.shards)
}

// GrowJournalShards extends the session journal to len(newLogs) additional
// shards while the server keeps executing — the online form of the recovery
// reshard, with the same crash-safety order. With every existing gate held
// write-side (quiescing appends), each session whose home moves under the
// new count is captured in a migrate record durably appended to its new
// home shard; only then is the grown shard set installed and each shard
// left holding moved-away records compacted in the background. A crash
// between the migrate appends and those compactions merely leaves duplicate
// copies, which the next recovery merges and re-reshards. Shrinking is not
// supported (see the package comment); a failed append to a NEW log aborts
// cleanly with the old configuration intact, while a failed append to an
// existing shard poisons the journal like any other append failure.
func (s *Server) GrowJournalShards(newLogs []stable.Log) error {
	if len(newLogs) == 0 {
		return nil
	}
	if !s.hasJournal() {
		return errors.New("qrpc: grow: no journal configured")
	}
	s.mu.Lock()
	if err := s.journalErr; err != nil {
		s.mu.Unlock()
		return err
	}
	if s.growing {
		s.mu.Unlock()
		return errors.New("qrpc: grow: growth already in progress")
	}
	s.growing = true
	old := s.shards
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.growing = false
		s.mu.Unlock()
	}()

	// Quiesce appends: every existing gate's write side, in shard-index
	// order (the one sanctioned multi-gate hold — see journalShard.gate).
	// In-flight compactions finish first; new appenders wait in
	// lockShardFor and re-resolve their home once the gates drop.
	for _, sh := range old {
		sh.gate.Lock()
	}
	release := func() {
		for i := len(old) - 1; i >= 0; i-- {
			old[i].gate.Unlock()
		}
	}

	newCount := len(old) + len(newLogs)
	grown := make([]*journalShard, 0, newCount)
	grown = append(grown, old...)
	for i, log := range newLogs {
		bl, _ := log.(stable.BatchLog)
		grown = append(grown, &journalShard{idx: len(old) + i, log: log, batch: bl})
	}

	// Find every session whose home moves under the new count; encode one
	// migrate record per destination shard.
	s.mu.Lock()
	if err := s.journalErr; err != nil {
		s.mu.Unlock()
		release()
		return err
	}
	byNewHome := make(map[int]map[string]*session)
	staleOld := make(map[int]bool)
	for id, sess := range s.sessions {
		oldHome := journalShardIndex(id, len(old))
		newHome := journalShardIndex(id, newCount)
		if newHome == oldHome {
			continue
		}
		if byNewHome[newHome] == nil {
			byNewHome[newHome] = make(map[string]*session)
		}
		byNewHome[newHome][id] = sess
		staleOld[oldHome] = true
	}
	migrates := make(map[int][]byte, len(byNewHome))
	for home, group := range byNewHome {
		migrates[home] = encodeMigrateRecord(group)
	}
	s.mu.Unlock()

	// Durable migrate appends. A destination may be an existing shard (the
	// modulus does not partition conservatively); its gate is held
	// exclusively here, so the direct append cannot race a compaction.
	appended := make(map[int]uint64, len(migrates))
	for home, rec := range migrates {
		id, err := grown[home].log.Append(rec)
		if err != nil {
			if home < len(old) {
				s.mu.Lock()
				s.poisonJournalLocked(err)
				s.mu.Unlock()
			}
			// Migrate records that did land are harmless upserts; recovery
			// re-merges and re-reshards them under whatever count comes next.
			release()
			return fmt.Errorf("qrpc: grow: migrate append: %w", err)
		}
		appended[home] = id
	}

	// Install the grown shard set and claim a compaction of every shard
	// left holding records for sessions that moved away.
	s.mu.Lock()
	for home, id := range appended {
		grown[home].ids = append(grown[home].ids, id)
		s.stats.JournalRecords++
	}
	s.shards = grown
	s.stats.JournalShardGrowths++
	var toCompact []int
	for idx := range staleOld {
		if sh := grown[idx]; !sh.compacting {
			sh.compacting = true
			s.compactWG.Add(1)
			toCompact = append(toCompact, idx)
		}
	}
	s.mu.Unlock()
	release()
	for _, idx := range toCompact {
		go s.compactJournal(idx)
	}
	return nil
}

// JournalShardDepths reports the live-record count of each journal shard
// (stats lines, tests). Empty when the server has no journal.
func (s *Server) JournalShardDepths() []int {
	if !s.hasJournal() {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	depths := make([]int, len(s.shards))
	for i, sh := range s.shards {
		depths[i] = len(sh.ids)
	}
	return depths
}
