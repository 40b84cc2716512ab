package qrpc

import (
	"fmt"
	"slices"
	"sync"

	"rover/internal/stable"
	"rover/internal/wire"
	"rover/internal/yield"
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
// up to N fsyncs overlap instead of every session in the server convoying
// behind a single leader. N=1 is one journal with one leader. N is fixed for
// the life of a Server; it may change only between incarnations.
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
// executes share ~one write and one fsync instead of paying N — the
// durability write is amortized per shard and parallel across shards.
//
// # Releasing a gate
//
// The snapshot reset above holds only if no appender lets go of its shard's
// gate between a durable record and either that record's effect in
// s.sessions or the poison that refuses it: a compaction waiting on the
// gate would take the gap, capture sessions without the effect, see no
// poison, and append a snapshot after the record, and replay would reset
// the record away. A run whose exec record failed dirty is the case that
// needs care — the record may be durable while its reply is in no session —
// so executeRun poisons (refuseRun) before it releases the gate. The
// releases that race over this gap offer it to a test's yield hook
// (internal/yield) right after.

// journalShard is one bucket of the sharded session journal.
type journalShard struct {
	idx int
	log stable.Log

	// gate orders this shard's appends against its compaction snapshots:
	// appenders hold the read side across their append AND the Server.mu
	// bookkeeping that tracks the new record's id, so the write side
	// observes "every live record's effect is in sessions and its id is in
	// ids" — the invariant compaction relies on. Lock order: gate before
	// Server.mu. No handler or onExecuted hook runs under a gate, so gates
	// are never nested: not two of different shards, nor one read twice.
	gate       sync.RWMutex
	ids        []uint64 // under Server.mu: live record ids compaction may remove
	compacting bool     // under Server.mu: one compaction per shard at a time
}

// Yield sites: the gate releases a refused run and a compaction race over.
const (
	yieldRunRefused    = "qrpc.executeRun.refused"
	yieldCompactAbort  = "qrpc.compactShardOnce.poisoned"
	yieldCompactAppend = "qrpc.compactShardOnce.appended"
)

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

// hasJournal reports whether the server journals session state. The shard
// slice is fixed once NewServer returns, so this and every shard lookup
// below need no lock.
func (s *Server) hasJournal() bool { return len(s.shards) > 0 }

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

// shardIndexFor is journalShardIndex under the server's shard count.
func (s *Server) shardIndexFor(clientID string) int {
	return journalShardIndex(clientID, len(s.shards))
}

// lockShardFor returns clientID's home shard with its gate read-held.
func (s *Server) lockShardFor(clientID string) *journalShard {
	sh := s.shards[s.shardIndexFor(clientID)]
	sh.gate.RLock()
	return sh
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

// encodeExecRecordEnc builds an exec record around a reply's encoding,
// spliced in raw: the record holds exactly the bytes of the reply frame.
func encodeExecRecordEnc(clientID string, encReply []byte) []byte {
	b := wire.GetBuffer()
	b.PutByte(jrecExec)
	b.PutString(clientID)
	b.PutRaw(encReply)
	return wire.Detach(b)
}

func encodeAckRecord(clientID string, seqs []uint64) []byte {
	b := wire.GetBuffer()
	b.PutByte(jrecAck)
	b.PutString(clientID)
	b.PutUvarintSlice(seqs)
	return wire.Detach(b)
}

func encodePruneRecord(clientID string, lowSeq uint64) []byte {
	b := wire.GetBuffer()
	b.PutByte(jrecPrune)
	b.PutString(clientID)
	b.PutUvarint(lowSeq)
	return wire.Detach(b)
}

// encodeSnapshotRecord serializes the complete recovery state of the given
// sessions (a shard's owned set; the whole map on an unsharded server).
// Callers hold s.mu (and, for compaction, the shard gate's write lock).
func encodeSnapshotRecord(sessions map[string]*session) []byte {
	b := wire.GetBuffer()
	b.PutByte(jrecSnapshot)
	putSessionList(b, sessions)
	return wire.Detach(b)
}

// encodeMigrateRecord carries the same session-list payload as a snapshot
// but replays as an upsert: recovery-time resharding uses it to place a
// misplaced session's merged state into its home shard without resetting
// the sessions already journaled there.
func encodeMigrateRecord(sessions map[string]*session) []byte {
	b := wire.GetBuffer()
	b.PutByte(jrecMigrate)
	putSessionList(b, sessions)
	return wire.Detach(b)
}

// putSessionList appends the session-list payload shared by snapshot and
// migrate records, splicing in each cached reply's encoding raw. Iteration
// is sorted so identical states produce identical bytes.
func putSessionList(b *wire.Buffer, sessions map[string]*session) {
	ids := make([]string, 0, len(sessions))
	for id := range sessions {
		ids = append(ids, id)
	}
	slices.Sort(ids)
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
		slices.Sort(seqs)
		b.PutUvarint(uint64(len(seqs)))
		for _, seq := range seqs {
			b.PutRaw(sess.replies[seq])
		}
		acked := make([]uint64, 0, len(sess.acked))
		for seq := range sess.acked {
			acked = append(acked, seq)
		}
		slices.Sort(acked)
		b.PutUvarintSlice(acked)
	}
}

// readSessionList decodes a snapshot/migrate payload from r, a reader over
// rec, into sessions of their own that keep their replies as views of rec.
// A session takes at least five bytes (an empty clientID, a zero floor and
// high-water mark, no replies, no acks), so the map is sized by the count
// only as far as rec could hold that many.
func readSessionList(rec []byte, r *wire.Reader) (map[string]*session, error) {
	n := r.Len()
	sessions := make(map[string]*session, min(n, r.Remaining()/5))
	for i := 0; i < n; i++ {
		sess := newSession(r.String())
		sess.lowSeq = r.Uvarint()
		sess.maxExec = r.Uvarint()
		rn := r.Len()
		for j := 0; j < rn; j++ {
			seq, enc, err := readReply(rec, r)
			if err != nil {
				return nil, fmt.Errorf("qrpc: corrupt snapshot reply: %w", err)
			}
			sess.replies[seq] = enc
		}
		for an := r.Len(); an > 0; an-- {
			seq := r.Uvarint()
			if r.Err() != nil {
				break
			}
			sess.acked[seq] = true
		}
		if r.Err() != nil {
			return nil, fmt.Errorf("qrpc: corrupt snapshot record: %w", r.Err())
		}
		sessions[sess.clientID] = sess
	}
	return sessions, nil
}

// readReply checks that the bytes at r's position in rec decode as one
// Reply and returns its seq and those bytes as a view of rec, capped at
// their own end: the form a session keeps a reply in, as executeRun keeps a
// live one as a view of its exec record.
func readReply(rec []byte, r *wire.Reader) (uint64, []byte, error) {
	start := len(rec) - r.Remaining()
	seq, err := readReplySeq(r)
	if err != nil {
		return 0, nil, err
	}
	end := len(rec) - r.Remaining()
	return seq, rec[start:end:end], nil
}

// skipSeqs reads past the count-prefixed seq list at r's position and
// returns a reader that reads the list again: a record is checked whole
// before any of it takes effect, and its list is read in place both times.
func skipSeqs(r *wire.Reader) wire.Reader {
	seqs := *r
	for n := r.Len(); n > 0 && r.Err() == nil; n-- {
		r.Uvarint()
	}
	return seqs
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
		for _, enc := range sess.replies {
			sess.replyBytes += replyCharge(enc)
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
	for seq, enc := range src.replies {
		if _, ok := dst.replies[seq]; !ok {
			dst.replies[seq] = enc
		}
	}
}

// reshardJournal rewrites sessions recovered outside their home shard so
// every session's durable state lives where lockShardFor sends its future
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
		// Not reachable yet: the claim, which a running compaction would
		// hold under mu, cannot be contended.
		s.shards[i].compacting = true
		s.compactWG.Add(1)
		s.compactJournal(i)
		if s.journalErr != nil {
			return fmt.Errorf("qrpc: reshard: compact shard %d: %w", i, s.journalErr)
		}
	}
	s.stats.JournalReshards = int64(len(misplaced))
	return nil
}

// applyJournalRecord applies one journal record to a recovery bucket,
// returning the (possibly replaced, for snapshots) bucket map. The record is
// the log's own slice, which nobody writes again (the stable.Log contract),
// so it is read in place and a session keeps its replies as views of it: a
// recovered reply pins its record until it is acknowledged. A session's
// clientID is the one thing copied out, once, when the session is created.
func applyJournalRecord(sessions map[string]*session, rec []byte) (map[string]*session, error) {
	rd := wire.OwnedReader(rec)
	r := &rd
	kind := r.Byte()
	switch kind {
	case jrecExec:
		clientID := r.View()
		seq, enc, err := readReply(rec, r)
		if err != nil {
			return nil, fmt.Errorf("qrpc: corrupt exec record: %w", err)
		}
		if err := journalRecordDone(r); err != nil {
			return nil, err
		}
		sess := bucketSession(sessions, clientID)
		if seq >= sess.lowSeq && !sess.acked[seq] {
			sess.replies[seq] = enc
		}
		if seq > sess.maxExec {
			sess.maxExec = seq
		}
	case jrecAck:
		clientID := r.View()
		seqs := skipSeqs(r)
		if err := journalRecordDone(r); err != nil {
			return nil, err
		}
		sess := bucketSession(sessions, clientID)
		for n := seqs.Len(); n > 0; n-- {
			seq := seqs.Uvarint()
			delete(sess.replies, seq)
			if seq >= sess.lowSeq {
				sess.acked[seq] = true
			}
		}
		sess.foldAcked()
	case jrecPrune:
		clientID := r.View()
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
		snap, err := readSessionList(rec, r)
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
		moved, err := readSessionList(rec, r)
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

// bucketSession finds or creates a session in a recovery bucket by the
// clientID bytes of a record: the lookup copies nothing, and the session's
// clientID string is made when it is created.
func bucketSession(sessions map[string]*session, clientID []byte) *session {
	sess := sessions[string(clientID)]
	if sess == nil {
		sess = newSession(string(clientID))
		sessions[sess.clientID] = sess
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
// server refuses to execute further requests (see onRequest/executeRun):
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
	for s.compactShardOnce(s.shards[idx]) {
	}
}

// compactShardOnce is one compaction of a claimed shard. Appends that land
// while it runs may put the shard back over the threshold, and the one that
// crossed it saw the claim taken, so before letting go it looks again and
// reports whether it re-claimed the shard for another round.
func (s *Server) compactShardOnce(sh *journalShard) (again bool) {
	defer s.compactWG.Done()
	sh.gate.Lock()
	s.mu.Lock()
	if s.journalErr != nil {
		sh.compacting = false
		s.mu.Unlock()
		sh.gate.Unlock()
		yield.Point(yieldCompactAbort)
		return false
	}
	snap := encodeSnapshotRecord(s.ownedSessionsLocked(sh.idx))
	prev := sh.ids
	sh.ids = nil
	s.mu.Unlock()
	sid, err := sh.log.Append(snap)
	sh.gate.Unlock()
	yield.Point(yieldCompactAppend)
	if err != nil {
		s.mu.Lock()
		s.poisonJournalLocked(err)
		sh.ids = append(sh.ids, prev...)
		sh.compacting = false
		s.mu.Unlock()
		return false
	}
	// The removes run outside the gate: they touch only superseded records,
	// and all of them share one write and one flush. A failed remove is not
	// fatal — the records replay idempotently underneath the snapshot — so
	// they are kept for retry at the next compaction instead of poisoning
	// the journal.
	rerr := sh.log.RemoveNoSync(prev...)
	if rerr == nil {
		rerr = sh.log.Commit()
	}
	s.mu.Lock()
	// Only records that landed meanwhile earn another round: a failed remove
	// (or a threshold the snapshot alone meets) would loop here forever.
	landed := len(sh.ids) > 0
	sh.ids = append(sh.ids, sid)
	if rerr != nil {
		sh.ids = append(sh.ids, prev...)
	}
	s.stats.JournalCompactions++
	sh.compacting = false
	again = rerr == nil && landed && s.shouldCompactLocked(sh)
	s.mu.Unlock()
	return again
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
