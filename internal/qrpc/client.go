package qrpc

import (
	"container/heap"
	"crypto/rand"
	"fmt"
	"slices"
	"sync"
	"time"

	"rover/internal/auth"
	"rover/internal/stable"
	"rover/internal/vtime"
	"rover/internal/wire"
)

// StatusInfo is the user-notification snapshot the paper's section 3.4
// calls for: "it is important to present the user with information about
// [the mobile environment's] current state." Applications surface it in
// their UI (queue depth, connectivity).
type StatusInfo struct {
	Connected     bool
	AuthRejected  bool
	Queued        int // requests not yet transmitted
	AwaitingReply int // transmitted, no reply yet
}

// ClientConfig configures a client engine.
type ClientConfig struct {
	// ClientID identifies this client to servers. Required.
	ClientID string
	// Key authenticates the client when the server has an auth registry.
	Key auth.Key
	// Log is the stable operation log. Required; queued requests live
	// there until their replies arrive.
	Log stable.Log
	// OnStatus, if set, is invoked (outside engine locks) whenever the
	// StatusInfo snapshot changes materially.
	OnStatus func(StatusInfo)
	// OnCallback receives server-initiated notifications.
	OnCallback func(topic string, payload []byte)
	// OnRecovered is invoked during NewClient for every request replayed
	// from the log after a crash, letting the application re-attach to its
	// promise.
	OnRecovered func(req Request, p *Promise)
	// OnPong receives liveness probe responses (the network scheduler's
	// link-quality input).
	OnPong func(now vtime.Time)
	// OnBusy, if set, is invoked (outside engine locks) when a server
	// refuses this client's Hello with a FrameBusy — it is past its
	// admission high-water mark and this client has no session there. The
	// owner typically rotates to a backup address; queued requests stay
	// queued and redeliver after the next successful handshake.
	OnBusy func()
	// NonceFn overrides the random nonce source (tests, determinism).
	NonceFn func() []byte
}

type reqState int

const (
	stateQueued reqState = iota
	stateSent
)

type pendingReq struct {
	req     Request
	enc     []byte // cached wire encoding of req; resends must not re-marshal
	logID   uint64
	promise Promise // handed out by address; lives as long as its holder does
	state   reqState
	readyAt vtime.Time // queue entry usable once the log flush is charged
	sentAt  vtime.Time // last transmission time (RetryStale)
	heapIdx int        // index in the send queue, -1 when not queued
	sends   int
}

// Client is the client-side QRPC engine. All methods are safe for
// concurrent use; completion callbacks run outside the engine lock.
type Client struct {
	mu        sync.Mutex
	cfg       ClientConfig
	nextSeq   uint64
	pend      map[uint64]*pendingReq
	queue     sendQueue
	sender    Sender
	connected bool
	authBad   bool
	stats     ClientStats
	closed    bool
	flushCost time.Duration
	// seqFloor is the durable sequence-number reservation: every seq below
	// it may have been used by some incarnation of this client.
	seqFloor  uint64
	metaLogID uint64
	// held holds sequence numbers that are not in pend but whose log record
	// is not durably gone either, so Hello's LowSeq must not advance past
	// them (the server would drop the request as "below LowSeq" forever if
	// it came back): an Enqueue between seq assignment and registration in
	// pend (the log append runs outside the engine lock), a Cancel waiting
	// for its remove to be durable, and a completed request whose remove
	// failed — that one stays for the life of this incarnation and is never
	// acknowledged; recovery replays it and tries again.
	held map[uint64]struct{}

	// Acknowledgments are lazy. A reply only STAGES its log remove
	// (stable.Log.RemoveNoSync) and completes its promise; the seq waits in
	// staged until a later durable point covers the remove record — the next
	// Enqueue's own Append does, for free, else a flush point's Commit (Pump,
	// OnConnect) — and only then moves to acks, from where it leaves in front
	// of the next request, in that request's frame, or alone at a flush point.
	//
	// The gate: nothing that tells the server a seq is complete — an Ack
	// frame or a Hello.LowSeq — leaves before that seq's remove record is
	// durable. A crash would otherwise bring back a request the server drops
	// without an answer, and its promise would never complete. Completing the
	// promise first is safe: it is the window that always existed between
	// receiving a reply and removing its request — recovery replays the
	// request, the server still holds the un-acked reply, and the handler
	// does not run again.
	staged     []uint64 // remove written, not known durable; in staging order
	stagedBase uint64   // seqs that ever left staged: staged[i] is number stagedBase+i
	acks       []uint64 // remove durable, ack not yet sent
	// ackDue is when the oldest seq in staged or acks should be flushed if
	// no request has carried it by then (NextReadyAt reports it; transports
	// call Pump there). acksReadyAt only matters under a modeled flush cost:
	// the virtual time at which the append whose flush covers acks completes
	// — the readyAt of the request they then ride with.
	ackDue      vtime.Time
	acksReadyAt vtime.Time
	// queuedCount/sentCount track request states incrementally so Status
	// is O(1); scanning the pending map per enqueue made deep queues
	// quadratic (caught by BenchmarkEnqueueMemLog).
	queuedCount int
	sentCount   int
	// pumpLocked scratch, reused across pumps (only touched under mu; no
	// transport retains the slices — single frames pass by value and
	// BatchFrames copies payloads into a fresh batch).
	frameScratch []wire.Frame
	batchScratch []*pendingReq
	deferScratch []*pendingReq
	ackScratch   wire.Buffer // a piggy-backed ack, until the batch copies it

	// Wire-compression negotiation state. compressWanted is the link
	// policy's wish (sched.Selector sets it per interface); peerCaps is
	// what the server's Welcome granted this session. Outbound frames
	// compress only when both agree.
	compressWanted bool
	peerCaps       uint64
}

// NewClient builds a client engine, replaying any requests that survive in
// the stable log from a previous incarnation.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.ClientID == "" {
		return nil, fmt.Errorf("qrpc: ClientID is required")
	}
	if cfg.Log == nil {
		return nil, fmt.Errorf("qrpc: Log is required")
	}
	c := &Client{
		cfg:       cfg,
		nextSeq:   1,
		pend:      make(map[uint64]*pendingReq),
		held:      make(map[uint64]struct{}),
		flushCost: cfg.Log.Cost(),
	}
	type recovered struct {
		req Request
		p   *Promise
	}
	var recs []recovered
	var staleMetaIDs []uint64
	err := cfg.Log.Replay(func(id uint64, rec []byte) error {
		req, floor, isMeta, err := decodeRecord(rec)
		if err != nil {
			return err
		}
		if isMeta {
			if floor > c.seqFloor {
				c.seqFloor = floor
				if c.metaLogID != 0 {
					staleMetaIDs = append(staleMetaIDs, c.metaLogID)
				}
				c.metaLogID = id
			} else {
				staleMetaIDs = append(staleMetaIDs, id)
			}
			return nil
		}
		pr := &pendingReq{req: *req, logID: id, heapIdx: -1}
		pr.promise.init(req.Seq)
		c.pend[req.Seq] = pr
		heap.Push(&c.queue, pr)
		c.queuedCount++
		if req.Seq >= c.nextSeq {
			c.nextSeq = req.Seq + 1
		}
		recs = append(recs, recovered{*req, &pr.promise})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("qrpc: log replay: %w", err)
	}
	if c.nextSeq < c.seqFloor {
		c.nextSeq = c.seqFloor
	}
	for _, id := range staleMetaIDs {
		_ = cfg.Log.Remove(id)
	}
	if cfg.OnRecovered != nil {
		for _, r := range recs {
			cfg.OnRecovered(r.req, r.p)
		}
	}
	return c, nil
}

// Enqueue queues a request. It returns once the request is on the stable
// log — the non-blocking guarantee: this never waits for the network, only
// for the local flush. The returned promise completes when the reply
// arrives (possibly after arbitrarily many disconnections, or after a
// crash and recovery).
func (c *Client) Enqueue(service string, args []byte, pri Priority, now vtime.Time) (*Promise, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrEngineClosed
	}
	seq := c.nextSeq
	// Reserve a fresh sequence chunk durably BEFORE first use, so no crash
	// can ever lead to reuse.
	if seq >= c.seqFloor {
		newFloor := seq + seqReserveChunk
		metaID, err := c.cfg.Log.Append(encodeMetaRecord(newFloor))
		if err != nil {
			c.mu.Unlock()
			return nil, fmt.Errorf("qrpc: sequence reservation: %w", err)
		}
		if c.metaLogID != 0 {
			// Staged, not waited for: recovery keeps the highest floor it
			// finds and removes the others, so a stale record coming back
			// costs nothing.
			_ = c.cfg.Log.RemoveNoSync(c.metaLogID)
		}
		c.metaLogID = metaID
		c.seqFloor = newFloor
	}
	c.nextSeq++
	c.held[seq] = struct{}{}
	// Every remove staged so far was written before the append below is, so
	// the append's flush makes it durable too.
	mark := c.stagedBase + uint64(len(c.staged))
	c.mu.Unlock()

	// The log append happens OUTSIDE the engine lock so that concurrent
	// Enqueues can coalesce onto a single group-commit fsync in the stable
	// log (see stable.FileLog). This is safe: the request cannot be
	// transmitted (and so no reply can race the bookkeeping below) until it
	// is registered in c.pend and pumped, which happens after the append.
	req := Request{Seq: seq, Priority: pri, Service: service, Args: args}
	scratch := wire.GetBuffer()
	scratch.PutByte(recRequest)
	req.MarshalWire(scratch)
	logID, err := c.cfg.Log.Append(scratch.Bytes())
	wire.PutBuffer(scratch)
	if err != nil {
		// Do NOT roll nextSeq back: a "dirty" append failure may have
		// durably written the record before erroring (crash-before-ack).
		// Reusing seq for the next enqueue would then collide with the
		// resurrected request after recovery. Sequence gaps are harmless —
		// the durable chunk reservation above already creates them.
		c.mu.Lock()
		delete(c.held, seq)
		c.mu.Unlock()
		return nil, fmt.Errorf("qrpc: stable log append: %w", err)
	}
	pr := &pendingReq{req: req, logID: logID, readyAt: now.Add(c.flushCost), heapIdx: -1}
	pr.promise.init(seq)

	c.mu.Lock()
	delete(c.held, seq)
	c.promoteLocked(mark, pr.readyAt)
	// A Close that raced the append is harmless: the record is durable and
	// replays next incarnation; registering it here just keeps Status exact.
	c.pend[seq] = pr
	heap.Push(&c.queue, pr)
	c.queuedCount++
	c.stats.Enqueued++
	c.pumpLocked(now, false)
	status := c.statusLocked()
	c.mu.Unlock()
	c.notify(status)
	return &pr.promise, nil
}

// Cancel withdraws a request that has not yet been transmitted. It reports
// whether cancellation succeeded; a request that has already been sent
// cannot be cancelled (the server may execute it). The promise of a
// cancelled request fails with ErrCancelled.
func (c *Client) Cancel(seq uint64) bool {
	c.mu.Lock()
	pr, ok := c.pend[seq]
	if !ok || pr.state != stateQueued || pr.sends > 0 {
		c.mu.Unlock()
		return false
	}
	if pr.heapIdx >= 0 {
		heap.Remove(&c.queue, pr.heapIdx)
	}
	delete(c.pend, seq)
	c.queuedCount--
	c.held[seq] = struct{}{}
	c.mu.Unlock()
	// A cancelled request that came back after a crash would execute, so
	// this remove is waited for — with the engine lock released.
	if err := c.cfg.Log.Remove(pr.logID); err == nil {
		c.mu.Lock()
		delete(c.held, seq)
		c.mu.Unlock()
	}
	pr.promise.fulfill(nil, ErrCancelled)
	return true
}

// OnConnect attaches a transport. All unreplied requests become eligible
// for (re)transmission; a Hello frame precedes them. It is a flush point for
// acknowledgments: staged removes are committed first, so the Hello's LowSeq
// and the acks behind it cover every reply consumed so far.
func (c *Client) OnConnect(s Sender, now vtime.Time) {
	c.mu.Lock()
	c.commitStagedLocked(now)
	c.sender = s
	c.connected = true
	c.authBad = false
	c.peerCaps = 0 // a new session must re-negotiate capabilities
	c.stats.Connects++
	// Anything sent on a previous connection but unreplied must go again.
	for _, pr := range c.pend {
		if pr.state == stateSent {
			pr.state = stateQueued
			c.sentCount--
			c.queuedCount++
			if pr.heapIdx < 0 {
				heap.Push(&c.queue, pr)
			}
		}
	}
	c.sendHelloLocked()
	c.pumpLocked(now, true)
	status := c.statusLocked()
	c.mu.Unlock()
	c.notify(status)
}

// OnDisconnect detaches the transport. Requests in flight stay pending
// and are redelivered on the next connect.
func (c *Client) OnDisconnect(now vtime.Time) {
	c.mu.Lock()
	c.connected = false
	c.sender = nil
	c.stats.Disconnects++
	status := c.statusLocked()
	c.mu.Unlock()
	c.notify(status)
}

// Pump transmits any ready queued requests and is the flush point for
// acknowledgments: staged removes are committed (engine lock released for
// the wait) and every pending ack goes out, with the requests or alone.
// Adapters call it when the link drains, when the application kicks the
// transport, and at the time NextReadyAt names.
func (c *Client) Pump(now vtime.Time) {
	c.mu.Lock()
	if c.canSendLocked() {
		c.commitStagedLocked(now)
	}
	c.pumpLocked(now, true)
	if len(c.staged)+len(c.acks) > 0 && c.ackDue <= now {
		// Still waiting after a flush — the link refused the frame, or a
		// reply was staged while the commit was in flight: those get a
		// deadline of their own instead of another pump at once.
		c.ackDue = now.Add(ackDelay)
	}
	c.mu.Unlock()
}

// ackDelay is how long an acknowledgment waits for a request to carry it
// before it is flushed on its own (virtual or wall time, whichever the
// transport runs on). Holding an ack costs the server one cached reply for
// that long; a closed-loop caller's next request arrives far sooner.
const ackDelay = time.Millisecond

func (c *Client) canSendLocked() bool {
	return c.connected && c.sender != nil && !c.authBad
}

// startAckDeadlineLocked is called before a seq joins staged or acks: the
// first acknowledgment to wait starts the flush deadline. now must come from
// the transport's clock (OnFrame's), the one NextReadyAt is asked with.
func (c *Client) startAckDeadlineLocked(now vtime.Time) {
	if len(c.staged)+len(c.acks) == 0 {
		c.ackDue = now.Add(ackDelay)
	}
}

// unstageLocked takes the seqs staged before mark (a value of
// stagedBase+len(staged) read earlier) out of staged, appending them to dst.
// Some or all may have left already, through an Enqueue's promotion.
func (c *Client) unstageLocked(mark uint64, dst []uint64) []uint64 {
	if mark <= c.stagedBase {
		return dst
	}
	n := int(mark - c.stagedBase)
	dst = append(dst, c.staged[:n]...)
	c.staged = c.staged[:copy(c.staged, c.staged[n:])]
	c.stagedBase = mark
	return dst
}

// promoteLocked moves the seqs staged before mark — read before the flush
// that has now completed was issued — to acks: their remove records are
// durable as of durableAt.
func (c *Client) promoteLocked(mark uint64, durableAt vtime.Time) {
	c.acks = c.unstageLocked(mark, c.acks)
	c.acksReadyAt = max(c.acksReadyAt, durableAt)
}

// commitStagedLocked makes every staged remove durable and its seq ackable.
// It RELEASES c.mu for the flush and retakes it. If the flush fails the log
// is poisoned and whether the removes took is unknown, so those seqs are
// never acknowledged by this incarnation (see held).
func (c *Client) commitStagedLocked(now vtime.Time) {
	if len(c.staged) == 0 {
		return
	}
	mark := c.stagedBase + uint64(len(c.staged))
	c.mu.Unlock()
	err := c.cfg.Log.Commit()
	c.mu.Lock()
	if err == nil {
		// Under a modeled flush cost only appends are charged virtual time,
		// as ever (a MemLog remove is free); a real log's Commit has just
		// paid in wall time.
		c.promoteLocked(mark, now)
		return
	}
	for _, seq := range c.unstageLocked(mark, nil) {
		c.held[seq] = struct{}{}
	}
}

// RetryStale requeues requests that were transmitted more than maxAge ago
// without a reply, and pumps them. On reliable transports (TCP) this never
// fires — a connected link either delivers or disconnects — but unreliable
// media (radio links with frame loss, the mail transport's lossy relays)
// need a retransmission clock. Adapters over such media call it
// periodically; the server's reply cache absorbs any duplicates. It
// returns how many requests were requeued.
func (c *Client) RetryStale(now vtime.Time, maxAge time.Duration) int {
	c.mu.Lock()
	n := 0
	for _, pr := range c.pend {
		if pr.state == stateSent && now.Sub(pr.sentAt) >= maxAge {
			pr.state = stateQueued
			c.sentCount--
			c.queuedCount++
			if pr.heapIdx < 0 {
				heap.Push(&c.queue, pr)
			}
			n++
		}
	}
	if n > 0 {
		c.pumpLocked(now, false)
	}
	c.mu.Unlock()
	return n
}

// NextReadyAt returns the earliest time at which a Pump has something to do
// that it does not have now, or ok=false: a queued request becoming
// transmittable (its modeled log flush completes), or the flush deadline of
// an acknowledgment no request has carried yet — never earlier than now,
// and now itself when that deadline has passed. Adapters schedule a Pump
// there (the simulator an event, the real-time transports a timer).
func (c *Client) NextReadyAt(now vtime.Time) (vtime.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best vtime.Time
	found := false
	if c.flushCost > 0 {
		for _, pr := range c.queue {
			if pr.readyAt > now && (!found || pr.readyAt < best) {
				best = pr.readyAt
				found = true
			}
		}
	}
	// While disconnected acks stay pending: the next Hello's LowSeq (or the
	// pump behind it) takes care of them.
	if c.canSendLocked() && len(c.staged)+len(c.acks) > 0 {
		at := max(c.ackDue, now)
		if len(c.staged) == 0 && c.flushCost > 0 {
			at = max(at, c.acksReadyAt)
		}
		if !found || at < best {
			best, found = at, true
		}
	}
	return best, found
}

// OnFrame processes a frame from the transport. Batch frames are unpacked
// and their sub-frames processed in order, and the end of the batch is a
// flush point: one batch of replies costs one log commit and one ack frame.
// A lone reply flushes nothing — its ack waits for the next request.
func (c *Client) OnFrame(f wire.Frame, now vtime.Time) {
	if f.Type == wire.FrameBatchZ {
		// A corrupt compressed batch is dropped like any damaged frame;
		// redelivery recovers its contents.
		zf, err := wire.InflateBatchFrame(f)
		if err != nil {
			return
		}
		f = zf
	}
	if f.Type == wire.FrameBatch {
		var room [16]wire.Frame // a batch of replies decodes on the stack
		subs, err := wire.AppendUnbatched(room[:0], f.Payload)
		if err != nil {
			return
		}
		for _, sf := range subs {
			c.onFrame(sf, now)
		}
		c.Pump(now)
		return
	}
	c.onFrame(f, now)
}

func (c *Client) onFrame(f wire.Frame, now vtime.Time) {
	switch f.Type {
	case wire.FrameReply:
		c.onReply(f.Payload, now)
	case wire.FrameCallback:
		var cb Callback
		if err := wire.Unmarshal(f.Payload, &cb); err != nil {
			return
		}
		if c.cfg.OnCallback != nil {
			c.cfg.OnCallback(cb.Topic, cb.Payload)
		}
	case wire.FrameWelcome:
		var w Welcome
		if err := wire.Unmarshal(f.Payload, &w); err == nil {
			c.mu.Lock()
			c.peerCaps = w.Caps
			c.mu.Unlock()
		}
		c.Pump(now)
	case wire.FrameAuthReject:
		c.mu.Lock()
		c.authBad = true
		status := c.statusLocked()
		c.mu.Unlock()
		c.notify(status)
	case wire.FramePing:
		c.mu.Lock()
		if c.sender != nil {
			c.sender.SendFrame(wire.Frame{Type: wire.FramePong})
		}
		c.mu.Unlock()
	case wire.FramePong:
		if c.cfg.OnPong != nil {
			c.cfg.OnPong(now)
		}
	case wire.FrameBusy:
		// The server refused our Hello: it is at its session high-water
		// mark and we are a stranger there. Nothing is lost — requests are
		// queued in the stable log — so just count it and let the owner
		// decide (typically rotate to a backup address and reconnect).
		c.mu.Lock()
		c.stats.BusyReceived++
		c.mu.Unlock()
		if c.cfg.OnBusy != nil {
			c.cfg.OnBusy()
		}
	}
}

// onReply takes in one reply. The payload is the receiver's (wire.ReadFrame),
// so it is decoded on the stack and the Result the promise completes with
// aliases it.
func (c *Client) onReply(payload []byte, now vtime.Time) {
	var rep Reply
	r := wire.OwnedReader(payload)
	if err := rep.UnmarshalWire(&r); err != nil || r.Finish() != nil {
		return
	}
	c.mu.Lock()
	pr, ok := c.pend[rep.Seq]
	if !ok {
		// Duplicate reply (we already processed and acked, or the ack was
		// lost). Re-ack so the server can clear its cache — unless the first
		// copy's remove is not durable yet, in which case its own ack is
		// still to come (or, if held, must never be sent).
		c.stats.Duplicates++
		_, gated := c.held[rep.Seq]
		if !gated && !slices.Contains(c.staged, rep.Seq) {
			c.startAckDeadlineLocked(now)
			c.acks = append(c.acks, rep.Seq)
		}
		c.mu.Unlock()
		return
	}
	// Stage the remove BEFORE completing the promise, so that whatever the
	// application appends next is written behind it and its flush covers
	// both. Only the write happens under the lock, never a flush.
	if err := c.cfg.Log.RemoveNoSync(pr.logID); err != nil {
		c.held[rep.Seq] = struct{}{}
	} else {
		c.startAckDeadlineLocked(now)
		c.staged = append(c.staged, rep.Seq)
	}
	delete(c.pend, rep.Seq)
	if pr.state == stateQueued {
		c.queuedCount--
	} else {
		c.sentCount--
	}
	if pr.heapIdx >= 0 {
		heap.Remove(&c.queue, pr.heapIdx)
	}
	c.stats.Replies++
	status := c.statusLocked()
	c.mu.Unlock()

	if rep.Status == StatusOK {
		pr.promise.fulfill(rep.Result, nil)
	} else {
		pr.promise.fulfill(nil, &RemoteError{Status: rep.Status, Message: rep.ErrMsg})
	}
	c.notify(status)
}

// maxPumpBatchBytes caps how much request payload one pump packs into a
// single batch frame; a deeper queue drains as several batches rather than
// one giant frame.
const maxPumpBatchBytes = 256 << 10

// pumpLocked drains ready requests to the transport in priority order.
// Everything sendable in one pass — the ackable seqs piggybacked in front,
// then ready requests — is coalesced into a single FrameBatch, so a pump
// cycle costs the transport one write instead of one per message. Acks never
// hold a request back; with no request to ride they go out alone only when
// flush is set (the flush points: Pump, OnConnect).
func (c *Client) pumpLocked(now vtime.Time, flush bool) {
	if !c.canSendLocked() {
		return
	}
	for {
		frames := c.frameScratch[:0]
		ackCount := 0
		if len(c.acks) > 0 && (c.flushCost == 0 || now >= c.acksReadyAt) {
			// Acks ride in front of the batch; they are tiny and unblock
			// server reply-cache state before the new requests land. The
			// slot is filled in once it is known whether anything rides.
			ackCount = len(c.acks)
			frames = append(frames, wire.Frame{})
		}
		deferred, batch := c.deferScratch[:0], c.batchScratch[:0]
		batchBytes := 0
		for c.queue.Len() > 0 && batchBytes < maxPumpBatchBytes {
			pr := c.queue[0]
			// readyAt only means something when a flush cost is modeled (the
			// virtual-time simulators, where one scheduler is the single time
			// base). With a real log the flush was paid synchronously inside
			// Enqueue, and comparing timestamps would wrongly defer requests
			// whenever caller and transport clocks have different epochs.
			if c.flushCost > 0 && pr.readyAt > now {
				// Not yet durable under virtual time; skip it without
				// blocking others (pop and re-push after the loop).
				heap.Pop(&c.queue)
				deferred = append(deferred, pr)
				continue
			}
			heap.Pop(&c.queue)
			if pr.enc == nil {
				pr.enc = wire.Marshal(&pr.req)
			}
			frames = append(frames, wire.Frame{Type: wire.FrameRequest, Payload: pr.enc})
			batch = append(batch, pr)
			batchBytes += len(pr.enc)
		}
		for _, pr := range deferred {
			heap.Push(&c.queue, pr)
		}
		// Park the scratch capacity for the next pump before any return.
		c.frameScratch, c.deferScratch, c.batchScratch = frames[:0], deferred[:0], batch[:0]
		if ackCount > 0 {
			if len(batch) == 0 && !flush {
				frames, ackCount = frames[:0], 0
			} else {
				// Coalesced, the ack is copied into the batch, so it is encoded
				// in scratch; a lone frame may be kept by its Sender and gets
				// bytes of its own.
				ack := Ack{Seqs: c.acks}
				c.ackScratch.Reset()
				ack.MarshalWire(&c.ackScratch)
				payload := c.ackScratch.Bytes()
				if len(frames) == 1 {
					payload = slices.Clone(payload)
				}
				frames[0] = wire.Frame{Type: wire.FrameAck, Payload: payload}
			}
		}
		if len(frames) == 0 {
			return
		}
		// Compress only when policy wants it AND the server's Welcome
		// granted the capability this session.
		zOK := c.compressWanted && c.peerCaps&CapCompressedBatch != 0
		out := wire.CoalesceFrames(frames, zOK)
		sent := c.sender.SendFrame(out)
		if !sent {
			// Link refused; retry after next connect. Requests go back on the
			// queue unchanged, acks stay pending — nothing was transmitted.
			for _, pr := range batch {
				heap.Push(&c.queue, pr)
			}
			return
		}
		if len(frames) > 1 {
			c.stats.BatchesSent++
		}
		if out.Type == wire.FrameBatchZ {
			c.stats.ZBatchesSent++
		}
		if ackCount > 0 {
			c.stats.AcksSent += int64(ackCount)
			if len(batch) == 0 {
				c.stats.AckFlushes++
			}
			c.acks = c.acks[:0]
		}
		for _, pr := range batch {
			pr.state = stateSent
			pr.sentAt = now
			c.queuedCount--
			c.sentCount++
			pr.sends++
			c.stats.Sent++
			if pr.sends > 1 {
				c.stats.Resent++
			}
		}
		if len(batch) == 0 {
			// Only the ack frame went out; anything left is deferred.
			return
		}
	}
}

// lowSeqLocked computes the LowSeq a Hello may advertise: every seq below it
// is complete AND its log record durably gone — not registered in pend, not
// held, and not waiting in staged for a flush to cover its remove.
func (c *Client) lowSeqLocked() uint64 {
	low := c.nextSeq
	for seq := range c.pend {
		low = min(low, seq)
	}
	for seq := range c.held {
		low = min(low, seq)
	}
	for _, seq := range c.staged {
		low = min(low, seq)
	}
	return low
}

func (c *Client) sendHelloLocked() {
	c.sender.SendFrame(c.helloLocked())
}

// helloLocked builds the session-open frame, advertising the compressed-
// batch capability whenever the link policy wants compression (the server
// grants it back in the Welcome).
func (c *Client) helloLocked() wire.Frame {
	h := &Hello{ClientID: c.cfg.ClientID, LowSeq: c.lowSeqLocked()}
	if c.compressWanted {
		h.Caps |= CapCompressedBatch
	}
	if c.cfg.Key != nil {
		h.Nonce = c.nonce()
		h.Proof = auth.Prove(c.cfg.Key, c.cfg.ClientID, h.Nonce)
	}
	return wire.Frame{Type: wire.FrameHello, Payload: wire.Marshal(h)}
}

func (c *Client) nonce() []byte {
	if c.cfg.NonceFn != nil {
		return c.cfg.NonceFn()
	}
	n := make([]byte, 16)
	_, _ = rand.Read(n)
	return n
}

// Hello returns the session-open frame for connectionless transports (the
// mail transport prefixes every batch with it).
func (c *Client) Hello() wire.Frame {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.helloLocked()
}

// SetCompression sets whether this client WANTS wire compression —
// normally decided per network interface by the scheduler (compress on
// CSLIP and WaveLAN, skip on Ethernet). Taking effect requires a server
// grant, negotiated at the next Hello/Welcome exchange: callers flip it
// before OnConnect. Frames never compress toward a server that did not
// advertise the capability.
func (c *Client) SetCompression(on bool) {
	c.mu.Lock()
	c.compressWanted = on
	c.mu.Unlock()
}

// Status returns the current user-notification snapshot.
func (c *Client) Status() StatusInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statusLocked()
}

func (c *Client) statusLocked() StatusInfo {
	return StatusInfo{
		Connected:     c.connected,
		AuthRejected:  c.authBad,
		Queued:        c.queuedCount,
		AwaitingReply: c.sentCount,
	}
}

func (c *Client) notify(s StatusInfo) {
	if c.cfg.OnStatus != nil {
		c.cfg.OnStatus(s)
	}
}

// Stats returns a snapshot of the engine counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Pending returns the number of unreplied requests (queued + sent).
func (c *Client) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pend)
}

// ClientID returns the configured client identity.
func (c *Client) ClientID() string { return c.cfg.ClientID }

// Close marks the engine closed. Pending requests remain on the stable
// log for the next incarnation; their promises stay incomplete.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

// sendQueue is a priority heap: highest Priority first, FIFO within a
// priority level (by sequence number).
type sendQueue []*pendingReq

func (q sendQueue) Len() int { return len(q) }
func (q sendQueue) Less(i, j int) bool {
	if q[i].req.Priority != q[j].req.Priority {
		return q[i].req.Priority > q[j].req.Priority
	}
	return q[i].req.Seq < q[j].req.Seq
}
func (q sendQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].heapIdx = i
	q[j].heapIdx = j
}
func (q *sendQueue) Push(x any) {
	pr := x.(*pendingReq)
	pr.heapIdx = len(*q)
	*q = append(*q, pr)
}
func (q *sendQueue) Pop() any {
	old := *q
	n := len(old)
	pr := old[n-1]
	old[n-1] = nil
	pr.heapIdx = -1
	*q = old[:n-1]
	return pr
}
