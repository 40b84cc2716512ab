package repl

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"rover/internal/auth"
	"rover/internal/proto"
	"rover/internal/qrpc"
	"rover/internal/rdo"
	"rover/internal/stable"
	"rover/internal/store"
	"rover/internal/urn"
	"rover/internal/vtime"
	"rover/internal/wire"
)

// Config configures a Replicator.
type Config struct {
	// ServerID is the local server's name; the replicator identifies
	// itself to the peer as ServerID + ClientSuffix, tagged with the
	// incarnation when Log is nil (see New), and the ID orders the
	// deterministic winner when a digest sweep finds divergent replicas.
	ServerID string
	// Engine is the local server engine: the replication services are
	// registered here, and its executions stream to the peer.
	Engine *qrpc.Server
	// Store is the local object store: its commits stream to the peer and
	// replicated records are installed into it.
	Store store.Backend
	// Key authenticates toward the peer when its engine requires auth.
	Key auth.Key
	// Log backs the outbound stream's QRPC client; nil selects an
	// in-memory log (records a crash loses are regenerated by the
	// anti-entropy sweep, so durability is an optimization here) and an
	// identity of this incarnation's own.
	Log stable.Log
	// Clock supplies time (simulations); nil selects real time.
	Clock vtime.Clock
	// Kick, when set, is called after records are enqueued so the attached
	// transport can pump them (same contract as access.Config.Kick).
	Kick func()
}

// Stats counts replication activity.
type Stats struct {
	RecordsStreamed int64 // mutation records enqueued toward the peer
	ExecsStreamed   int64 // exec records enqueued toward the peer
	Applied         int64 // records applied from the peer
	Duplicates      int64 // records already reflected in the local store
	Behind          int64 // sends the peer answered Behind/NeedState to
	CatchUps        int64 // operation catch-up records pushed
	FullSyncs       int64 // whole-object transfers pushed
	CatchUpBytes    int64 // encoded bytes of catch-up ops records
	FullSyncBytes   int64 // encoded bytes of whole-object transfers
	ExecInstalled   int64 // replies installed into the local session cache
	DigestSweeps    int64 // anti-entropy digest exchanges completed
	Errors          int64 // failed sends and replies, and failed local reads of an object to push or digest
}

// Replicator streams one server's committed mutations (and executions) to
// its replica peer and applies the peer's stream locally. Build one per
// server with New, then attach a transport from Client() toward the peer's
// engine.
type Replicator struct {
	cfg    Config
	client *qrpc.Client

	mu        sync.Mutex
	stats     Stats
	inflight  map[urn.URN]bool // catch-up in flight, per object
	connected bool
	closed    bool
}

// New builds a replicator: it installs the store and execution observers,
// registers the replication services on the local engine, and prepares the
// outbound QRPC client. The caller attaches a transport to Client().
func New(cfg Config) (*Replicator, error) {
	if cfg.ServerID == "" {
		return nil, fmt.Errorf("repl: ServerID is required")
	}
	if cfg.Engine == nil || cfg.Store == nil {
		return nil, fmt.Errorf("repl: Engine and Store are required")
	}
	// An incarnation is tagged with its clock's reading at boot, wall time
	// under a real clock (a RealClock reads from its own start).
	boot := time.Now().UnixNano()
	if cfg.Clock == nil {
		cfg.Clock = vtime.NewRealClock()
	} else {
		boot = int64(cfg.Clock.Now())
	}
	log, instance := cfg.Log, ""
	if log == nil {
		// A memory log starts the stream's sequence numbers over, which the
		// peer's session for an earlier incarnation would drop as stale
		// duplicates: each incarnation needs an identity of its own.
		log, instance = stable.NewMemLog(stable.Options{}), strconv.FormatInt(boot, 10)
	}
	r := &Replicator{cfg: cfg, inflight: make(map[urn.URN]bool)}
	client, err := qrpc.NewClient(qrpc.ClientConfig{
		ClientID: ClientID(cfg.ServerID, instance),
		Key:      cfg.Key,
		Log:      log,
		OnStatus: r.onClientStatus,
	})
	if err != nil {
		return nil, err
	}
	r.client = client
	cfg.Engine.Register(SvcApply, r.handleApply)
	cfg.Engine.Register(SvcDigest, r.handleDigest)
	cfg.Store.SetOnApply(r.onStoreApply)
	cfg.Engine.SetOnExecuted(r.onExecuted)
	return r, nil
}

// Client exposes the outbound QRPC client so a transport can be attached
// toward the peer engine (DialTCP, a Pipe, or a simulator link).
func (r *Replicator) Client() *qrpc.Client { return r.client }

// Stats returns a snapshot of the replication counters.
func (r *Replicator) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Lag returns the outbound backlog: replication records enqueued but not
// yet acknowledged by the peer. Zero means the peer has applied (or
// duplicated) everything this server has committed.
func (r *Replicator) Lag() int { return r.client.Pending() }

// Close detaches the replicator from its store and engine and closes the
// outbound client. The attached transport is closed by its owner.
func (r *Replicator) Close() error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.cfg.Store.SetOnApply(nil)
	r.cfg.Engine.SetOnExecuted(nil)
	return r.client.Close()
}

// onClientStatus watches the outbound session: every disconnected→connected
// transition triggers an anti-entropy sweep, because the gap may have
// dropped queued records (peer rebuilt from scratch) that redelivery alone
// cannot regenerate.
func (r *Replicator) onClientStatus(si qrpc.StatusInfo) {
	r.mu.Lock()
	was := r.connected
	r.connected = si.Connected
	closed := r.closed
	r.mu.Unlock()
	if !was && si.Connected && !closed {
		r.SyncNow()
	}
}

// onStoreApply converts one locally committed mutation into a replication
// record. It runs under the store lock (commit order = stream order) and
// only enqueues — the QRPC client never calls back into the store.
func (r *Replicator) onStoreApply(ev store.ApplyEvent) {
	rec := &Record{URN: ev.URN, PrevVersion: ev.PrevVersion, Version: ev.Version}
	switch ev.Kind {
	case store.ApplyOps:
		rec.Kind = KindOps
		rec.Invs = ev.Invs
		rec.Src = ev.Src
		rec.Check = proto.ObjectCheck(ev.Object)
	case store.ApplyState:
		rec.Kind = KindState
		rec.Object = ev.Object
	default:
		return
	}
	r.send(rec, false)
	r.mu.Lock()
	r.stats.RecordsStreamed++
	r.mu.Unlock()
}

// onExecuted streams one executed request's reply to the peer so a client
// that fails over there is answered from cache. The engine hands us the
// reply's wire encoding produced at execution time, which the record carries
// as is. Replication traffic itself is excluded — the peer executed ours, we
// executed theirs.
func (r *Replicator) onExecuted(clientID string, req qrpc.Request, enc []byte) {
	if IsReplClient(clientID) || IsReplService(req.Service) {
		return
	}
	rec := &Record{Kind: KindExec, ClientID: clientID, Reply: enc}
	r.send(rec, false)
	r.mu.Lock()
	r.stats.ExecsStreamed++
	r.mu.Unlock()
}

// send enqueues one record toward the peer and arranges reply handling,
// returning the record's encoded size (0 when the enqueue failed). catchup
// marks records pushed by the catch-up path, whose completion clears the
// per-object in-flight marker.
func (r *Replicator) send(rec *Record, catchup bool) int {
	u := rec.URN
	enc := wire.Marshal(rec)
	p, err := r.client.Enqueue(SvcApply, enc, qrpc.PriorityNormal, r.cfg.Clock.Now())
	if err != nil {
		r.mu.Lock()
		r.stats.Errors++
		if catchup {
			delete(r.inflight, u)
		}
		r.mu.Unlock()
		return 0
	}
	kind := rec.Kind
	p.OnComplete(func(p *qrpc.Promise) {
		if catchup {
			r.mu.Lock()
			delete(r.inflight, u)
			r.mu.Unlock()
		}
		result, err, _ := p.Result()
		if err != nil {
			r.noteError()
			return
		}
		var ar ApplyReply
		if werr := wire.Unmarshal(result, &ar); werr != nil {
			r.noteError()
			return
		}
		if kind == KindExec {
			return // nothing to catch up for an exec record
		}
		switch ar.Status {
		case ApplyBehind:
			r.mu.Lock()
			r.stats.Behind++
			r.mu.Unlock()
			r.pushCatchUp(u, ar.HaveVersion, true)
		case ApplyNeedState:
			r.mu.Lock()
			r.stats.Behind++
			r.mu.Unlock()
			r.pushCatchUp(u, 0, false)
		}
	})
	if r.cfg.Kick != nil {
		r.cfg.Kick()
	}
	return len(enc)
}

// pushCatchUp advances the peer's copy of u from its version `have` by the
// rule a client's stale copy is revalidated by: an operation delta when the
// store's history spans the gap (OpsSince), the whole object otherwise.
// With delta false it ships the whole object regardless: replay at the peer
// diverged, or its same-version copy lost the digest tie-break. At most one
// push per object is in flight — a burst of Behind replies for the same
// object collapses to one transfer (the version guard at the receiver makes
// any extras harmless duplicates).
func (r *Replicator) pushCatchUp(u urn.URN, have uint64, delta bool) {
	r.mu.Lock()
	if r.inflight[u] {
		r.mu.Unlock()
		return
	}
	r.inflight[u] = true
	r.mu.Unlock()

	obj, err := r.cfg.Store.Get(u)
	if err != nil {
		// No request deletes an object, so this is a read fault (a failed
		// fault-in, or a closed store). Count it; the next sweep retries.
		r.mu.Lock()
		delete(r.inflight, u)
		r.stats.Errors++
		r.mu.Unlock()
		return
	}
	if delta {
		if have >= obj.Version {
			// Peer is caught up (or ahead: its own stream will reach us).
			r.mu.Lock()
			delete(r.inflight, u)
			r.mu.Unlock()
			return
		}
		if ops, newVer, src, ok := r.cfg.Store.OpsSince(u, have); ok && newVer == obj.Version {
			// A one-step record carries its source, as the stream's own
			// records do, so the replica can recognize the export redelivered.
			n := r.send(&Record{Kind: KindOps, URN: u, PrevVersion: have, Version: newVer,
				Invs: ops, Src: src, Check: proto.CheckOf(obj)}, true)
			r.mu.Lock()
			r.stats.CatchUps++
			r.stats.CatchUpBytes += int64(n)
			r.mu.Unlock()
			return
		}
	}
	n := r.send(&Record{Kind: KindState, URN: u, Object: obj.Encode()}, true)
	r.mu.Lock()
	r.stats.FullSyncs++
	r.stats.FullSyncBytes += int64(n)
	r.mu.Unlock()
}

// SyncNow runs one anti-entropy sweep: fetch the peer's digest and push
// catch-up for every object the local store is ahead on (or the peer lacks
// entirely). Divergent same-version replicas are repaired toward the
// larger ServerID's copy. A sweep only ever adds or advances objects: an
// object missing from the peer's digest is pushed, so a freshly rebuilt
// (empty) peer can never erase the survivor's store.
func (r *Replicator) SyncNow() {
	p, err := r.client.Enqueue(SvcDigest, nil, qrpc.PriorityNormal, r.cfg.Clock.Now())
	if err != nil {
		r.noteError()
		return
	}
	p.OnComplete(func(p *qrpc.Promise) {
		result, err, _ := p.Result()
		if err != nil {
			r.noteError()
			return
		}
		var dig DigestReply
		if werr := wire.Unmarshal(result, &dig); werr != nil {
			r.noteError()
			return
		}
		r.applyDigest(&dig)
	})
	if r.cfg.Kick != nil {
		r.cfg.Kick()
	}
}

func (r *Replicator) applyDigest(dig *DigestReply) {
	peer := make(map[urn.URN]DigestEntry, len(dig.Entries))
	for _, e := range dig.Entries {
		peer[e.URN] = e
	}
	peerID := dig.ServerID
	for _, e := range r.cfg.Store.ListAll() {
		pe, ok := peer[e.URN]
		switch {
		case !ok:
			r.pushCatchUp(e.URN, 0, true)
		case pe.Version < e.Version:
			r.pushCatchUp(e.URN, pe.Version, true)
		case pe.Version == e.Version:
			obj, err := r.cfg.Store.Get(e.URN)
			if err != nil {
				r.noteError() // a read fault, as in pushCatchUp
				continue
			}
			if proto.CheckOf(obj) != pe.Check && r.cfg.ServerID > peerID {
				// Same version, different bytes: deterministic winner (the
				// larger ServerID) pushes its copy; the loser's handler
				// accepts the equal-version replace from it.
				r.pushCatchUp(e.URN, 0, false)
			}
		}
	}
	r.mu.Lock()
	r.stats.DigestSweeps++
	r.mu.Unlock()
}

// handleApply is the SvcApply service: apply one replication record from
// the peer, answering with the local version when it cannot be applied so
// the peer can push catch-up.
func (r *Replicator) handleApply(clientID string, req qrpc.Request) ([]byte, error) {
	var rec Record
	if err := wire.Unmarshal(req.Args, &rec); err != nil {
		return nil, fmt.Errorf("repl: bad record: %w", err)
	}
	switch rec.Kind {
	case KindOps:
		return r.applyOps(&rec)
	case KindState:
		return r.applyState(clientID, &rec)
	case KindExec:
		return r.applyExec(&rec)
	default:
		return nil, fmt.Errorf("repl: unknown record kind %q", rec.Kind)
	}
}

func applyReply(status byte, have uint64) []byte {
	return wire.Marshal(&ApplyReply{Status: status, HaveVersion: have})
}

func (r *Replicator) applyOps(rec *Record) ([]byte, error) {
	cur, err := r.cfg.Store.Version(rec.URN)
	if err != nil {
		return applyReply(ApplyBehind, 0), nil
	}
	if rec.Version <= cur {
		r.noteDuplicate()
		return applyReply(ApplyOK, cur), nil
	}
	if cur != rec.PrevVersion {
		return applyReply(ApplyBehind, cur), nil
	}
	base, err := r.cfg.Store.Get(rec.URN)
	if err != nil {
		return applyReply(ApplyBehind, 0), nil
	}
	env, err := rdo.NewEnv(base, rdo.EnvOptions{Sandbox: rdo.Trusted})
	if err != nil {
		return applyReply(ApplyNeedState, cur), nil
	}
	for _, op := range rec.Invs {
		if _, err := env.Invoke(op.Method, op.Args...); err != nil {
			// The method may depend on server-side host commands; the
			// sender falls back to a state transfer.
			return applyReply(ApplyNeedState, cur), nil
		}
	}
	env.TakeOps() // replicated committed ops are not tentative
	base.Version = rec.Version
	if proto.CheckOf(base) != rec.Check {
		return applyReply(ApplyNeedState, cur), nil
	}
	if rec.Version == rec.PrevVersion+1 {
		// Single-step commit: install through the ops path so this replica
		// keeps serving operation deltas (and catch-ups) for the object.
		if _, err := r.cfg.Store.InstallOps(base, rec.PrevVersion, rec.Invs, rec.Src); err != nil {
			cur2, verr := r.cfg.Store.Version(rec.URN)
			if verr != nil {
				return applyReply(ApplyBehind, 0), nil
			}
			return applyReply(ApplyBehind, cur2), nil
		}
	} else {
		// Spanning catch-up record: the intermediate versions are opaque
		// here, so install the result as a state jump.
		if _, err := r.cfg.Store.InstallState(base); err != nil {
			r.noteDuplicate()
			return applyReply(ApplyOK, rec.Version), nil
		}
	}
	r.noteApplied()
	return applyReply(ApplyOK, rec.Version), nil
}

func (r *Replicator) applyState(clientID string, rec *Record) ([]byte, error) {
	obj, err := rdo.Decode(rec.Object)
	if err != nil {
		return nil, fmt.Errorf("repl: bad object: %w", err)
	}
	cur, verr := r.cfg.Store.Version(obj.URN)
	if verr == nil {
		if obj.Version < cur {
			r.noteDuplicate()
			return applyReply(ApplyOK, cur), nil
		}
		if obj.Version == cur {
			local, lerr := r.cfg.Store.Get(obj.URN)
			if lerr == nil && proto.CheckOf(local) == proto.ObjectCheck(rec.Object) {
				r.noteDuplicate()
				return applyReply(ApplyOK, cur), nil
			}
			// Divergent same-version replicas: accept only from the
			// deterministic winner (the larger ServerID).
			if peerServerID(clientID) <= r.cfg.ServerID {
				return applyReply(ApplyOK, cur), nil
			}
		}
	}
	if _, err := r.cfg.Store.InstallState(obj); err != nil {
		r.noteDuplicate()
		return applyReply(ApplyOK, obj.Version), nil
	}
	r.noteApplied()
	return applyReply(ApplyOK, obj.Version), nil
}

func (r *Replicator) applyExec(rec *Record) ([]byte, error) {
	if IsReplClient(rec.ClientID) {
		return applyReply(ApplyOK, 0), nil
	}
	installed, err := r.cfg.Engine.InstallReply(rec.ClientID, rec.Reply)
	if err != nil {
		return nil, fmt.Errorf("repl: bad exec reply: %w", err)
	}
	if installed {
		r.mu.Lock()
		r.stats.ExecInstalled++
		r.mu.Unlock()
	}
	return applyReply(ApplyOK, 0), nil
}

// handleDigest is the SvcDigest service: summarize every local object.
func (r *Replicator) handleDigest(clientID string, req qrpc.Request) ([]byte, error) {
	entries := r.cfg.Store.ListAll()
	dig := DigestReply{ServerID: r.cfg.ServerID, Entries: make([]DigestEntry, 0, len(entries))}
	for _, e := range entries {
		obj, err := r.cfg.Store.Get(e.URN)
		if err != nil {
			// A read fault (no request deletes an object): leave the entry
			// out and count it. The sweeper then pushes its copy, which the
			// version guard absorbs.
			r.noteError()
			continue
		}
		dig.Entries = append(dig.Entries, DigestEntry{
			URN: e.URN, Version: obj.Version, Check: proto.CheckOf(obj),
		})
	}
	return wire.Marshal(&dig), nil
}

func (r *Replicator) noteApplied() {
	r.mu.Lock()
	r.stats.Applied++
	r.mu.Unlock()
}

func (r *Replicator) noteDuplicate() {
	r.mu.Lock()
	r.stats.Duplicates++
	r.mu.Unlock()
}

func (r *Replicator) noteError() {
	r.mu.Lock()
	r.stats.Errors++
	r.mu.Unlock()
}

// peerServerID recovers the peer server's name from its repl client
// identity ("B!repl" → "B", "B#3!repl" → "B").
func peerServerID(clientID string) string {
	id := strings.TrimSuffix(clientID, ClientSuffix)
	if i := strings.IndexByte(id, '#'); i >= 0 {
		id = id[:i]
	}
	return id
}
