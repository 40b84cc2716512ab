// Package access implements the Rover access manager — the client-side
// core of the toolkit.
//
// "On the mobile host, applications communicate with an access manager
// that mediates all interactions with the servers": imports fill the local
// cache, method invocations on cached RDOs execute locally and produce
// tentative data, exports ship the queued operations back to each object's
// home server, and prefetching fills the cache while connectivity lasts.
// The access manager also maintains the user-notification state (queue
// depths, tentative counts, connectivity) that mobile UIs surface.
package access

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"sync"

	"rover/internal/cache"
	"rover/internal/proto"
	"rover/internal/qrpc"
	"rover/internal/rdo"
	"rover/internal/session"
	"rover/internal/urn"
	"rover/internal/vtime"
	"rover/internal/wire"
)

// Errors returned by the access manager.
var (
	ErrNotCached       = errors.New("access: object not in cache")
	ErrNothingToExport = errors.New("access: no tentative operations to export")
	ErrExportInFlight  = errors.New("access: export already in flight")
	ErrTentativePinned = errors.New("access: object has tentative data")
	ErrShedLoad        = errors.New("access: pending queue full, request shed")
)

// TentativePolicy selects whether an import may be served from a cache
// entry carrying uncommitted local operations. "Applications can specify
// whether they will accept tentative data when importing an object."
type TentativePolicy int

// Tentative policies; the zero value accepts tentative data (the common
// disconnected-operation case).
const (
	AcceptTentative TentativePolicy = iota
	RejectTentative
)

// ImportOptions tune one import.
type ImportOptions struct {
	// Priority of the QRPC if the import goes remote (0 = Normal).
	Priority qrpc.Priority
	// Revalidate forces a server round trip even on a cache hit (cheap
	// when unchanged: the server answers NotModified).
	Revalidate bool
	// Tentative selects whether tentative cache entries are acceptable.
	Tentative TentativePolicy
}

// InvokeResult is the outcome of a server-side method execution.
type InvokeResult struct {
	Result     string
	NewVersion uint64
	Mutated    bool
}

// ExportResult is the outcome of an export.
type ExportResult struct {
	Outcome    proto.Outcome
	NewVersion uint64
	Message    string
}

// Future is the access manager's typed promise, the toolkit's one
// completion type: Import, Export and the other non-blocking operations
// return one.
type Future[T any] = qrpc.Future[T]

// resolvedFuture returns an already-completed future (cache fast path).
func resolvedFuture[T any](v T, err error) *Future[T] {
	f := new(Future[T])
	f.Complete(v, err)
	return f
}

// Status is the user-notification snapshot.
type Status struct {
	qrpc.StatusInfo
	TentativeObjects int
	CachedObjects    int
}

// Stats counts access-manager activity for the benchmark harness.
type Stats struct {
	CacheServes    int64 // imports answered locally
	ImportsSent    int64
	NotModified    int64
	DeltaImports   int64 // imports satisfied by replaying an op delta
	DeltaFallbacks int64 // delta replies that fell back to a full import
	LocalInvokes   int64
	RemoteInvokes  int64
	ExportsSent    int64
	// LeanExports counts export replies that carried no object because the
	// server's committed state matched the checksum sent with the export;
	// ExportRefetches counts export replies the cache could not use (object
	// undecodable, or an empty reply that no longer matches the entry) and
	// answered with a revalidating import.
	LeanExports     int64
	ExportRefetches int64
	Conflicts       int64
	Prefetches      int64
	Invalidations   int64
	Shed            int64 // QRPCs refused by pending-queue backpressure
}

// Config configures an access manager.
type Config struct {
	// Engine is the client QRPC engine. Required.
	Engine *qrpc.Client
	// Kick, if non-nil, is invoked after every enqueue so the transport
	// transmits promptly (wire it to transport.ClientTransport.Kick).
	Kick func()
	// Clock supplies timestamps; nil selects real time.
	Clock vtime.Clock
	// CacheBytes bounds the object cache (<= 0: unbounded).
	CacheBytes int
	// Guarantees selects the session guarantees enforced on reads.
	Guarantees session.Guarantee
	// AutoExport exports after every mutating local invocation. The
	// operations still ride the queue — AutoExport costs nothing while
	// disconnected, and makes reconnection drain everything automatically.
	AutoExport bool
	// MaxPending bounds the engine's pending queue (queued + awaiting
	// reply) for graceful degradation when the transport or stable log is
	// failing. At MaxPending, low-priority QRPCs (prefetches) are shed with
	// ErrShedLoad; at twice MaxPending, every new QRPC is shed, protecting
	// the stable log and memory from unbounded growth. Zero disables the
	// bound.
	MaxPending int
	// Stdout receives `puts` output from locally executed RDO code.
	Stdout io.Writer
	// OnConflict is told when exported operations were rejected (manual
	// repair needed) or dropped during reapplication.
	OnConflict func(u urn.URN, message string)
	// OnInvalidate is told when a server callback invalidated a cached
	// object.
	OnInvalidate func(u urn.URN, newVersion uint64)
	// OnOverload is told when a request was hard-shed (the pending queue
	// reached twice MaxPending): the server this client is bound to is
	// refusing to drain. A multi-homed transport uses it to fail over to a
	// backup replica. Called outside the manager lock.
	OnOverload func()
}

// AccessManager mediates all Rover interaction for one client.
type AccessManager struct {
	mu    sync.Mutex
	cfg   Config
	cache *cache.Cache
	sess  *session.Session
	stats Stats
}

// New builds an access manager.
func New(cfg Config) (*AccessManager, error) {
	if cfg.Engine == nil {
		return nil, errors.New("access: Engine is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = vtime.NewRealClock()
	}
	return &AccessManager{
		cfg:   cfg,
		cache: cache.New(cfg.CacheBytes),
		sess:  session.New(cfg.Guarantees),
	}, nil
}

func (am *AccessManager) now() vtime.Time { return am.cfg.Clock.Now() }

func pri(p qrpc.Priority) qrpc.Priority {
	if p == 0 {
		return qrpc.PriorityNormal
	}
	return p
}

// enqueue ships a QRPC whose arguments b holds, returns b to the pool and
// kicks the transport. It is the single chokepoint for every outgoing
// request, which is where backpressure belongs: when the queue is backed up
// (dead link, failing log), shed prefetches first, then everything.
func (am *AccessManager) enqueue(svc string, b *wire.Buffer, p qrpc.Priority) (*qrpc.Promise, error) {
	defer wire.PutBuffer(b)
	if limit := am.cfg.MaxPending; limit > 0 {
		pending := am.cfg.Engine.Pending()
		if pending >= 2*limit || (pending >= limit && pri(p) == qrpc.PriorityLow) {
			hard := pending >= 2*limit
			am.mu.Lock()
			am.stats.Shed++
			am.mu.Unlock()
			if hard && am.cfg.OnOverload != nil {
				// Every-priority shedding means the bound server is not
				// draining at all; give the transport a chance to rotate to
				// a backup replica.
				am.cfg.OnOverload()
			}
			return nil, fmt.Errorf("%w: %d pending (limit %d)", ErrShedLoad, pending, limit)
		}
	}
	// Enqueue copies the arguments into its log record.
	prom, err := am.cfg.Engine.Enqueue(svc, b.Bytes(), pri(p), am.now())
	if err != nil {
		return nil, err
	}
	if am.cfg.Kick != nil {
		am.cfg.Kick()
	}
	return prom, nil
}

// send enqueues a request and attaches h to its promise. A request that
// cannot be queued completes h with the error at once.
func (am *AccessManager) send(svc string, b *wire.Buffer, p qrpc.Priority, h qrpc.Hook[[]byte]) {
	prom, err := am.enqueue(svc, b, p)
	if err != nil {
		h.Completed(nil, err)
		return
	}
	prom.Attach(h)
}

// Import obtains an object, from the cache when permissible, otherwise by
// queueing a QRPC to the home server. The returned future yields a private
// clone: applications inspect it freely and mutate the real object only
// through Invoke.
func (am *AccessManager) Import(u urn.URN, opts ImportOptions) *Future[*rdo.Object] {
	am.mu.Lock()
	haveVersion := uint64(0)
	if e, ok := am.cache.Get(u); ok {
		haveVersion = e.CommittedVersion
		tentativeOK := !(e.Tentative && opts.Tentative == RejectTentative)
		fresh := am.sess.CheckRead(u, e.CommittedVersion) == nil
		if !opts.Revalidate && tentativeOK && fresh {
			am.stats.CacheServes++
			obj := e.Obj.Clone()
			am.sess.RecordRead(u, e.CommittedVersion)
			am.mu.Unlock()
			return resolvedFuture(obj, nil)
		}
	}
	am.stats.ImportsSent++
	am.mu.Unlock()

	op := &importOp{am: am, u: u, p: opts.Priority}
	op.send(haveVersion)
	return &op.Future
}

// importOp is an import waiting on its server round trip: the future the
// caller holds and the hook the reply completes it through.
type importOp struct {
	Future[*rdo.Object]
	am *AccessManager
	u  urn.URN
	p  qrpc.Priority
}

// send queues the import's request. It may run twice: a delta reply the
// cache cannot apply falls back to a full import with HaveVersion 0 for the
// same future, and the server never answers HaveVersion 0 with a delta, so
// the fallback terminates.
func (op *importOp) send(haveVersion uint64) {
	b := wire.GetBuffer()
	(&proto.ImportArgs{URN: op.u, HaveVersion: haveVersion}).MarshalWire(b)
	op.am.send(proto.SvcImport, b, op.p, op)
}

// Completed takes in the import's reply.
func (op *importOp) Completed(res []byte, err error) {
	if err != nil {
		op.Fail(err)
		return
	}
	am, u := op.am, op.u
	var rep proto.ImportReply
	r := wire.OwnedReader(res)
	if err := cmp.Or(rep.UnmarshalWire(&r), r.Finish()); err != nil {
		op.Fail(err)
		return
	}
	if rep.NotModified {
		am.mu.Lock()
		am.stats.NotModified++
		e, ok := am.cache.Get(u)
		if !ok {
			am.mu.Unlock()
			op.Fail(fmt.Errorf("access: NotModified for %s but cache entry gone", u))
			return
		}
		obj := e.Obj.Clone()
		am.sess.RecordRead(u, e.CommittedVersion)
		am.mu.Unlock()
		op.Resolve(obj)
		return
	}
	if rep.Delta {
		if out, ok := am.applyDelta(u, &rep); ok {
			op.Resolve(out)
			return
		}
		// The delta no longer matches what we hold (entry evicted or
		// moved, replay failed, or the checksum disagreed): re-import the
		// whole object.
		am.mu.Lock()
		am.stats.DeltaFallbacks++
		am.stats.ImportsSent++
		am.mu.Unlock()
		op.send(0)
		return
	}
	obj, err := rdo.Decode(rep.Object)
	if err != nil {
		op.Fail(err)
		return
	}
	am.mu.Lock()
	out := am.adoptCommittedLocked(obj).Obj.Clone()
	am.sess.RecordRead(u, obj.Version)
	am.mu.Unlock()
	op.Resolve(out)
}

// applyDelta advances the cached committed copy of u by replaying a delta
// reply's invocations (see advanceCommittedLocked). ok=false means the
// caller must fall back to a full import: the cache entry is gone or at a
// different committed version than the delta's base, or the replay could
// not be verified.
func (am *AccessManager) applyDelta(u urn.URN, rep *proto.ImportReply) (*rdo.Object, bool) {
	am.mu.Lock()
	defer am.mu.Unlock()
	e, ok := am.cache.Peek(u)
	if !ok || e.CommittedVersion != rep.FromVersion || rep.NewVersion <= rep.FromVersion {
		return nil, false
	}
	adopted := am.advanceCommittedLocked(e, rep.Ops, rep.NewVersion, rep.Check)
	if adopted == nil {
		return nil, false
	}
	am.stats.DeltaImports++
	am.sess.RecordRead(u, rep.NewVersion)
	return adopted.Obj.Clone(), true
}

// advanceCommittedLocked moves e's committed copy to newVer by replaying
// ops — the server's, for a delta import; the client's own just-committed
// ones, for an export reply that carried no object — and adopts the result
// only if its encoding hashes to check, the checksum of the server's
// object at newVer. It returns the entry that holds the result (see
// adoptCommittedLocked), or nil with e untouched: the replay erred (e.g.
// the method needs a server-only host command) or the replayed state does
// not match the server's byte for byte.
func (am *AccessManager) advanceCommittedLocked(e *cache.Entry, ops []rdo.Invocation, newVer uint64, check uint32) *cache.Entry {
	// Replay against the PRISTINE committed copy — the working copy may
	// carry tentative operations, which adoptCommittedLocked rebases on
	// top of the new committed state afterwards, same as a full import.
	pristine := e.Obj
	if e.Committed != nil {
		pristine = e.Committed
	}
	next := pristine.Clone()
	env, err := am.newEnvLocked(next)
	if err != nil {
		return nil
	}
	for _, op := range ops {
		if _, err := env.Invoke(op.Method, op.Args...); err != nil {
			return nil
		}
	}
	next.Version = newVer
	if proto.CheckOf(next) != check {
		return nil
	}
	return am.adoptCommittedLocked(next)
}

// adoptCommittedLocked installs a fresh committed copy, replaying any
// local tentative operations on top of it (the client-side analog of
// Bayou's reapplication of tentative writes over new committed state).
//
// It returns the entry it filled, which callers answer from instead of
// looking the URN up again: an object bigger than the whole cache budget is
// evicted by its own insertion (the budget is the user's bound and is not
// stretched for it), so the lookup would find nothing.
func (am *AccessManager) adoptCommittedLocked(committed *rdo.Object) *cache.Entry {
	u := committed.URN
	e, ok := am.cache.Peek(u)
	if !ok || len(e.PendingOps) == 0 {
		entry := am.cache.Put(committed, am.now())
		entry.Committed = nil // Obj itself is the clean committed copy
		entry.Tentative = false
		entry.PendingOps = nil
		return entry
	}
	// Rebase tentative ops onto the new committed state.
	base := committed.Clone()
	env, err := am.newEnvLocked(base)
	var kept []rdo.Invocation
	if err != nil {
		am.conflictLocked(u, fmt.Sprintf("loading new committed code: %v", err))
		e.InFlightCount = 0
	} else {
		kept = am.replayPendingLocked(e, env, "rebase")
	}
	entry := am.cache.Put(committed, am.now())
	entry.Obj = base
	entry.Committed = committed
	entry.PendingOps = kept
	entry.Tentative = len(kept) > 0
	if err == nil {
		entry.Env = env
	}
	am.cache.Touch(u)
	return entry
}

// rebuildWorkingLocked reconstructs the entry's working copy from its
// pristine committed copy plus the recorded pending operations. Ops that
// no longer apply are dropped with a conflict notification.
func (am *AccessManager) rebuildWorkingLocked(e *cache.Entry) {
	u := e.Obj.URN
	base := e.Committed.Clone()
	env, err := am.newEnvLocked(base)
	if err != nil {
		// Committed code no longer loads; keep the (tainted) working copy
		// rather than losing state entirely.
		am.conflictLocked(u, fmt.Sprintf("rebuild failed: %v", err))
		return
	}
	kept := am.replayPendingLocked(e, env, "rebuild")
	e.Obj = base
	e.PendingOps = kept
	e.Tentative = len(kept) > 0
	e.Env = env
	am.cache.Touch(u)
}

// replayPendingLocked replays e's pending operations in env and returns
// the ones that still apply; the rest are dropped with a conflict
// notification. Dropping an operation that rides an in-flight export keeps
// InFlightCount pointing at the same operations and voids what the export
// predicted: the working copy no longer matches it.
func (am *AccessManager) replayPendingLocked(e *cache.Entry, env *rdo.Env, when string) []rdo.Invocation {
	var kept []rdo.Invocation
	inFlight := e.InFlightCount
	for i, op := range e.PendingOps {
		if _, err := env.Invoke(op.Method, op.Args...); err != nil {
			am.conflictLocked(op.Object, fmt.Sprintf("tentative %s dropped on %s: %v", op.Method, when, err))
			if i < inFlight {
				e.InFlightCount--
				e.ExportBase = 0
			}
			continue
		}
		kept = append(kept, op)
	}
	env.TakeOps()
	return kept
}

func (am *AccessManager) newEnvLocked(obj *rdo.Object) (*rdo.Env, error) {
	return rdo.NewEnv(obj, rdo.EnvOptions{Sandbox: rdo.Trusted, Stdout: am.cfg.Stdout})
}

// envForLocked returns the entry's execution environment, building it on
// first use. The environment is kept on the entry, so it lives exactly as
// long as the cached object it is bound to.
func (am *AccessManager) envForLocked(e *cache.Entry) (*rdo.Env, error) {
	if e.Env == nil || e.Env.Object() != e.Obj {
		env, err := am.newEnvLocked(e.Obj)
		if err != nil {
			return nil, err
		}
		e.Env = env
	}
	return e.Env, nil
}

func (am *AccessManager) conflictLocked(u urn.URN, msg string) {
	am.stats.Conflicts++
	if am.cfg.OnConflict != nil {
		cb := am.cfg.OnConflict
		// Fire outside the lock to allow re-entry.
		go cb(u, msg)
	}
}

// Invoke executes a method on the locally cached RDO. Mutations become
// tentative data queued for export (immediately, under AutoExport). This
// is the fast path the paper measures against remote RPC: no network, no
// queue — just the interpreter.
func (am *AccessManager) Invoke(u urn.URN, method string, args ...string) (string, error) {
	am.mu.Lock()
	e, ok := am.cache.Get(u)
	if !ok {
		am.mu.Unlock()
		return "", fmt.Errorf("%w: %s", ErrNotCached, u)
	}
	env, err := am.envForLocked(e)
	if err != nil {
		am.mu.Unlock()
		return "", err
	}
	// Copy-on-first-write: keep the pristine committed copy so a failing
	// method's partial mutations can be rolled back.
	if e.Committed == nil {
		e.Committed = e.Obj.Clone()
	}
	result, err := env.Invoke(method, args...)
	mutated := false
	if err == nil {
		if ops := env.TakeOps(); len(ops) > 0 {
			e.PendingOps = append(e.PendingOps, rdo.Invocation{
				Object: u, Method: method, Args: args, BaseVer: e.CommittedVersion,
			})
			e.Tentative = true
			am.cache.Touch(u)
			mutated = true
		}
	} else if len(env.TakeOps()) > 0 {
		// The failed method mutated state before erroring. Rebuild the
		// working copy from committed + surviving pending ops so no
		// phantom state remains.
		am.rebuildWorkingLocked(e)
	}
	am.stats.LocalInvokes++
	autoExport := mutated && am.cfg.AutoExport && !e.ExportInFlight
	am.mu.Unlock()
	if err != nil {
		return "", err
	}
	if autoExport {
		am.Export(u, qrpc.PriorityNormal)
	}
	return result, nil
}

// InvokeRemote executes a method at the object's home server without
// importing it — function shipping, the right placement when the object
// is large and the result small.
func (am *AccessManager) InvokeRemote(u urn.URN, method string, args []string, p qrpc.Priority) *Future[InvokeResult] {
	am.mu.Lock()
	am.stats.RemoteInvokes++
	am.mu.Unlock()
	op := &invokeOp{am: am, u: u}
	b := wire.GetBuffer()
	(&proto.InvokeArgs{URN: u, Method: method, Args: args}).MarshalWire(b)
	am.send(proto.SvcInvoke, b, p, op)
	return &op.Future
}

// invokeOp is a remote invocation waiting on its reply.
type invokeOp struct {
	Future[InvokeResult]
	am *AccessManager
	u  urn.URN
}

// Completed takes in the invocation's reply.
func (op *invokeOp) Completed(res []byte, err error) {
	var rep proto.InvokeReply
	if err == nil {
		err = wire.Unmarshal(res, &rep)
	}
	if err != nil {
		op.Fail(err)
		return
	}
	if rep.Mutated {
		am := op.am
		am.mu.Lock()
		am.sess.RecordWrite(op.u, rep.NewVersion)
		// The local copy (if any) is now stale; drop clean copies so the
		// next import refetches.
		if e, ok := am.cache.Peek(op.u); ok && !e.Tentative && !e.ExportInFlight {
			am.cache.Remove(op.u)
		}
		am.mu.Unlock()
	}
	op.Resolve(InvokeResult{Result: rep.Result, NewVersion: rep.NewVersion, Mutated: rep.Mutated})
}

// InvokeBest is the dynamic-placement helper: "depending on the power of
// the mobile host and the available bandwidth, Rover dynamically adapts
// and moves functionality between the client and the server." The policy:
// a cached object executes locally (free, works disconnected); an uncached
// one ships the invocation to the server rather than paying the object
// transfer for one call. Applications that know better call Invoke or
// InvokeRemote directly.
func (am *AccessManager) InvokeBest(u urn.URN, method string, args []string, p qrpc.Priority) *Future[InvokeResult] {
	am.mu.Lock()
	_, cached := am.cache.Peek(u)
	am.mu.Unlock()
	if cached {
		result, err := am.Invoke(u, method, args...)
		if err != nil {
			return resolvedFuture(InvokeResult{}, err)
		}
		am.mu.Lock()
		ver := uint64(0)
		if e, ok := am.cache.Peek(u); ok {
			ver = e.CommittedVersion
		}
		am.mu.Unlock()
		return resolvedFuture(InvokeResult{Result: result, NewVersion: ver}, nil)
	}
	return am.InvokeRemote(u, method, args, p)
}

// Export ships the object's queued tentative operations to its home
// server. The future reports commit, automatic resolution, or conflict.
func (am *AccessManager) Export(u urn.URN, p qrpc.Priority) (*Future[ExportResult], error) {
	am.mu.Lock()
	e, ok := am.cache.Peek(u)
	if !ok {
		am.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotCached, u)
	}
	if len(e.PendingOps) == 0 {
		am.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNothingToExport, u)
	}
	if e.ExportInFlight {
		am.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrExportInFlight, u)
	}
	b := wire.GetBuffer()
	am.beginExportLocked(u, e, b)
	am.stats.ExportsSent++
	am.mu.Unlock()

	op := &exportOp{am: am, u: u}
	prom, err := am.enqueue(proto.SvcExport, b, p)
	if err != nil {
		am.mu.Lock()
		e.ExportInFlight = false
		e.InFlightCount = 0
		e.ExportBase = 0
		am.mu.Unlock()
		op.Fail(err)
		return &op.Future, nil
	}
	prom.Attach(op)
	return &op.Future, nil
}

// exportOp is an export waiting on its reply.
type exportOp struct {
	Future[ExportResult]
	am *AccessManager
	u  urn.URN
}

// Completed settles the export.
func (op *exportOp) Completed(res []byte, err error) {
	op.am.onExportReply(op.u, &op.Future, res, err)
}

// beginExportLocked marks every pending operation of e in flight and encodes
// the request that ships them into b, under the lock so the operations are
// not copied. Because it ships them all, the working copy
// stamped BaseVer+1 IS the object a clean replay at the server must
// produce: its checksum rides along as ExportArgs.Expect and the entry
// remembers it, so a server that commits exactly that state can answer
// without the object and onExportReply promotes the copy it already holds.
func (am *AccessManager) beginExportLocked(u urn.URN, e *cache.Entry, b *wire.Buffer) {
	e.ExportInFlight = true
	e.InFlightCount = len(e.PendingOps)
	e.ExportBase = e.CommittedVersion
	e.Obj.Version = e.ExportBase + 1
	e.ExportCheck = proto.CheckOf(e.Obj)
	e.Obj.Version = e.ExportBase
	args := proto.ExportArgs{
		URN:       u,
		BaseVer:   e.ExportBase,
		Invs:      e.PendingOps,
		ReadDep:   am.sess.ReadDependency(u),
		HasExpect: true,
		Expect:    e.ExportCheck,
	}
	args.MarshalWire(b)
}

// onExportReply settles an export: res is the encoded proto.ExportReply,
// perr the server's application error.
func (am *AccessManager) onExportReply(u urn.URN, f *Future[ExportResult], res []byte, perr error) {
	am.mu.Lock()
	e, ok := am.cache.Peek(u)
	if !ok {
		am.mu.Unlock()
		f.Fail(fmt.Errorf("access: cache entry for %s vanished mid-export", u))
		return
	}
	inFlight := e.InFlightCount
	base, check := e.ExportBase, e.ExportCheck
	e.ExportInFlight = false
	e.InFlightCount = 0
	e.ExportBase = 0

	if perr != nil {
		var re *qrpc.RemoteError
		if errors.As(perr, &re) && proto.IsLockRefusal(re.Message, u) {
			// Another client holds a check-out lock. That is a transient
			// refusal, not a verdict on the operations: keep them queued
			// and tentative so a later Export (after the lock clears)
			// retries them.
			am.mu.Unlock()
			f.Fail(perr)
			return
		}
		// The server executed our export and reported an application
		// error (deterministic failure of the operations on an unchanged
		// base). Drop the failed ops and refetch committed state.
		e.PendingOps = append([]rdo.Invocation(nil), e.PendingOps[inFlight:]...)
		e.Tentative = len(e.PendingOps) > 0
		am.conflictLocked(u, perr.Error())
		am.mu.Unlock()
		am.Import(u, ImportOptions{Revalidate: true})
		f.Fail(perr)
		return
	}
	var rep proto.ExportReply
	r := wire.OwnedReader(res)
	if err := cmp.Or(rep.UnmarshalWire(&r), r.Finish()); err != nil {
		am.mu.Unlock()
		f.Fail(err)
		return
	}
	// The exported ops leave the pending queue (committed, merged, or
	// parked in the repair queue); whatever was invoked behind them stays
	// and rebases onto the new committed state.
	sent := e.PendingOps[:inFlight]
	e.PendingOps = append([]rdo.Invocation(nil), e.PendingOps[inFlight:]...)
	switch rep.Outcome {
	case proto.OutcomeCommitted, proto.OutcomeResolved:
		am.sess.RecordWrite(u, rep.NewVersion)
	case proto.OutcomeConflict:
		am.conflictLocked(u, rep.Message)
	}
	// The server sends its object unless it committed exactly the state
	// this export predicted. Anything the cache cannot use — an object
	// that does not decode, an empty reply that no longer matches the
	// entry (a new committed copy was adopted mid-flight) or whose replay
	// disagrees — is counted and refetched, never left stale.
	usable := false
	switch {
	case len(rep.Object) > 0:
		if committed, err := rdo.Decode(rep.Object); err == nil {
			am.adoptCommittedLocked(committed)
			usable = true
		}
	case rep.Outcome != proto.OutcomeCommitted || base == 0 || rep.NewVersion != base+1:
		// An empty reply this entry has no matching expectation for.
	case len(e.PendingOps) == 0:
		// Nothing was invoked since Export: the working copy is the
		// committed object but for its version. Promote it in place; its
		// Env stays bound to it.
		e.Obj.Version = rep.NewVersion
		e.CommittedVersion = rep.NewVersion
		e.Committed = nil
		e.Tentative = false
		e.ImportedAt = am.now()
		am.cache.Touch(u)
		usable = true
	default:
		// Operations queued behind the export: rebuild the committed copy
		// from the pristine one and the operations that were in flight,
		// then rebase the rest on top.
		usable = am.advanceCommittedLocked(e, sent, rep.NewVersion, check) != nil
	}
	switch {
	case !usable:
		am.stats.ExportRefetches++
		if e.Committed != nil {
			// Until the refetch lands, show the committed copy this entry
			// does hold plus what is still pending — not the exported
			// operations' effects on a base that may have moved.
			am.rebuildWorkingLocked(e)
		}
	case len(rep.Object) == 0:
		am.stats.LeanExports++
	}
	more := len(e.PendingOps) > 0 && am.cfg.AutoExport
	am.mu.Unlock()
	switch {
	case !usable:
		// Export the remainder only once the committed copy is current
		// again, so it is based on the version the server holds.
		am.Import(u, ImportOptions{Revalidate: true}).OnReady(func(*rdo.Object, error) {
			if more {
				am.Export(u, qrpc.PriorityNormal)
			}
		})
	case more:
		am.Export(u, qrpc.PriorityNormal)
	}
	f.Resolve(ExportResult{Outcome: rep.Outcome, NewVersion: rep.NewVersion, Message: rep.Message})
}

// ExportAll exports every object with tentative operations.
func (am *AccessManager) ExportAll(p qrpc.Priority) []*Future[ExportResult] {
	var out []*Future[ExportResult]
	for _, u := range am.cache.TentativeURNs() {
		if f, err := am.Export(u, p); err == nil {
			out = append(out, f)
		}
	}
	return out
}

// Create registers a new object at its home server and caches it locally
// on commit.
func (am *AccessManager) Create(obj *rdo.Object, p qrpc.Priority) *Future[uint64] {
	op := &createOp{am: am, snapshot: obj.Clone()}
	b := wire.GetBuffer()
	(&proto.CreateArgs{Object: op.snapshot.Encode()}).MarshalWire(b)
	am.send(proto.SvcCreate, b, p, op)
	return &op.Future
}

// createOp is a create waiting on its reply.
type createOp struct {
	Future[uint64]
	am       *AccessManager
	snapshot *rdo.Object
}

// Completed caches the created object once the server committed it.
func (op *createOp) Completed(res []byte, err error) {
	var rep proto.CreateReply
	if err == nil {
		err = wire.Unmarshal(res, &rep)
	}
	if err != nil {
		op.Fail(err)
		return
	}
	committed := op.snapshot.Clone()
	committed.Version = rep.Version
	am := op.am
	am.mu.Lock()
	am.adoptCommittedLocked(committed)
	am.sess.RecordWrite(committed.URN, rep.Version)
	am.mu.Unlock()
	op.Resolve(rep.Version)
}

// Stat probes an object's existence and version at the server.
func (am *AccessManager) Stat(u urn.URN, p qrpc.Priority) *Future[proto.StatReply] {
	b := wire.GetBuffer()
	(&proto.StatArgs{URN: u}).MarshalWire(b)
	return request(am, proto.SvcStat, b, p, func(res []byte) (rep proto.StatReply, err error) {
		return rep, wire.Unmarshal(res, &rep)
	})
}

// List enumerates server objects under a prefix.
func (am *AccessManager) List(prefix urn.URN, p qrpc.Priority) *Future[[]proto.ListEntry] {
	b := wire.GetBuffer()
	(&proto.ListArgs{Prefix: prefix}).MarshalWire(b)
	return request(am, proto.SvcList, b, p, func(res []byte) ([]proto.ListEntry, error) {
		var rep proto.ListReply
		err := wire.Unmarshal(res, &rep)
		return rep.Entries, err
	})
}

// Subscribe registers for invalidation callbacks on objects under prefix.
func (am *AccessManager) Subscribe(prefix urn.URN, p qrpc.Priority) *Future[struct{}] {
	b := wire.GetBuffer()
	(&proto.SubscribeArgs{Prefix: prefix}).MarshalWire(b)
	return request[struct{}](am, proto.SvcSubscribe, b, p, nil)
}

// CheckoutResult reports a lock attempt.
type CheckoutResult struct {
	Granted bool
	// Holder is the refusing holder, or the displaced holder on a forced
	// grant.
	Holder string
}

// Checkout requests an exclusive application-level lock on an object at
// its home server — the check-in/check-out model the paper inherits from
// Cedar for applications structured as independent atomic actions. While
// held, other clients' exports and server-side invocations are refused
// (they do not enter optimistic conflict resolution). Note the request
// itself rides the queue: acquiring a lock requires connectivity, which is
// the model's intent — take locks while connected, then disconnect and
// work exclusively.
func (am *AccessManager) Checkout(u urn.URN, force bool, p qrpc.Priority) *Future[CheckoutResult] {
	b := wire.GetBuffer()
	(&proto.CheckoutArgs{URN: u, Force: force}).MarshalWire(b)
	return request(am, proto.SvcCheckout, b, p, func(res []byte) (CheckoutResult, error) {
		var rep proto.CheckoutReply
		err := wire.Unmarshal(res, &rep)
		return CheckoutResult{Granted: rep.Granted, Holder: rep.Holder}, err
	})
}

// Checkin releases a check-out lock held by this client.
func (am *AccessManager) Checkin(u urn.URN, p qrpc.Priority) *Future[struct{}] {
	b := wire.GetBuffer()
	(&proto.CheckinArgs{URN: u}).MarshalWire(b)
	return request[struct{}](am, proto.SvcCheckin, b, p, nil)
}

// Conflicts fetches the server's manual-repair queue.
func (am *AccessManager) Conflicts(p qrpc.Priority) *Future[[]proto.ConflictEntry] {
	return request(am, proto.SvcConflicts, wire.GetBuffer(), p, func(res []byte) ([]proto.ConflictEntry, error) {
		var rep proto.ConflictsReply
		err := wire.Unmarshal(res, &rep)
		return rep.Conflicts, err
	})
}

// request sends a simple service's request; its future completes with what
// decode makes of the reply, or with nothing when decode is nil.
func request[T any](am *AccessManager, svc string, b *wire.Buffer, p qrpc.Priority, decode func([]byte) (T, error)) *Future[T] {
	op := &replyOp[T]{decode: decode}
	am.send(svc, b, p, op)
	return &op.Future
}

// replyOp is a simple service's request waiting on its reply.
type replyOp[T any] struct {
	Future[T]
	decode func([]byte) (T, error)
}

// Completed decodes the reply.
func (op *replyOp[T]) Completed(res []byte, err error) {
	var v T
	if err == nil && op.decode != nil {
		v, err = op.decode(res)
	}
	if err != nil {
		op.Fail(err)
		return
	}
	op.Resolve(v)
}

// Prefetch imports an object at low priority, warming the cache for
// disconnection ("this goal is usually accomplished during periods of
// network connectivity by filling the cache with useful information").
func (am *AccessManager) Prefetch(u urn.URN) *Future[*rdo.Object] {
	am.mu.Lock()
	am.stats.Prefetches++
	am.mu.Unlock()
	return am.Import(u, ImportOptions{Priority: qrpc.PriorityLow})
}

// PrefetchPrefix lists the objects under prefix and prefetches every one
// not already cached. The returned future yields how many imports were
// started.
func (am *AccessManager) PrefetchPrefix(prefix urn.URN) *Future[int] {
	f := new(Future[int])
	am.List(prefix, qrpc.PriorityLow).OnReady(func(entries []proto.ListEntry, err error) {
		if err != nil {
			f.Fail(err)
			return
		}
		started := 0
		for _, e := range entries {
			am.mu.Lock()
			cached, ok := am.cache.Peek(e.URN)
			fresh := ok && cached.CommittedVersion >= e.Version
			am.mu.Unlock()
			if !fresh {
				am.Prefetch(e.URN)
				started++
			}
		}
		f.Resolve(started)
	})
	return f
}

// HandleCallback processes a server-initiated notification; wire it to
// qrpc.ClientConfig.OnCallback.
func (am *AccessManager) HandleCallback(topic string, payload []byte) {
	if topic != proto.TopicInvalidate {
		return
	}
	var ev proto.InvalidateEvent
	if err := wire.Unmarshal(payload, &ev); err != nil {
		return
	}
	am.mu.Lock()
	am.stats.Invalidations++
	if e, ok := am.cache.Peek(ev.URN); ok && !e.Tentative && !e.ExportInFlight &&
		ev.NewVersion > e.CommittedVersion {
		am.cache.Remove(ev.URN)
	}
	cb := am.cfg.OnInvalidate
	am.mu.Unlock()
	if cb != nil {
		cb(ev.URN, ev.NewVersion)
	}
}

// Uncache drops a clean cache entry. Tentative entries are pinned and
// return ErrTentativePinned.
func (am *AccessManager) Uncache(u urn.URN) error {
	am.mu.Lock()
	defer am.mu.Unlock()
	e, ok := am.cache.Peek(u)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotCached, u)
	}
	if e.Tentative || e.ExportInFlight {
		return fmt.Errorf("%w: %s", ErrTentativePinned, u)
	}
	am.cache.Remove(u)
	return nil
}

// Cached reports whether u is in the cache (any state).
func (am *AccessManager) Cached(u urn.URN) bool {
	am.mu.Lock()
	defer am.mu.Unlock()
	_, ok := am.cache.Peek(u)
	return ok
}

// Tentative reports whether u carries uncommitted local operations.
func (am *AccessManager) Tentative(u urn.URN) bool {
	am.mu.Lock()
	defer am.mu.Unlock()
	e, ok := am.cache.Peek(u)
	return ok && e.Tentative
}

// Status returns the user-notification snapshot (connectivity, queue
// depths, tentative object count).
func (am *AccessManager) Status() Status {
	st := Status{StatusInfo: am.cfg.Engine.Status()}
	am.mu.Lock()
	st.CachedObjects = am.cache.Len()
	am.mu.Unlock()
	st.TentativeObjects = len(am.cache.TentativeURNs())
	return st
}

// Stats returns a counters snapshot.
func (am *AccessManager) Stats() Stats {
	am.mu.Lock()
	defer am.mu.Unlock()
	return am.stats
}

// Session exposes the session-guarantee state (diagnostics and tests).
func (am *AccessManager) Session() *session.Session { return am.sess }

// CacheStats exposes cache counters for the harness.
func (am *AccessManager) CacheStats() cache.Stats { return am.cache.Stats() }
