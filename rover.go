// Package rover is a Go implementation of the Rover toolkit for mobile
// information access (Joseph, deLespinasse, Tauber, Gifford, Kaashoek —
// SOSP 1995).
//
// Rover combines two mechanisms for building "roving" applications that
// keep working across disconnection and slow links:
//
//   - Relocatable Dynamic Objects (RDOs): named objects carrying
//     interpreted code and state, importable into a client cache and
//     exportable back to their home server. See Object and the rdo
//     documentation.
//   - Queued Remote Procedure Call (QRPC): non-blocking RPC over a stable
//     operation log, drained by priority when connectivity exists, with
//     at-most-once execution across disconnections and crashes.
//
// # Quick start
//
//	srv, _ := rover.NewServer(rover.ServerOptions{ServerID: "home"})
//	obj := rover.NewObject(rover.MustParseURN("urn:rover:home/notes"), "notes")
//	obj.Code = `proc add {line} { state set [state size] $line }`
//	srv.Seed(obj)
//
//	cli, _ := rover.NewClient(rover.ClientOptions{ClientID: "laptop"})
//	link := cli.ConnectPipe(srv)         // or cli.ConnectTCP(addr)
//	link.SetConnected(true)
//
//	cli.ImportWait(ctx, obj.URN)         // fill the cache
//	cli.Invoke(obj.URN, "add", "hello")  // local, tentative, queued
//	// disconnect, keep working, reconnect — the queue drains itself.
//
// The subpackages are exposed for advanced composition; this package
// bundles them the way the paper's applications used the toolkit.
package rover

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"rover/internal/access"
	"rover/internal/auth"
	"rover/internal/proto"
	"rover/internal/qrpc"
	"rover/internal/rdo"
	"rover/internal/repl"
	"rover/internal/resolve"
	"rover/internal/server"
	"rover/internal/session"
	"rover/internal/stable"
	"rover/internal/store"
	"rover/internal/store/disk"
	"rover/internal/transport"
	"rover/internal/urn"
	"rover/internal/vtime"
)

// Future is the toolkit's typed promise: wait on it, poll it, or register
// a callback.
type Future[T any] = access.Future[T]

// NewFuture returns an incomplete future for application-level
// composition.
func NewFuture[T any]() *Future[T] { return new(Future[T]) }

// Core re-exported types. The toolkit's working vocabulary: names,
// objects, invocations, priorities, futures.
type (
	// URN names an object independently of its current server.
	URN = urn.URN
	// Object is a relocatable dynamic object.
	Object = rdo.Object
	// Invocation is one queued method call (the unit of operation
	// shipping).
	Invocation = rdo.Invocation
	// Priority orders queued requests; higher drains first.
	Priority = qrpc.Priority
	// Guarantee selects Bayou session guarantees.
	Guarantee = session.Guarantee
	// ImportOptions tune one import.
	ImportOptions = access.ImportOptions
	// ExportResult reports an export outcome.
	ExportResult = access.ExportResult
	// InvokeResult reports a server-side invocation outcome.
	InvokeResult = access.InvokeResult
	// Status is the user-notification snapshot.
	Status = access.Status
	// Outcome classifies export results.
	Outcome = proto.Outcome
	// ListEntry is one row of a directory listing.
	ListEntry = proto.ListEntry
	// StatReply describes a remote object.
	StatReply = proto.StatReply
	// ConflictEntry is a manual-repair queue item.
	ConflictEntry = proto.ConflictEntry
	// Resolver merges or rejects conflicting operations.
	Resolver = resolve.Resolver
	// TentativePolicy selects tolerance for tentative cache entries.
	TentativePolicy = access.TentativePolicy
)

// Re-exported priority levels.
const (
	PriorityLow        = qrpc.PriorityLow
	PriorityNormal     = qrpc.PriorityNormal
	PriorityHigh       = qrpc.PriorityHigh
	PriorityForeground = qrpc.PriorityForeground
)

// Re-exported session guarantees.
const (
	ReadYourWrites    = session.ReadYourWrites
	MonotonicReads    = session.MonotonicReads
	WritesFollowReads = session.WritesFollowReads
	MonotonicWrites   = session.MonotonicWrites
	AllGuarantees     = session.All
	NoGuarantees      = session.None
)

// Re-exported tentative policies and export outcomes.
const (
	AcceptTentative = access.AcceptTentative
	RejectTentative = access.RejectTentative

	OutcomeCommitted = proto.OutcomeCommitted
	OutcomeResolved  = proto.OutcomeResolved
	OutcomeConflict  = proto.OutcomeConflict
)

// ParseURN parses "urn:rover:<authority>/<path>".
func ParseURN(s string) (URN, error) { return urn.Parse(s) }

// MustParseURN is ParseURN for known-good literals; it panics on error.
func MustParseURN(s string) URN { return urn.MustParse(s) }

// NewURN builds a URN from components.
func NewURN(authority, path string) (URN, error) { return urn.New(authority, path) }

// NewObject returns an empty RDO of the given type.
func NewObject(u URN, typeName string) *Object { return rdo.New(u, typeName) }

// ReplayResolver is the default optimistic resolver (re-run the operations
// on current state; the object's methods police invariants).
var ReplayResolver Resolver = resolve.Replay

// RejectResolver reflects every conflict to the repair queue.
var RejectResolver Resolver = resolve.Reject

// ClientOptions configure a Rover client.
type ClientOptions struct {
	// ClientID identifies the client to servers. Required.
	ClientID string
	// LogPath is the stable operation log file; empty selects an
	// in-memory log (no crash recovery — tests and simulations).
	LogPath string
	// ModeledFlushCost gives the in-memory log a virtual-time flush cost,
	// so simulations charge the stable write to the QRPC critical path as
	// the paper's prototype does. Ignored when LogPath is set.
	ModeledFlushCost time.Duration
	// KeyHex is the hex shared secret for server authentication; empty
	// disables client-side proofs.
	KeyHex string
	// CacheBytes bounds the object cache (<= 0 unbounded).
	CacheBytes int
	// Compress advertises the compressed-batch capability to servers;
	// frames are deflated only when the peer also supports it and the
	// compressed form is smaller on the wire.
	Compress bool
	// MaxPendingQRPC bounds the pending request queue (<= 0 unbounded):
	// past it, prefetches are shed; past twice it, every new request fails
	// fast with access.ErrShedLoad instead of growing the stable log while
	// the link or log is failing.
	MaxPendingQRPC int
	// Guarantees selects session guarantees; the zero value means "all
	// four". Set NoSessionGuarantees to disable them entirely.
	Guarantees Guarantee
	// NoSessionGuarantees turns session checking off.
	NoSessionGuarantees bool
	// NoAutoExport disables export-after-mutation; call Export/ExportAll
	// manually.
	NoAutoExport bool
	// Stdout receives `puts` output from local RDO code.
	Stdout io.Writer
	// OnConflict, OnInvalidate, OnStatus surface toolkit events to the UI.
	OnConflict   func(u URN, message string)
	OnInvalidate func(u URN, newVersion uint64)
	OnStatus     func(Status)
	// Clock overrides time (simulations); nil selects real time.
	Clock vtime.Clock
}

// Client is a Rover mobile host: QRPC engine + stable log + access
// manager, bound to at most one transport at a time.
type Client struct {
	engine *qrpc.Client
	am     *access.AccessManager
	log    stable.Log
	tr     transport.ClientTransport
	clock  vtime.Clock
}

// NewClient builds a client. Connect a transport with ConnectTCP or
// ConnectPipe before expecting remote completions; everything else (cache
// hits, local invocations, enqueueing) works disconnected.
func NewClient(opts ClientOptions) (*Client, error) {
	if opts.ClientID == "" {
		return nil, errors.New("rover: ClientID is required")
	}
	var log stable.Log
	if opts.LogPath != "" {
		fl, err := stable.OpenFileLog(opts.LogPath, stable.Options{})
		if err != nil {
			return nil, err
		}
		log = fl
	} else {
		log = stable.NewMemLog(stable.Options{FlushCost: opts.ModeledFlushCost})
	}
	var key auth.Key
	if opts.KeyHex != "" {
		k, err := auth.KeyFromHex(opts.KeyHex)
		if err != nil {
			return nil, err
		}
		key = k
	}
	c := &Client{log: log}
	guarantees := opts.Guarantees
	if guarantees == 0 && !opts.NoSessionGuarantees {
		guarantees = session.All
	}
	if opts.NoSessionGuarantees {
		guarantees = session.None
	}
	engine, err := qrpc.NewClient(qrpc.ClientConfig{
		ClientID: opts.ClientID,
		Key:      key,
		Log:      log,
		OnCallback: func(topic string, payload []byte) {
			if c.am != nil {
				c.am.HandleCallback(topic, payload)
			}
		},
		OnStatus: func(si qrpc.StatusInfo) {
			if opts.OnStatus != nil && c.am != nil {
				opts.OnStatus(c.am.Status())
			}
		},
		// A server past its admission high-water mark refuses our Hello
		// with FrameBusy; rotate to a backup of the address list, exactly
		// like a hard shed. Single-address transports ignore the rotate and
		// retry on the reconnect backoff.
		OnBusy: func() { c.failover() },
	})
	if err != nil {
		return nil, err
	}
	engine.SetCompression(opts.Compress)
	clock := opts.Clock
	if clock == nil {
		clock = vtime.NewRealClock()
	}
	c.clock = clock
	am, err := access.New(access.Config{
		Engine:     engine,
		Kick:       func() { c.kick() },
		Clock:      clock,
		CacheBytes: opts.CacheBytes,
		MaxPending: opts.MaxPendingQRPC,
		Guarantees: guarantees,
		AutoExport: !opts.NoAutoExport,
		Stdout:     opts.Stdout,
		OnOverload: func() { c.failover() },
		OnConflict: func(u URN, msg string) {
			if opts.OnConflict != nil {
				opts.OnConflict(u, msg)
			}
		},
		OnInvalidate: func(u URN, v uint64) {
			if opts.OnInvalidate != nil {
				opts.OnInvalidate(u, v)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	c.engine = engine
	c.am = am
	return c, nil
}

func (c *Client) kick() {
	if c.tr != nil {
		c.tr.Kick()
	}
}

// failover rotates a multi-address transport to its next server. Called
// when the current server refuses work (hard shed); transports without
// alternatives just ignore it.
func (c *Client) failover() {
	if r, ok := c.tr.(interface{ Rotate() }); ok {
		r.Rotate()
	}
}

// ConnectTCP maintains a connection to a TCP Rover server, reconnecting
// automatically. It returns immediately. The transport shares the client's
// clock so engine timestamps stay on one time base.
//
// Extra addresses name the backups of a replicated home pair: if a dial
// fails, or the current server sheds load, the client rotates to the next
// address and re-runs the QRPC handshake there — queued requests redeliver
// and tentative operations rebase against the survivor, so failover loses
// no accepted work.
func (c *Client) ConnectTCP(addr string, backups ...string) {
	addrs := append([]string{addr}, backups...)
	c.tr = transport.DialTCPMulti(addrs, c.engine, c.clock, transport.TCPClientOptions{})
}

// ConnectPipe joins this client to an in-process server and returns the
// pipe for connectivity scripting (SetConnected). Used by tests, examples,
// and demos.
func (c *Client) ConnectPipe(s *Server) *transport.Pipe {
	p := transport.NewPipe(c.engine, s.engine, c.clock)
	c.tr = p
	return p
}

// AttachTransport installs a custom transport (simulator harnesses).
func (c *Client) AttachTransport(tr transport.ClientTransport) { c.tr = tr }

// Engine exposes the QRPC engine (benchmark harnesses, custom adapters).
func (c *Client) Engine() *qrpc.Client { return c.engine }

// Access exposes the access manager for advanced use.
func (c *Client) Access() *access.AccessManager { return c.am }

// Import obtains an object (cache-first); see access.AccessManager.Import.
func (c *Client) Import(u URN, opts ImportOptions) *access.Future[*Object] {
	return c.am.Import(u, opts)
}

// ImportWait imports and blocks until the object is available.
func (c *Client) ImportWait(ctx context.Context, u URN) (*Object, error) {
	return c.am.Import(u, ImportOptions{}).Wait(ctx)
}

// Invoke executes a method on the locally cached RDO (tentative update).
func (c *Client) Invoke(u URN, method string, args ...string) (string, error) {
	return c.am.Invoke(u, method, args...)
}

// InvokeRemote executes a method at the object's home server.
func (c *Client) InvokeRemote(u URN, method string, args []string, p Priority) *access.Future[InvokeResult] {
	return c.am.InvokeRemote(u, method, args, p)
}

// InvokeBest picks the execution placement automatically: local when the
// object is cached, at the server otherwise.
func (c *Client) InvokeBest(u URN, method string, args []string, p Priority) *access.Future[InvokeResult] {
	return c.am.InvokeBest(u, method, args, p)
}

// Export ships queued tentative operations for one object.
func (c *Client) Export(u URN, p Priority) (*access.Future[ExportResult], error) {
	return c.am.Export(u, p)
}

// ExportAll exports every tentative object.
func (c *Client) ExportAll(p Priority) []*access.Future[ExportResult] {
	return c.am.ExportAll(p)
}

// Create registers a new object at its home server.
func (c *Client) Create(obj *Object, p Priority) *access.Future[uint64] {
	return c.am.Create(obj, p)
}

// CreateWait creates and blocks for the committed version.
func (c *Client) CreateWait(ctx context.Context, obj *Object) (uint64, error) {
	return c.am.Create(obj, PriorityNormal).Wait(ctx)
}

// Stat probes a remote object.
func (c *Client) Stat(u URN, p Priority) *access.Future[StatReply] {
	return c.am.Stat(u, p)
}

// List enumerates remote objects under a prefix.
func (c *Client) List(prefix URN, p Priority) *access.Future[[]ListEntry] {
	return c.am.List(prefix, p)
}

// Subscribe requests invalidation callbacks for objects under prefix.
func (c *Client) Subscribe(prefix URN, p Priority) *access.Future[struct{}] {
	return c.am.Subscribe(prefix, p)
}

// Prefetch warms the cache with one object at low priority.
func (c *Client) Prefetch(u URN) *access.Future[*Object] { return c.am.Prefetch(u) }

// PrefetchPrefix warms the cache with everything under prefix.
func (c *Client) PrefetchPrefix(prefix URN) *access.Future[int] {
	return c.am.PrefetchPrefix(prefix)
}

// Conflicts fetches the server's manual-repair queue.
func (c *Client) Conflicts(p Priority) *access.Future[[]ConflictEntry] {
	return c.am.Conflicts(p)
}

// Checkout requests an exclusive check-out lock on an object (pessimistic
// concurrency control for atomic-action-structured applications). See
// access.AccessManager.Checkout.
func (c *Client) Checkout(u URN, force bool, p Priority) *access.Future[access.CheckoutResult] {
	return c.am.Checkout(u, force, p)
}

// Checkin releases a check-out lock.
func (c *Client) Checkin(u URN, p Priority) *access.Future[struct{}] {
	return c.am.Checkin(u, p)
}

// Tentative reports whether u has uncommitted local operations.
func (c *Client) Tentative(u URN) bool { return c.am.Tentative(u) }

// Cached reports whether u is in the local cache.
func (c *Client) Cached(u URN) bool { return c.am.Cached(u) }

// Status returns the user-notification snapshot.
func (c *Client) Status() Status { return c.am.Status() }

// Close shuts down the transport, engine, and log. Queued requests stay
// on a file-backed log for the next incarnation.
func (c *Client) Close() error {
	var err error
	if c.tr != nil {
		err = c.tr.Close()
	}
	c.engine.Close()
	if lerr := c.log.Close(); err == nil {
		err = lerr
	}
	return err
}

// ServerOptions configure a Rover server.
type ServerOptions struct {
	// ServerID names the server in handshakes and logs.
	ServerID string
	// AuthKeys maps client IDs to hex keys; nil disables authentication.
	AuthKeys map[string]string
	// StoreDir, when set, selects the disk-backed object store: committed
	// mutations are group-committed to an append-only segment in this
	// directory, a byte-bounded LRU keeps hot decoded objects resident, and
	// the population is recovered (torn tail truncated) at startup. Empty
	// selects the all-resident in-memory store.
	StoreDir string
	// StoreCacheBytes bounds the disk store's hot-object cache (zero = the
	// disk package default, 64 MiB). Ignored without StoreDir.
	StoreCacheBytes int64
	// StoreCompactEvery is the number of committed mutations between
	// compaction checks of the disk store's segment (zero = default).
	// Ignored without StoreDir.
	StoreCompactEvery int
	// Workers is ignored: a server runs each arriving frame's requests on
	// the goroutine that delivered it, and sessions run in parallel as
	// their connections do. It is set only by the benchmark module, and
	// goes when that module next changes.
	Workers int
	// JournalPath, when set, opens a file-backed session journal at that
	// path. Every executed request's reply is write-ahead-logged before it
	// is released, and a restarted server replays the journal so
	// redelivered requests are answered from the recovered reply cache
	// instead of re-executing — exactly-once across server crashes, not
	// just client crashes. NewServer fails if a journal exists but cannot
	// be replayed (a server must not start with partial exactly-once
	// state). The journal is compacted in the background and closed by
	// Server.Close.
	JournalPath string
	// JournalShards shards the session journal across this many independent
	// files — JournalPath itself plus "<JournalPath>.s1" through
	// ".s<N-1>" — keyed by session hash, so each shard runs its own
	// group-commit fsync leader and up to N fsyncs overlap instead of every
	// session convoying behind one. Zero or one selects the single-file
	// journal. The count may grow between restarts (recovery reshards
	// sessions into their new home files, durably, before serving) but must
	// never shrink: NewServer fails if shard files beyond the configured
	// count exist on disk, because their records would be silently unread.
	// Ignored unless JournalPath is set.
	JournalShards int
	// MaxSessions, when positive, is the admission high-water mark: Hellos
	// from clients the server has no session for are refused with a busy
	// frame once this many sessions exist (established sessions always
	// re-admit). Clients built by this package react by rotating to their
	// next backup address. Size it with headroom — a refused client retries
	// elsewhere or later, it does not queue here.
	MaxSessions int
	// SessionBudgetBytes, when positive, bounds the bytes of unacknowledged
	// reply encodings one session may hold; at the budget, new requests from
	// that session are dropped (clients redeliver later) until acks release
	// cached replies. Backpressure, never loss.
	SessionBudgetBytes int
}

// Server is a Rover home server: QRPC engine + object store + conflict
// pipeline.
type Server struct {
	engine   *qrpc.Server
	srv      *server.Server
	backend  store.Backend // closed by Close when StoreDir is set
	opts     ServerOptions
	journals []stable.Log // empty unless JournalPath is set; one per shard

	replMu  sync.Mutex
	rep     *repl.Replicator
	replTr  transport.ClientTransport // transport toward the peer, if any
	replLog stable.Log
}

// NewServer builds a server.
func NewServer(opts ServerOptions) (*Server, error) {
	var reg *auth.Registry
	if len(opts.AuthKeys) > 0 {
		reg = auth.NewRegistry()
		for id, hexKey := range opts.AuthKeys {
			k, err := auth.KeyFromHex(hexKey)
			if err != nil {
				return nil, fmt.Errorf("rover: key for %q: %w", id, err)
			}
			reg.Add(id, k)
		}
	}
	var journals []stable.Log
	if opts.JournalPath != "" {
		var err error
		journals, err = openJournalShards(opts.JournalPath, opts.JournalShards)
		if err != nil {
			return nil, err
		}
	}
	var backend store.Backend
	if opts.StoreDir != "" {
		ds, err := disk.Open(disk.Options{
			Dir:          opts.StoreDir,
			CacheBytes:   opts.StoreCacheBytes,
			CompactEvery: opts.StoreCompactEvery,
		})
		if err != nil {
			for _, jl := range journals {
				jl.Close()
			}
			return nil, fmt.Errorf("rover: disk store: %w", err)
		}
		backend = ds
	}
	closeJournals := func() {
		for _, jl := range journals {
			jl.Close()
		}
		if backend != nil {
			backend.Close()
		}
	}
	engine := qrpc.NewServer(qrpc.ServerConfig{
		ServerID:           opts.ServerID,
		Auth:               reg,
		Journals:           journals,
		MaxSessions:        opts.MaxSessions,
		SessionBudgetBytes: opts.SessionBudgetBytes,
	})
	if err := engine.JournalError(); err != nil {
		closeJournals()
		return nil, err
	}
	srv, err := server.New(server.Config{Engine: engine, Store: backend})
	if err != nil {
		engine.Close() // waits out a compaction recovery started
		closeJournals()
		return nil, err
	}
	return &Server{engine: engine, srv: srv, backend: backend, journals: journals, opts: opts}, nil
}

// openJournalShards opens the session journal's shard files: path itself is
// shard 0, "path.s1" … "path.s<n-1>" the rest. It refuses to open fewer
// shards than exist on disk — a shard-count decrease would leave the
// higher-index files' records silently unread, losing exactly-once state.
// The directory is listed and matched on a literal prefix, never globbed:
// a path holding pattern metacharacters must not hide a shard file.
func openJournalShards(path string, n int) ([]stable.Log, error) {
	if n <= 0 {
		n = 1
	}
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		return nil, fmt.Errorf("rover: session journal: %w", err)
	}
	prefix := filepath.Base(path) + ".s"
	for _, e := range ents {
		suffix, ok := strings.CutPrefix(e.Name(), prefix)
		if !ok {
			continue
		}
		k, err := strconv.Atoi(suffix)
		if err != nil {
			continue // not a shard file of ours (e.g. path.s1.compact mid-crash)
		}
		if k >= n {
			return nil, fmt.Errorf("rover: journal shard file %s exists but only %d shard(s) configured; shard counts may grow, never shrink",
				journalShardPath(path, k), n)
		}
	}
	logs := make([]stable.Log, 0, n)
	for i := 0; i < n; i++ {
		fl, err := stable.OpenFileLog(journalShardPath(path, i), stable.Options{})
		if err != nil {
			for _, l := range logs {
				l.Close()
			}
			return nil, fmt.Errorf("rover: session journal shard %d: %w", i, err)
		}
		logs = append(logs, fl)
	}
	return logs, nil
}

// journalShardPath names shard i's file: the journal path itself for shard
// 0, "<path>.s<i>" beyond.
func journalShardPath(path string, i int) string {
	if i == 0 {
		return path
	}
	return fmt.Sprintf("%s.s%d", path, i)
}

// Engine exposes the QRPC server engine (transport attachment).
func (s *Server) Engine() *qrpc.Server { return s.engine }

// JournalStats returns one stable-log counter snapshot per journal shard
// (empty when no journal is configured). Stats lines derive fsyncs/op and
// measured fsync latency from these.
func (s *Server) JournalStats() []stable.Stats {
	out := make([]stable.Stats, len(s.journals))
	for i, jl := range s.journals {
		out[i] = jl.Stats()
	}
	return out
}

// Store exposes the object store backend (in-memory by default, disk-backed
// when StoreDir is configured).
func (s *Server) Store() store.Backend { return s.srv.Store() }

// Conflicts returns the server's manual-repair queue.
func (s *Server) Conflicts() []server.Conflict { return s.srv.Conflicts() }

// StoreStats reports the store's population and cache-residency counters.
func (s *Server) StoreStats() store.Occupancy { return s.srv.Store().Occupancy() }

// RegisterResolver installs a type-specific conflict resolver.
func (s *Server) RegisterResolver(typeName string, r Resolver) {
	s.srv.Resolvers().Register(typeName, r)
}

// Seed creates an object directly in the store (server-side provisioning).
func (s *Server) Seed(obj *Object) error { return s.srv.Store().Create(obj) }

// ListenTCP serves the engine on a TCP address; returns the listener
// handle (whose Addr reports the bound address).
func (s *Server) ListenTCP(addr string) (*transport.TCPServer, error) {
	return transport.ListenTCP(addr, s.engine, nil)
}

// Close stops the engine — requests that arrive from then on are dropped
// (clients redeliver from their stable logs, so nothing is lost) and the
// runs already under way finish — then closes the session journal if one
// is configured. Transports attached
// via ListenTCP are closed separately by their handles.
func (s *Server) Close() error {
	s.replMu.Lock()
	rep, replTr, replLog := s.rep, s.replTr, s.replLog
	s.rep, s.replTr, s.replLog = nil, nil, nil
	s.replMu.Unlock()
	if replTr != nil {
		replTr.Close()
	}
	if rep != nil {
		rep.Close()
	}
	err := s.engine.Close()
	if replLog != nil {
		replLog.Close()
	}
	for _, jl := range s.journals {
		if jerr := jl.Close(); err == nil {
			err = jerr
		}
	}
	if s.backend != nil {
		if berr := s.backend.Close(); err == nil {
			err = berr
		}
	}
	return err
}

// ServerStats returns the application-layer counters (deltas served,
// duplicate exports absorbed); engine counters live on Engine().Stats().
func (s *Server) ServerStats() server.Stats { return s.srv.Stats() }

// ReplicationOptions configure a server's half of a replicated home pair.
// Both servers of a pair enable replication, each pointing at the other.
type ReplicationOptions struct {
	// PeerAddr, when set, immediately starts dialing the peer over TCP.
	// Leave empty and use AttachPeerTransport for in-process or simulated
	// links.
	PeerAddr string
	// KeyHex authenticates this server's replication client to the peer
	// (the peer must list "<ServerID>!repl" in its AuthKeys). Empty
	// disables proofs.
	KeyHex string
	// LogPath backs the replication stream with a stable log so a queued
	// backlog survives this server's own restart; empty selects memory,
	// and each incarnation replicates under an identity of its own (see
	// repl.ClientID).
	LogPath string
	// Clock overrides time (simulations); nil selects real time.
	Clock vtime.Clock
}

// EnableReplication turns this server into half of a replicated home pair:
// every committed store mutation and executed reply streams to the peer,
// and the peer's records are applied here. Returns the Replicator for
// stats and transport attachment. Enable replication on both servers of
// the pair.
func (s *Server) EnableReplication(opts ReplicationOptions) (*repl.Replicator, error) {
	s.replMu.Lock()
	if s.rep != nil {
		s.replMu.Unlock()
		return nil, errors.New("rover: replication already enabled")
	}
	s.replMu.Unlock()
	var key auth.Key
	if opts.KeyHex != "" {
		k, err := auth.KeyFromHex(opts.KeyHex)
		if err != nil {
			return nil, err
		}
		key = k
	}
	var log stable.Log
	if opts.LogPath != "" {
		fl, err := stable.OpenFileLog(opts.LogPath, stable.Options{})
		if err != nil {
			return nil, fmt.Errorf("rover: replication log: %w", err)
		}
		log = fl
	}
	rep, err := repl.New(repl.Config{
		ServerID: s.opts.ServerID,
		Engine:   s.engine,
		Store:    s.srv.Store(),
		Key:      key,
		Log:      log,
		Clock:    opts.Clock,
		Kick: func() {
			s.replMu.Lock()
			tr := s.replTr
			s.replMu.Unlock()
			if tr != nil {
				tr.Kick()
			}
		},
	})
	if err != nil {
		if log != nil {
			log.Close()
		}
		return nil, err
	}
	s.replMu.Lock()
	s.rep = rep
	s.replLog = log
	s.replMu.Unlock()
	if opts.PeerAddr != "" {
		s.ConnectPeerTCP(opts.PeerAddr)
	}
	return rep, nil
}

// Replicator returns the replication layer, or nil if not enabled.
func (s *Server) Replicator() *repl.Replicator {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return s.rep
}

// ConnectPeerTCP points the replication stream at the peer's TCP address,
// reconnecting with backoff like any Rover client. Requires
// EnableReplication first.
func (s *Server) ConnectPeerTCP(addr string) error {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if s.rep == nil {
		return errors.New("rover: replication not enabled")
	}
	if s.replTr != nil {
		s.replTr.Close()
	}
	s.replTr = transport.DialTCP(addr, s.rep.Client(), nil, transport.TCPClientOptions{})
	return nil
}

// AttachPeerTransport installs a custom transport toward the peer
// (in-process pipes, network simulators). Requires EnableReplication first.
func (s *Server) AttachPeerTransport(tr transport.ClientTransport) error {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if s.rep == nil {
		return errors.New("rover: replication not enabled")
	}
	s.replTr = tr
	return nil
}
