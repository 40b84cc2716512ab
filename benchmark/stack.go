package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"rover"
	"rover/internal/access"
	"rover/internal/cache"
	"rover/internal/qrpc"
	"rover/internal/server"
	"rover/internal/session"
	"rover/internal/stable"
	"rover/internal/store"
	"rover/internal/store/disk"
	"rover/internal/transport"
	"rover/internal/vtime"
)

// serverSpec is the part of rover.ServerOptions the workloads vary.
type serverSpec struct {
	dir               string // "" = no journal, in-memory store
	journalShards     int    // 0 = no journal
	storeOnDisk       bool
	storeCacheBytes   int64
	storeCompactEvery int
	inline            bool // execute on the transport goroutine (virtual time)
}

// serverStack is one home server, built either through the public facade
// (untraced runs: nothing of the benchmark's sits on any seam) or from the
// internal packages with the tracer's decorators on the seams they expose.
type serverStack struct {
	engine  *qrpc.Server
	store   store.Backend
	disk    *disk.Store           // nil with the in-memory store
	journal func() []stable.Stats // one per shard, undecorated
	app     func() server.Stats
	tcp     *transport.TCPServer
	tstore  *tracedStore // nil when untraced
	stop    func() error // full Close (footer written, files closed)

	// Traced stacks time the two halves of recovery separately.
	openDur, replayDur time.Duration

	// segmentStats' running total over the segment files compacted away.
	segMu             sync.Mutex
	segDone, segLast  stable.Stats
	segCompactionsWas int64
}

func (spec serverSpec) journalPath() string { return filepath.Join(spec.dir, "home.sessions") }
func (spec serverSpec) storeDir() string    { return filepath.Join(spec.dir, "store") }

func newServer(spec serverSpec, tr *tracer) (*serverStack, error) {
	if tr == nil {
		return newFacadeServer(spec)
	}
	return newTracedServer(spec, tr, nil)
}

func newFacadeServer(spec serverSpec) (*serverStack, error) {
	opts := rover.ServerOptions{ServerID: "bench-home", StoreCacheBytes: spec.storeCacheBytes, StoreCompactEvery: spec.storeCompactEvery}
	if spec.inline {
		opts.Workers = -1
	}
	if spec.journalShards > 0 {
		opts.JournalPath, opts.JournalShards = spec.journalPath(), spec.journalShards
	}
	if spec.storeOnDisk {
		opts.StoreDir = spec.storeDir()
	}
	srv, err := rover.NewServer(opts)
	if err != nil {
		return nil, err
	}
	s := &serverStack{engine: srv.Engine(), store: srv.Store(), journal: srv.JournalStats, app: srv.ServerStats, stop: srv.Close}
	s.disk, _ = srv.Store().(*disk.Store)
	return s, nil
}

// newTracedServer wires the same stack rover.NewServer builds — journal
// shards, store backend, engine, object services — with the tracer's
// decorators between the layers. sc is non-nil in single-threaded probes.
func newTracedServer(spec serverSpec, tr *tracer, sc *scope) (*serverStack, error) {
	s := &serverStack{}
	var closers []func() error
	fail := func(err error) (*serverStack, error) {
		for _, c := range closers {
			c()
		}
		return nil, err
	}
	var raw, journals []stable.Log
	for i := 0; i < spec.journalShards; i++ {
		path := spec.journalPath()
		if i > 0 {
			path = fmt.Sprintf("%s.s%d", path, i)
		}
		fl, err := stable.OpenFileLog(path, stable.Options{})
		if err != nil {
			return fail(err)
		}
		closers = append(closers, fl.Close)
		raw = append(raw, fl)
		journals = append(journals, newTracedLog(tr, fl, "journal", sc))
	}
	s.journal = func() []stable.Stats {
		out := make([]stable.Stats, len(raw))
		for i, l := range raw {
			out[i] = l.Stats()
		}
		return out
	}
	var backend store.Backend = store.New()
	if spec.storeOnDisk {
		t0 := time.Now()
		ds, err := disk.Open(disk.Options{Dir: spec.storeDir(), CacheBytes: spec.storeCacheBytes, CompactEvery: spec.storeCompactEvery})
		if err != nil {
			return fail(err)
		}
		s.openDur = time.Since(t0)
		closers = append(closers, ds.Close)
		s.disk, backend = ds, ds
	}
	s.tstore = newTracedStore(tr, backend, sc)
	s.store = s.tstore
	workers := 0
	if procs := runtime.GOMAXPROCS(0); !spec.inline && procs > 1 {
		workers = procs // the facade's default: a pool of one only adds a handoff
	}
	t0 := time.Now()
	s.engine = qrpc.NewServer(qrpc.ServerConfig{ServerID: "bench-home", Workers: workers, Journals: journals})
	s.replayDur = time.Since(t0)
	if err := s.engine.JournalError(); err != nil {
		return fail(err)
	}
	app, err := server.New(server.Config{Engine: s.engine, Store: s.store})
	if err != nil {
		return fail(err)
	}
	s.app = app.Stats
	s.stop = func() error {
		err := s.engine.Close()
		for _, c := range closers {
			if cerr := c(); err == nil {
				err = cerr
			}
		}
		return err
	}
	return s, nil
}

func (s *serverStack) listen() (string, error) {
	tcp, err := transport.ListenTCP("127.0.0.1:0", s.engine, nil)
	if err != nil {
		return "", err
	}
	s.tcp = tcp
	return tcp.Addr(), nil
}

// close shuts the listener and the server down cleanly.
func (s *serverStack) close() error {
	if s.tcp != nil {
		s.tcp.Close()
	}
	return s.stop()
}

// abandon stops the goroutines and frees the port but never closes the
// store or the journal: what a crashed server leaves behind.
func (s *serverStack) abandon() {
	if s.tcp != nil {
		s.tcp.Close()
	}
	s.engine.Close()
}

// journalStats sums the journal shards' stable-log counters.
func (s *serverStack) journalStats() stable.Stats {
	var sum stable.Stats
	for _, st := range s.journal() {
		addStats(&sum, st)
	}
	return sum
}

// segmentStats returns the store segment's counters summed over every
// segment file the store has had. A compaction swaps in a fresh file whose
// counters start again from the rewrite, and disk.Store keeps no total, so a
// workload that compacts calls this after every commit: when the compaction
// count has moved, the previous reading stands in for the old file's last —
// short by the commits in flight at the swap, at most one per client in a
// compaction interval.
func (s *serverStack) segmentStats() stable.Stats {
	if s.disk == nil {
		return stable.Stats{}
	}
	s.segMu.Lock()
	defer s.segMu.Unlock()
	for {
		n := s.disk.Occupancy().Compactions
		cur := s.disk.SegmentStats()
		if s.disk.Occupancy().Compactions != n {
			continue // swapped between the two readings
		}
		if n != s.segCompactionsWas {
			addStats(&s.segDone, s.segLast)
			s.segCompactionsWas = n
		}
		s.segLast = cur
		sum := s.segDone
		addStats(&sum, cur)
		return sum
	}
}

func addStats(sum *stable.Stats, st stable.Stats) {
	sum.Appends += st.Appends
	sum.Removes += st.Removes
	sum.Syncs += st.Syncs
	sum.SyncNanos += st.SyncNanos
	sum.BytesWritten += st.BytesWritten
	sum.BytesLogical += st.BytesLogical
	sum.Compactions += st.Compactions
}

// clientSpec is the part of rover.ClientOptions the workloads vary.
type clientSpec struct {
	id           string
	logPath      string // "" = MemLog
	cacheBytes   int
	compress     bool
	noAutoExport bool
	clock        vtime.Clock   // nil = real time
	modeledFlush time.Duration // MemLog only
}

// clientStack is one mobile host: engine + log + access manager, plus the
// transport the generator attaches (and kicks) itself.
type clientStack struct {
	engine *qrpc.Client
	am     *access.AccessManager
	log    stable.Log // nil through the facade, which keeps its log private
	sc     *scope     // nil when untraced
	tr     transport.ClientTransport
	attach func(transport.ClientTransport)
	stop   func() error
}

func newClient(spec clientSpec, tr *tracer) (*clientStack, error) {
	if tr == nil {
		cli, err := rover.NewClient(rover.ClientOptions{
			ClientID: spec.id, LogPath: spec.logPath, CacheBytes: spec.cacheBytes, Compress: spec.compress,
			NoAutoExport: spec.noAutoExport, Clock: spec.clock, ModeledFlushCost: spec.modeledFlush,
		})
		if err != nil {
			return nil, err
		}
		c := &clientStack{engine: cli.Engine(), am: cli.Access(), stop: cli.Close}
		c.attach = func(t transport.ClientTransport) { c.tr = t; cli.AttachTransport(t) }
		return c, nil
	}
	return newTracedClient(spec, tr, &scope{})
}

// newTracedClient mirrors rover.NewClient with the client log decorated.
func newTracedClient(spec clientSpec, tr *tracer, sc *scope) (*clientStack, error) {
	var raw stable.BatchLog
	if spec.logPath != "" {
		fl, err := stable.OpenFileLog(spec.logPath, stable.Options{})
		if err != nil {
			return nil, err
		}
		raw = fl
	} else {
		raw = stable.NewMemLog(stable.Options{FlushCost: spec.modeledFlush})
	}
	c := &clientStack{log: raw, sc: sc}
	engine, err := qrpc.NewClient(qrpc.ClientConfig{
		ClientID: spec.id,
		Log:      newTracedLog(tr, raw, "client", sc),
		OnCallback: func(topic string, payload []byte) {
			if c.am != nil {
				c.am.HandleCallback(topic, payload)
			}
		},
	})
	if err != nil {
		raw.Close()
		return nil, err
	}
	engine.SetCompression(spec.compress)
	clock := spec.clock
	if clock == nil {
		clock = vtime.NewRealClock()
	}
	am, err := access.New(access.Config{
		Engine: engine, Clock: clock, CacheBytes: spec.cacheBytes, Guarantees: session.All, AutoExport: !spec.noAutoExport,
		Kick: func() {
			if c.tr != nil {
				c.tr.Kick()
			}
		},
	})
	if err != nil {
		raw.Close()
		return nil, err
	}
	c.engine, c.am = engine, am
	c.attach = func(t transport.ClientTransport) { c.tr = t }
	c.stop = func() error {
		var err error
		if c.tr != nil {
			err = c.tr.Close()
		}
		engine.Close()
		if lerr := raw.Close(); err == nil {
			err = lerr
		}
		return err
	}
	return c, nil
}

// dial attaches a fresh TCP transport and waits until the engine reports the
// session connected, returning how long that took.
func (c *clientStack) dial(addr string) (time.Duration, error) {
	start := time.Now()
	c.attach(transport.DialTCP(addr, c.engine, nil, transport.TCPClientOptions{}))
	deadline := start.Add(10 * time.Second)
	for !c.engine.Status().Connected {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("client %s: no connection to %s after 10s", c.engine.ClientID(), addr)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return time.Since(start), nil
}

// counters is one reading of every layer's public Stats(); metrics are
// differences of two readings around the timed phase.
type counters struct {
	journal, segment, clientLog stable.Stats
	qs                          qrpc.ServerStats
	qc                          qrpc.ClientStats
	app                         server.Stats
	acc                         access.Stats
	cache                       cache.Stats
	occ                         store.Occupancy
}

func readCounters(s *serverStack, clients []*clientStack) counters {
	var c counters
	if s != nil {
		c.journal, c.segment = s.journalStats(), s.segmentStats()
		c.qs, c.app, c.occ = s.engine.Stats(), s.app(), s.store.Occupancy()
	}
	for _, cl := range clients {
		one := counters{qc: cl.engine.Stats(), acc: cl.am.Stats(), cache: cl.am.CacheStats()}
		if cl.log != nil {
			one.clientLog = cl.log.Stats()
		}
		c.add(one)
	}
	return c
}

// add accumulates another reading: restart sums one per reopened server,
// modem_session one per link and session.
func (c *counters) add(o counters) {
	addStats(&c.journal, o.journal)
	addStats(&c.segment, o.segment)
	addStats(&c.clientLog, o.clientLog)
	c.qs.BatchesSent += o.qs.BatchesSent
	c.qs.ReplaysServed += o.qs.ReplaysServed
	c.qs.Dropped += o.qs.Dropped
	c.qs.JournalRecords += o.qs.JournalRecords
	c.qs.JournalCompactions += o.qs.JournalCompactions
	c.qc.Resent += o.qc.Resent
	c.qc.Duplicates += o.qc.Duplicates
	c.qc.AcksSent += o.qc.AcksSent
	c.qc.BatchesSent += o.qc.BatchesSent
	c.app.DeltasServed += o.app.DeltasServed
	c.app.DeltaFallbacks += o.app.DeltaFallbacks
	c.app.DuplicateExports += o.app.DuplicateExports
	c.acc.CacheServes += o.acc.CacheServes
	c.acc.ImportsSent += o.acc.ImportsSent
	c.acc.DeltaImports += o.acc.DeltaImports
	c.cache.Evictions += o.cache.Evictions
	c.occ.CacheHits += o.occ.CacheHits
	c.occ.ColdFaults += o.occ.ColdFaults
	c.occ.Compactions += o.occ.Compactions
}

var bg = context.Background()
