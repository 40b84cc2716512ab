package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rover/internal/qrpc"
	"rover/internal/rdo"
	"rover/internal/stable"
	"rover/internal/store"
	"rover/internal/urn"
)

// span is one timed call into a layer, recorded by the benchmark's own
// decorators around the seams the layers already expose. Op ties the spans
// of one generator operation together (0 = not attributable from outside
// the program: a journal append does not say which request it serves).
type span struct {
	Op     uint64 `json:"op"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// ringSize bounds the per-kind duration sample: the last ringSize calls.
const ringSize = 1 << 15

// maxSpans bounds the full span records kept for the trace file; every call
// still lands in its kind's counters and duration ring.
const maxSpans = 50_000

// kind aggregates every span of one (layer, name): full spans are capped,
// the counters are not.
type kind struct {
	layer, name string
	count       atomic.Int64
	totalNs     atomic.Int64
	ring        [ringSize]atomic.Int64
}

func (k *kind) observe(d int64) {
	n := k.count.Add(1)
	k.totalNs.Add(d)
	k.ring[(n-1)%ringSize].Store(d)
}

// durationsUs returns the sampled durations in microseconds, ascending.
func (k *kind) durationsUs() []float64 {
	n := k.count.Load()
	if n > ringSize {
		n = ringSize
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(k.ring[i].Load()) / 1e3
	}
	sort.Float64s(out)
	return out
}

func (k *kind) meanUs() float64 {
	n := k.count.Load()
	if n == 0 {
		return 0
	}
	return float64(k.totalNs.Load()) / float64(n) / 1e3
}

// tracer keeps spans in memory; write() puts them in a file at exit.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint32
	full   atomic.Bool

	mu    sync.Mutex
	spans []span
	kinds map[string]*kind
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), kinds: make(map[string]*kind)}
}

func (t *tracer) kind(layer, name string) *kind {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := layer + "." + name
	k := t.kinds[key]
	if k == nil {
		k = &kind{layer: layer, name: name}
		t.kinds[key] = k
	}
	return k
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// open reserves an id so children can name their parent before it ends.
func (t *tracer) open() (id uint32, start int64) { return t.nextID.Add(1), t.now() }

// close records the span opened as id and returns its duration.
func (t *tracer) close(k *kind, id, parent uint32, op uint64, start int64) int64 {
	end := t.now()
	k.observe(end - start)
	if !t.full.Load() {
		t.mu.Lock()
		if len(t.spans) < maxSpans {
			t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Layer: k.layer, Name: k.name, Start: start, End: end})
		} else {
			t.full.Store(true)
		}
		t.mu.Unlock()
	}
	return end - start
}

// reset forgets everything recorded so far (the warm-up's spans).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = t.spans[:0]
	t.full.Store(false)
	for _, k := range t.kinds {
		k.count.Store(0)
		k.totalNs.Store(0)
	}
}

// write emits the recorded spans, one JSON object per line.
func (t *tracer) write(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover (overlapping children count once).
func selfTimes(spans []span) map[uint32]int64 {
	children := make(map[uint32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint32]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range kids {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// meanSelfUs averages the self time of every recorded span of one kind.
func (t *tracer) meanSelfUs(layer, name string) float64 {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	var sum, n int64
	for _, s := range spans {
		if s.Layer == layer && s.Name == name {
			sum += self[s.ID]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}

// scope is where a decorator finds the span it runs under. The generator
// sets one per client before calling into the client stack; probes, being
// single-threaded, share one.
type scope struct {
	op     atomic.Uint64
	parent atomic.Uint32
}

// enter runs fn as a child span of whatever sc currently points at, and
// makes itself the parent for the duration. Only the goroutine that owns sc
// may call it.
func (t *tracer) enter(sc *scope, k *kind, fn func()) int64 {
	id, start := t.open()
	parent := sc.parent.Swap(id)
	fn()
	sc.parent.Store(parent)
	return t.close(k, id, parent, sc.op.Load(), start)
}

// leaf records fn as a span under whatever sc currently points at; with a
// nil scope the span is unattributed (op 0, no parent).
func (t *tracer) leaf(sc *scope, k *kind, fn func()) int64 {
	id, start := t.open()
	fn()
	var parent uint32
	var op uint64
	if sc != nil {
		parent, op = sc.parent.Load(), sc.op.Load()
	}
	return t.close(k, id, parent, op, start)
}

// tracedLog times a stable.Log under a role (client, journal, segment is
// measured through the store). It forwards BatchLog so the server's
// pipelined group commit takes the same path as without it.
type tracedLog struct {
	stable.BatchLog
	t                      *tracer
	sc                     *scope // nil on the server side: spans are unattributed
	append, nosync, commit *kind
}

func newTracedLog(t *tracer, l stable.BatchLog, role string, sc *scope) *tracedLog {
	return &tracedLog{BatchLog: l, t: t, sc: sc,
		append: t.kind("stable."+role, "append"),
		nosync: t.kind("stable."+role, "append_nosync"),
		commit: t.kind("stable."+role, "commit_wait"),
	}
}

func (l *tracedLog) Append(rec []byte) (id uint64, err error) {
	l.t.leaf(l.sc, l.append, func() { id, err = l.BatchLog.Append(rec) })
	return
}

func (l *tracedLog) AppendNoSync(rec []byte) (id uint64, err error) {
	l.t.leaf(l.sc, l.nosync, func() { id, err = l.BatchLog.AppendNoSync(rec) })
	return
}

func (l *tracedLog) Commit() (err error) {
	l.t.leaf(l.sc, l.commit, func() { err = l.BatchLog.Commit() })
	return
}

// tracedStore times the store.Backend calls the server's handlers make. The
// embedded Backend forwards everything else; OpsReader and CacheTuner are
// passed through explicitly because repl and autotune type-assert them.
type tracedStore struct {
	store.Backend
	t           *tracer
	sc          *scope // set in probes only
	get, commit *kind

	// A commit slower than stallFloor that saw the compaction count move is a
	// commit that waited out (or ran) a segment rewrite.
	compactions atomic.Int64
	stallMaxNs  atomic.Int64
}

const stallFloor = 500 * time.Microsecond

func newTracedStore(t *tracer, b store.Backend, sc *scope) *tracedStore {
	return &tracedStore{Backend: b, t: t, sc: sc, get: t.kind("store", "get"), commit: t.kind("store", "commit")}
}

func (s *tracedStore) Get(u urn.URN) (obj *rdo.Object, err error) {
	s.t.leaf(s.sc, s.get, func() { obj, err = s.Backend.Get(u) })
	return
}

func (s *tracedStore) timedCommit(fn func()) {
	d := s.t.leaf(s.sc, s.commit, fn)
	if d < int64(stallFloor) {
		return
	}
	if c := s.Backend.Occupancy().Compactions; s.compactions.Swap(c) != c {
		for {
			cur := s.stallMaxNs.Load()
			if d <= cur || s.stallMaxNs.CompareAndSwap(cur, d) {
				break
			}
		}
	}
}

func (s *tracedStore) Commit(obj *rdo.Object, expect uint64) (v uint64, err error) {
	s.timedCommit(func() { v, err = s.Backend.Commit(obj, expect) })
	return
}

func (s *tracedStore) CommitOps(obj *rdo.Object, expect uint64, invs []rdo.Invocation) (v uint64, err error) {
	s.timedCommit(func() { v, err = s.Backend.CommitOps(obj, expect, invs) })
	return
}

func (s *tracedStore) CommitOpsBy(obj *rdo.Object, expect uint64, invs []rdo.Invocation, src string) (v uint64, err error) {
	s.timedCommit(func() { v, err = s.Backend.CommitOpsBy(obj, expect, invs, src) })
	return
}

func (s *tracedStore) StreamOpsSince(u urn.URN, from uint64, fn func(ver uint64, invs []rdo.Invocation, src string, obj []byte) error) (bool, error) {
	if r, ok := s.Backend.(store.OpsReader); ok {
		return r.StreamOpsSince(u, from, fn)
	}
	return false, nil
}

func (s *tracedStore) SetCacheBytes(n int64) {
	if c, ok := s.Backend.(store.CacheTuner); ok {
		c.SetCacheBytes(n)
	}
}

func (s *tracedStore) CacheBytes() int64 {
	if c, ok := s.Backend.(store.CacheTuner); ok {
		return c.CacheBytes()
	}
	return 0
}

// tracedHandler times a bench-registered qrpc.Handler under the scope of the
// client it serves.
func tracedHandler(t *tracer, scopeOf func(clientID string) *scope, h qrpc.Handler) qrpc.Handler {
	k := t.kind("qrpc.server", "handler")
	return func(clientID string, req qrpc.Request) (out []byte, err error) {
		t.leaf(scopeOf(clientID), k, func() { out, err = h(clientID, req) })
		return
	}
}

// genKinds are the spans the load generator records around its own calls
// into the client stack. The zero value (untraced run) records nothing.
type genKinds struct {
	seq                             *atomic.Uint64
	opK, enqueue, kick, issue, wait *kind
}

func newGenKinds(t *tracer) genKinds {
	return genKinds{seq: new(atomic.Uint64), opK: t.kind("gen", "op"),
		enqueue: t.kind("qrpc.client", "enqueue"), kick: t.kind("transport", "kick"),
		issue: t.kind("access", "issue"), wait: t.kind("gen", "wait")}
}

// op runs fn as the root span of one generator operation on sc's client.
func (g genKinds) op(t *tracer, sc *scope, fn func()) {
	id, start := t.open()
	op := g.seq.Add(1)
	sc.op.Store(op)
	sc.parent.Store(id)
	fn()
	sc.parent.Store(0)
	t.close(g.opK, id, 0, op, start)
}

// call runs fn as a child span of the current operation, or bare when
// untraced.
func (g genKinds) call(t *tracer, sc *scope, k *kind, fn func()) {
	if t == nil {
		fn()
		return
	}
	t.enter(sc, k, fn)
}
