package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"rover/internal/access"
	"rover/internal/proto"
	"rover/internal/qrpc"
	"rover/internal/rdo"
	"rover/internal/store"
	"rover/internal/store/disk"
	"rover/internal/urn"
	"rover/internal/wire"
)

// counterCode is the small RDO the object workloads use: one mutating
// method, so every commit is an operation the server replays.
const counterCode = `
	proc add {n} { state set count [expr {[state get count 0] + $n}] }
	proc get {} { state get count 0 }
`

const padBytes = 256

func objectURN(i int) urn.URN {
	return urn.MustParse(fmt.Sprintf("urn:rover:bench/obj/%06d", i))
}

// padWord is the 8 hex digits object i's pad repeats; it ties the pad to
// both the index and the seed, so a reply for the wrong object cannot pass.
func padWord(seed int64, i int) string {
	w := strconv.FormatUint(uint64(uint32(i)*2654435761^uint32(seed)), 16)
	return "00000000"[len(w):] + w
}

func newCounter(seed int64, i int) *rdo.Object {
	obj := rdo.New(objectURN(i), "counter")
	obj.Code = counterCode
	word := padWord(seed, i)
	pad := make([]byte, 0, padBytes)
	for len(pad) < padBytes {
		pad = append(pad, word...)
	}
	obj.Set("pad", string(pad))
	return obj
}

// padOK checks an imported object's pad against its index without
// allocating, so the check adds nothing to allocs_per_op.
func padOK(obj *rdo.Object, seed int64, i int) bool {
	pad, word := obj.State["pad"], padWord(seed, i)
	if len(pad) != padBytes {
		return false
	}
	for off := 0; off < padBytes; off += len(word) {
		if pad[off:off+len(word)] != word {
			return false
		}
	}
	return true
}

// populate installs n counter objects at version 1 in one snapshot load —
// one segment rewrite and one fsync instead of n group commits.
func populate(b store.Backend, seed int64, n int) error {
	var buf wire.Buffer
	buf.PutUvarint(uint64(n))
	for i := 0; i < n; i++ {
		obj := newCounter(seed, i)
		obj.Version = 1
		buf.PutBytes(obj.Encode())
	}
	return b.LoadSnapshot(buf.Bytes())
}

func counterValue(obj *rdo.Object) int64 {
	v, _ := strconv.ParseInt(obj.State["count"], 10, 64)
	return v
}

// objectRun is import_read and, with write set, commit_write.
type objectRun struct {
	rc    *runCtx
	write bool

	srv      *serverStack
	addr     string
	clients  []*clientStack
	urns     []urn.URN
	pickers  []*keyPicker // import_read: per-client key stream
	worksets [][]int      // commit_write: the objects each client cycles through
	rngs     []*rand.Rand
	acked    []int64 // commit_write: acknowledged adds per object (one writer each)
	gk       genKinds

	heapPerObj float64 // traced: resident bytes per object after populate
}

func (o *objectRun) objects() int {
	if o.write {
		return o.rc.sz.commitObjects
	}
	return o.rc.sz.importObjects
}

func (o *objectRun) serverSpec() serverSpec {
	sz := o.rc.sz
	spec := serverSpec{dir: o.rc.dir, journalShards: 4, storeOnDisk: true}
	if o.write {
		spec.storeCompactEvery = sz.commitCompact
	} else {
		spec.storeCacheBytes = int64(sz.importStoreMiB * (1 << 20))
	}
	return spec
}

func (o *objectRun) setup() error {
	rc, n := o.rc, o.objects()
	var heap0 runtime.MemStats
	if rc.tr != nil {
		runtime.GC()
		runtime.ReadMemStats(&heap0)
	}
	srv, err := newServer(o.serverSpec(), rc.tr)
	if err != nil {
		return err
	}
	o.srv = srv
	if err := populate(srv.store, rc.seed, n); err != nil {
		return err
	}
	if rc.tr != nil {
		var heap1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&heap1)
		o.heapPerObj = (float64(heap1.HeapAlloc) - float64(heap0.HeapAlloc)) / float64(n)
		o.gk = newGenKinds(rc.tr)
	}
	o.urns = make([]urn.URN, n)
	for i := range o.urns {
		o.urns[i] = objectURN(i)
	}
	o.acked = make([]int64, n)
	if o.addr, err = srv.listen(); err != nil {
		return err
	}
	for c := 0; c < rc.clients; c++ {
		cs := clientSpec{id: fmt.Sprintf("bench-c%d", c), cacheBytes: rc.sz.importClientKiB << 10}
		if o.write {
			cs.cacheBytes, cs.noAutoExport = 0, true
			cs.logPath = filepath.Join(rc.dir, cs.id+".qrpc")
		}
		cl, err := newClient(cs, rc.tr)
		if err != nil {
			return err
		}
		o.clients = append(o.clients, cl)
		if _, err := cl.dial(o.addr); err != nil {
			return err
		}
		seed := rc.seed*1000 + int64(c)
		if !o.write {
			o.pickers = append(o.pickers, newKeyPicker(seed, n, rc.sz.importHot, 0.8))
			continue
		}
		// Client c owns the indices congruent to c: disjoint key sets, so no
		// export ever conflicts. It cycles through a seeded sample of them,
		// imported here so every timed Invoke is a cache hit.
		rng := rand.New(rand.NewSource(seed))
		var ws []int
		for _, j := range rng.Perm(n / rc.clients)[:min(rc.sz.commitWorkset, n/rc.clients)] {
			k := j*rc.clients + c
			if _, err := cl.am.Import(o.urns[k], access.ImportOptions{}).Wait(bg); err != nil {
				return err
			}
			ws = append(ws, k)
		}
		o.worksets, o.rngs = append(o.worksets, ws), append(o.rngs, rng)
	}
	return nil
}

func (o *objectRun) drive(d time.Duration, rec *recorder) {
	step := o.importStep
	if o.write {
		step = o.commitStep
	}
	closedLoop(o.rc.clients, d, rec, func(c int, lat *latBuf) int64 {
		t0 := time.Now()
		var err error
		if tr := o.rc.tr; tr != nil {
			o.gk.op(tr, o.clients[c].sc, func() { err = step(c) })
		} else {
			err = step(c)
		}
		lat.add(ms(time.Since(t0)))
		if err != nil {
			rec.fail(1, err)
		}
		if o.write {
			o.srv.segmentStats() // keeps its total across compactions
		}
		return 1
	})
}

// importStep is one ImportWait of a seeded key, checked against its index.
func (o *objectRun) importStep(c int) error {
	i := o.pickers[c].next()
	cl := o.clients[c]
	var f *access.Future[*rdo.Object]
	o.gk.call(o.rc.tr, cl.sc, o.gk.issue, func() { f = cl.am.Import(o.urns[i], access.ImportOptions{}) })
	var obj *rdo.Object
	var err error
	o.gk.call(o.rc.tr, cl.sc, o.gk.wait, func() { obj, err = f.Wait(bg) })
	if err != nil {
		return err
	}
	if !padOK(obj, o.rc.seed, i) {
		return fmt.Errorf("import of %s returned the wrong pad", o.urns[i])
	}
	return nil
}

// commitStep is one cached Invoke add 1 plus an Export waited to commit.
func (o *objectRun) commitStep(c int) error {
	k := o.worksets[c][o.rngs[c].Intn(len(o.worksets[c]))]
	return commitOne(o.rc.tr, o.gk, o.clients[c], o.urns[k], &o.acked[k])
}

// commitOne adds 1 to a cached counter and waits for the export to commit,
// counting the acknowledgement.
func commitOne(tr *tracer, gk genKinds, cl *clientStack, u urn.URN, acked *int64) error {
	var f *access.Future[access.ExportResult]
	var err error
	gk.call(tr, cl.sc, gk.issue, func() {
		if _, err = cl.am.Invoke(u, "add", "1"); err == nil {
			f, err = cl.am.Export(u, qrpc.PriorityNormal)
		}
	})
	if err != nil {
		return err
	}
	var res access.ExportResult
	gk.call(tr, cl.sc, gk.wait, func() { res, err = f.Wait(bg) })
	if err != nil {
		return err
	}
	if res.Outcome != proto.OutcomeCommitted {
		return fmt.Errorf("export of %s: outcome %v (%s), want committed", u, res.Outcome, res.Message)
	}
	*acked++
	return nil
}

// checkAcked requires every touched object to hold exactly the acknowledged
// adds (exactly-once) at version 1 + commits.
func checkAcked(b store.Backend, urns []urn.URN, acked []int64, rec *recorder) {
	for k, n := range acked {
		if n == 0 {
			continue
		}
		obj, err := b.Get(urns[k])
		if err == nil && (counterValue(obj) != n || obj.Version != uint64(1+n)) {
			err = fmt.Errorf("%s: count %d at version %d, want %d acknowledged adds at version %d",
				urns[k], counterValue(obj), obj.Version, n, 1+n)
		}
		if err != nil {
			rec.fail(1, err)
		}
	}
}

func (o *objectRun) verify(rec *recorder) {
	if o.write {
		checkAcked(o.srv.store, o.urns, o.acked, rec)
	}
}

func (o *objectRun) counters() counters { return readCounters(o.srv, o.clients) }

func (o *objectRun) extra(rec *recorder, m map[string]float64) error {
	if n := o.srv.store.Occupancy().Compactions; o.write && o.rc.seconds >= 5 && n < 5 {
		fmt.Fprintf(os.Stderr, "commit_write: the run spanned only %d segment compactions (want >= 5)\n", n)
	}
	if o.rc.tr == nil {
		return nil
	}
	m["store.compact_stall_ms_max"] = float64(o.srv.tstore.stallMaxNs.Load()) / 1e6
	m["store.heap_bytes_per_obj"] = o.heapPerObj
	if live := len(o.srv.store.Snapshot()); live > 0 {
		m["store.segment_bytes_per_live_byte"] = float64(o.srv.store.Occupancy().SegmentBytes) / float64(live)
	}
	var sample []int
	for i := 0; i < 256; i++ {
		if o.write {
			sample = append(sample, o.worksets[0][i%len(o.worksets[0])])
		} else {
			sample = append(sample, o.pickers[0].next())
		}
	}
	return probeObjects(o.rc, o.rc.seed, sample, o.write, m)
}

func (o *objectRun) teardown() {
	for _, cl := range o.clients {
		cl.stop()
	}
	if o.srv != nil {
		o.srv.close()
	}
}

// restartRun reopens an abandoned server's directories again and again.
type restartRun struct {
	rc       *runCtx
	spec     serverSpec
	pristine string // copy of the abandoned directories, restored per cycle
	urns     []urn.URN
	acked    []int64
	wantHash [32]byte
	cycles   int
	sum      counters // added up over every reopened server
	last     *serverStack

	footerS, scanS         []float64 // whole reopen, until an import is served
	openFooterS, openScanS []float64 // traced: disk.Open alone
	replayS                []float64 // traced: journal replay alone
	heapPerObj             float64
}

func (r *restartRun) setup() error {
	rc, n := r.rc, r.rc.sz.restartObjects
	live := filepath.Join(rc.dir, "live")
	if err := os.MkdirAll(live, 0o700); err != nil {
		return err
	}
	// CompactEvery above the tail length: no compaction, so the commits made
	// below stay a tail behind the footer the population's rewrite left.
	r.spec = serverSpec{dir: live, journalShards: 4, storeOnDisk: true, storeCompactEvery: 1 << 30}
	srv, err := newServer(r.spec, rc.tr)
	if err != nil {
		return err
	}
	if err := populate(srv.store, rc.seed, n); err != nil {
		return err
	}
	r.urns = make([]urn.URN, n)
	for i := range r.urns {
		r.urns[i] = objectURN(i)
	}
	r.acked = make([]int64, n)
	addr, err := srv.listen()
	if err != nil {
		return err
	}
	var gk genKinds
	if rc.tr != nil {
		gk = newGenKinds(rc.tr)
	}
	errs := make(chan error, rc.clients)
	for c := 0; c < rc.clients; c++ {
		go func(c int) {
			cl, err := newClient(clientSpec{id: fmt.Sprintf("bench-c%d", c), noAutoExport: true}, rc.tr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.stop()
			if _, err := cl.dial(addr); err != nil {
				errs <- err
				return
			}
			rng := rand.New(rand.NewSource(rc.seed*1000 + int64(c)))
			perm := rng.Perm(n / rc.clients)
			var ws []int
			for _, j := range perm[:min(64, len(perm))] {
				k := j*rc.clients + c
				if _, err := cl.am.Import(r.urns[k], access.ImportOptions{}).Wait(bg); err != nil {
					errs <- err
					return
				}
				ws = append(ws, k)
			}
			for i := 0; i < rc.sz.restartTail/rc.clients; i++ {
				k := ws[rng.Intn(len(ws))]
				if err := commitOne(rc.tr, gk, cl, r.urns[k], &r.acked[k]); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < rc.clients; c++ {
		if err := <-errs; err != nil {
			srv.abandon()
			return err
		}
	}
	r.wantHash = sha256.Sum256(srv.store.Snapshot())
	srv.abandon() // no Close: no fresh footer, the journal uncompacted
	r.pristine = filepath.Join(rc.dir, "pristine")
	return os.Rename(live, r.pristine)
}

// restore makes dst a fresh copy of src.
func restore(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	return os.CopyFS(dst, os.DirFS(src))
}

// drive runs whole patterns of footer reopens followed by full-scan reopens
// (store.fidx removed) until d has passed; every reopen starts from the same
// restored bytes.
func (r *restartRun) drive(d time.Duration, rec *recorder) {
	deadline := time.Now().Add(d)
	nf, ns := r.rc.sz.footerPerScan[0], r.rc.sz.footerPerScan[1]
	for done := false; !done; done = !time.Now().Before(deadline) {
		for i := 0; i < nf+ns; i++ {
			rec.attempted++
			if err := r.cycle(i >= nf, rec); err != nil {
				rec.fail(1, err)
			}
		}
		rec.endSlice() // one slice per pattern: footer and scan reopens in fixed proportion
	}
}

func (r *restartRun) cycle(scan bool, rec *recorder) error {
	rc := r.rc
	r.last = nil // let the previous reopen's index go before the next is built
	if err := restore(r.pristine, r.spec.dir); err != nil {
		return err
	}
	if scan {
		if err := os.Remove(filepath.Join(r.spec.storeDir(), disk.FooterName)); err != nil {
			return err
		}
	}
	var heap0 runtime.MemStats
	measureHeap := rc.tr != nil && r.heapPerObj == 0
	if measureHeap {
		runtime.GC()
		runtime.ReadMemStats(&heap0)
	}
	var srv *serverStack
	var cl *clientStack
	var err error
	var took time.Duration
	rec.window(func() {
		t0 := time.Now()
		if srv, err = newServer(r.spec, rc.tr); err != nil {
			return
		}
		var addr string
		if addr, err = srv.listen(); err != nil {
			return
		}
		if cl, err = newClient(clientSpec{id: "bench-reopen"}, rc.tr); err != nil {
			return
		}
		if _, err = cl.dial(addr); err != nil {
			return
		}
		var obj *rdo.Object
		if obj, err = cl.am.Import(r.urns[0], access.ImportOptions{}).Wait(bg); err == nil && !padOK(obj, rc.seed, 0) {
			err = fmt.Errorf("reopened server served the wrong pad for %s", r.urns[0])
		}
		took = time.Since(t0)
	})
	if cl != nil {
		defer cl.stop()
	}
	if srv == nil {
		return err
	}
	defer srv.abandon()
	if err != nil {
		return err
	}
	rec.lat = append(rec.lat, ms(took))
	if scan {
		r.scanS = append(r.scanS, took.Seconds())
		r.openScanS = append(r.openScanS, srv.openDur.Seconds())
	} else {
		r.footerS = append(r.footerS, took.Seconds())
		r.openFooterS = append(r.openFooterS, srv.openDur.Seconds())
	}
	r.replayS = append(r.replayS, srv.replayDur.Seconds())
	if measureHeap {
		var heap1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&heap1)
		r.heapPerObj = (float64(heap1.HeapAlloc) - float64(heap0.HeapAlloc)) / float64(len(r.urns))
	}
	r.sum.add(readCounters(srv, nil))
	r.last = srv
	if got := srv.disk.RecoveredByFooter(); got == scan {
		return fmt.Errorf("reopen %d: recovered by footer = %v, want %v", r.cycles, got, !scan)
	}
	// Hashing the whole store costs more than a reopen; the first two
	// patterns (the warm-up's and the first timed one) check every reopen.
	if r.cycles < 2*(rc.sz.footerPerScan[0]+rc.sz.footerPerScan[1]) && sha256.Sum256(srv.store.Snapshot()) != r.wantHash {
		return fmt.Errorf("reopen %d: store snapshot differs from the abandoned server's", r.cycles)
	}
	if r.cycles == 0 {
		// Every commit acknowledged before the abandonment must be readable.
		checkAcked(srv.store, r.urns, r.acked, rec)
	}
	r.cycles++
	return nil
}

func (r *restartRun) verify(*recorder) {}

func (r *restartRun) counters() counters { return r.sum }

func (r *restartRun) extra(rec *recorder, m map[string]float64) error {
	m["reopen_footer_s"], m["reopen_scan_s"] = median(r.footerS), median(r.scanS)
	// A reopen is either a footer reopen or a scan, never something between:
	// the gated latencies are the two medians, not percentiles of the mix.
	m["lat_p50_ms"], m["lat_p95_ms"] = 1e3*m["reopen_footer_s"], 1e3*m["reopen_scan_s"]
	if r.rc.tr == nil {
		return nil
	}
	m["store.open_footer_s"], m["store.open_scan_s"] = median(r.openFooterS), median(r.openScanS)
	m["store.journal_replay_s"] = median(r.replayS)
	m["store.heap_bytes_per_obj"] = r.heapPerObj
	return probeObjects(r.rc, r.rc.seed, []int{0, 1, 2, 3}, false, m)
}

func (r *restartRun) teardown() { r.last = nil }
