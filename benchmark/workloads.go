package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"rover/internal/qrpc"
	"rover/internal/vtime"
)

// workload is one named set of inputs. Later issues cite these names.
type workload struct {
	name string
	why  string
	bind func(rc *runCtx) runner
	// layers are the per-layer metrics a traced run of this workload must
	// report above zero; a probe or a decorator that stopped working fails
	// the run instead of reading as 0.
	layers []string
}

var workloads = []workload{
	{"echo_rtt", "64 B echo, no journal, in-memory store, MemLog client: the per-message cost of qrpc + wire + transport with every durability and object layer bypassed",
		func(rc *runCtx) runner { return &echoRun{rc: rc} }, echoLayers},
	{"drain_durable", "queue 256 echo requests into a FileLog while disconnected, then dial and drain against a 4-shard journal: stable + journal + pump batching + reconnect, same handler as echo_rtt",
		func(rc *runCtx) runner { return &echoRun{rc: rc, durable: true} }, drainLayers},
	{"import_read", "ImportWait over 100k small RDOs in the disk store, both caches far smaller than the population, 80/20 hot set, no commits: the read path a write-side change must not move",
		func(rc *runCtx) runner { return &objectRun{rc: rc} }, importReadLayers},
	{"commit_write", "cached Invoke add 1 + Export waited to commit on disjoint keys, FileLog client, journal x4, disk store with compactions: the write path, the same layers as import_read the other way round",
		func(rc *runCtx) runner { return &objectRun{rc: rc, write: true} }, commitWriteLayers},
	{"modem_session", "virtual-time mail and calendar session on all four paper links with compression: the delays a mobile user sees, byte-bound on CSLIP and round-trip-bound on Ethernet; bypasses TCP and files",
		func(rc *runCtx) runner { return &modemRun{rc: rc} }, modemLayers},
	{"restart", "reopen a disk store with an uncompacted tail and a 4-shard journal after an un-Closed abandonment, by footer and by full scan: the cold path no other workload touches",
		func(rc *runCtx) runner { return &restartRun{rc: rc} }, restartLayers},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const echoService = "bench.echo"

// echoRun is echo_rtt and, with durable set, drain_durable: the same
// bench-registered handler, so the two differ by the durability layers and
// the disconnected burst only.
type echoRun struct {
	rc      *runCtx
	durable bool

	srv     *serverStack
	addr    string
	clients []*clientStack
	inputs  [][][]byte // per client
	cursor  []int
	clock   vtime.Clock
	gk      genKinds

	connectMs []float64 // traced drain_durable: dial -> engine connected
}

func (e *echoRun) setup() error {
	rc := e.rc
	spec := serverSpec{}
	if e.durable {
		spec = serverSpec{dir: rc.dir, journalShards: 4}
	}
	srv, err := newServer(spec, rc.tr)
	if err != nil {
		return err
	}
	e.srv = srv
	e.clock = vtime.NewRealClock()
	scopes := map[string]*scope{}
	for c := 0; c < rc.clients; c++ {
		cs := clientSpec{id: fmt.Sprintf("bench-c%d", c)}
		if e.durable {
			cs.logPath = filepath.Join(rc.dir, cs.id+".qrpc")
		}
		cl, err := newClient(cs, rc.tr)
		if err != nil {
			return err
		}
		e.clients = append(e.clients, cl)
		scopes[cs.id] = cl.sc
		e.inputs = append(e.inputs, payloads(rc.seed*1000+int64(c), 512, rc.sz.echoPayload))
	}
	e.cursor = make([]int, rc.clients)
	echo := qrpc.Handler(func(_ string, req qrpc.Request) ([]byte, error) { return req.Args, nil })
	if rc.tr != nil {
		echo = tracedHandler(rc.tr, func(id string) *scope { return scopes[id] }, echo)
		e.gk = newGenKinds(rc.tr)
	}
	srv.engine.Register(echoService, echo)
	if e.addr, err = srv.listen(); err != nil {
		return err
	}
	if !e.durable {
		for _, cl := range e.clients {
			if _, err := cl.dial(e.addr); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *echoRun) nextPayload(c int) []byte {
	p := e.inputs[c][e.cursor[c]%len(e.inputs[c])]
	e.cursor[c]++
	return p
}

func (e *echoRun) drive(d time.Duration, rec *recorder) {
	step := e.echoStep
	if e.durable {
		step = e.burstStep
	}
	closedLoop(e.rc.clients, d, rec, func(c int, lat *latBuf) int64 { return step(c, lat, rec) })
}

// echoStep is one echo: enqueue, kick, wait, compare.
func (e *echoRun) echoStep(c int, lat *latBuf, rec *recorder) int64 {
	cl, p, tr := e.clients[c], e.nextPayload(c), e.rc.tr
	var got []byte
	var err error
	echo := func() {
		var pr *qrpc.Promise
		e.gk.call(tr, cl.sc, e.gk.enqueue, func() {
			pr, err = cl.engine.Enqueue(echoService, p, qrpc.PriorityNormal, e.clock.Now())
		})
		if err == nil {
			e.gk.call(tr, cl.sc, e.gk.kick, cl.tr.Kick)
			e.gk.call(tr, cl.sc, e.gk.wait, func() { got, err = pr.Wait(bg) })
		}
	}
	t0 := time.Now()
	if tr != nil {
		e.gk.op(tr, cl.sc, echo)
	} else {
		echo()
	}
	lat.add(ms(time.Since(t0)))
	if err == nil && !bytes.Equal(got, p) {
		err = fmt.Errorf("echo returned %d bytes that differ from the %d sent", len(got), len(p))
	}
	if err != nil {
		rec.fail(1, err)
	}
	return 1
}

// burstStep is one disconnected burst: queue burst requests into the FileLog
// with no transport (lat = time blocked in Enqueue), dial, drain until every
// promise completes, close the transport.
func (e *echoRun) burstStep(c int, lat *latBuf, rec *recorder) int64 {
	cl, n := e.clients[c], e.rc.sz.burst
	tr := e.rc.tr
	sent := make([][]byte, 0, n)
	proms := make([]*qrpc.Promise, 0, n)
	for i := 0; i < n; i++ {
		p := e.nextPayload(c)
		var pr *qrpc.Promise
		var err error
		t0 := time.Now()
		e.gk.call(tr, cl.sc, e.gk.enqueue, func() {
			pr, err = cl.engine.Enqueue(echoService, p, qrpc.PriorityNormal, e.clock.Now())
		})
		lat.add(ms(time.Since(t0)))
		if err != nil {
			rec.fail(1, err)
			continue
		}
		sent, proms = append(sent, p), append(proms, pr)
	}
	took, err := cl.dial(e.addr)
	if err != nil {
		rec.fail(len(proms), err)
		return int64(n)
	}
	if tr != nil {
		rec.mu.Lock()
		e.connectMs = append(e.connectMs, ms(took))
		rec.mu.Unlock()
	}
	for i, pr := range proms {
		got, err := pr.Wait(bg)
		if err == nil && !bytes.Equal(got, sent[i]) {
			err = fmt.Errorf("drained echo %d differs from what was queued", i)
		}
		if err != nil {
			rec.fail(1, err)
		}
	}
	cl.tr.Close()
	return int64(n)
}

func (e *echoRun) verify(*recorder) {}

func (e *echoRun) counters() counters { return readCounters(e.srv, e.clients) }

func (e *echoRun) extra(rec *recorder, m map[string]float64) error {
	tr := e.rc.tr
	if tr == nil {
		return nil
	}
	m["qrpc.server.handler_us"] = tr.kind("qrpc.server", "handler").meanUs()
	m["transport.kick_us"] = tr.kind("transport", "kick").meanUs()
	sort.Float64s(e.connectMs)
	m["transport.tcp.connect_ms_p50"] = percentile(e.connectMs, 50)
	var sample [][]byte
	for i := 0; i < 256; i++ {
		sample = append(sample, e.inputs[0][i%len(e.inputs[0])])
	}
	return probeEcho(e.rc, sample, e.durable, m)
}

func (e *echoRun) teardown() {
	for _, cl := range e.clients {
		cl.stop()
	}
	if e.srv != nil {
		e.srv.close()
	}
}
