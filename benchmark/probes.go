package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rover/internal/access"
	"rover/internal/proto"
	"rover/internal/qrpc"
	"rover/internal/rdo"
	"rover/internal/stable"
	"rover/internal/urn"
	"rover/internal/wire"
)

// The layer probes run after the traced phase, single-threaded, replaying a
// recorded sample of the workload's real inputs through each layer's public
// functions. One goroutine means one scope, so parent links — and therefore
// self times — are exact, which they cannot be in the concurrent live run.

// capture is a qrpc.Sender that keeps what the engine hands it.
type capture struct{ frames []wire.Frame }

func (c *capture) SendFrame(f wire.Frame) bool {
	c.frames = append(c.frames, f)
	return true
}

// loopback joins a probe client engine to a probe server engine through two
// capture senders: every frame one side emits is handed to the other side's
// OnFrame by the probe itself, timed, with no transport and no concurrency.
type loopback struct {
	tr   *tracer
	sc   *scope
	srv  *serverStack
	cli  *clientStack
	up   capture // client -> server
	down capture // server -> client

	kOnFrame, kCliFrame, kEnqueue *kind
	sentUp, sentDown              []wire.Frame // everything that crossed, for the wire probes
}

func newLoopback(tr *tracer, compress bool) (*loopback, error) {
	sc := &scope{}
	srv, err := newTracedServer(serverSpec{inline: true}, tr, sc)
	if err != nil {
		return nil, err
	}
	cli, err := newTracedClient(clientSpec{id: "bench-probe", compress: compress, noAutoExport: true}, tr, sc)
	if err != nil {
		srv.close()
		return nil, err
	}
	return &loopback{tr: tr, sc: sc, srv: srv, cli: cli,
		kOnFrame: tr.kind("qrpc.server", "onframe"), kCliFrame: tr.kind("qrpc.client", "onframe"),
		kEnqueue: tr.kind("qrpc.client", "enqueue")}, nil
}

func (lb *loopback) connect() {
	lb.srv.engine.OnConnect(&lb.down, 0)
	lb.cli.engine.OnConnect(&lb.up, 0)
	lb.pump()
}

// pump carries frames back and forth until both directions are quiet.
func (lb *loopback) pump() {
	for len(lb.up.frames) > 0 || len(lb.down.frames) > 0 {
		up := lb.up.frames
		lb.up.frames = nil
		for _, f := range up {
			lb.sentUp = append(lb.sentUp, f)
			lb.tr.enter(lb.sc, lb.kOnFrame, func() { lb.srv.engine.OnFrame(&lb.down, f, 0) })
		}
		down := lb.down.frames
		lb.down.frames = nil
		for _, f := range down {
			lb.sentDown = append(lb.sentDown, f)
			lb.tr.enter(lb.sc, lb.kCliFrame, func() { lb.cli.engine.OnFrame(f, 0) })
		}
	}
}

// enqueue queues one request on the probe client, timed.
func (lb *loopback) enqueue(service string, args []byte) (pr *qrpc.Promise, err error) {
	lb.tr.enter(lb.sc, lb.kEnqueue, func() { pr, err = lb.cli.engine.Enqueue(service, args, qrpc.PriorityNormal, 0) })
	return
}

// call enqueues one request, carries it across and returns the reply.
func (lb *loopback) call(service string, args []byte) ([]byte, error) {
	pr, err := lb.enqueue(service, args)
	if err != nil {
		return nil, err
	}
	lb.pump()
	res, err, ok := pr.Result()
	if !ok {
		return nil, fmt.Errorf("probe: %s has not completed", service)
	}
	return res, err
}

func (lb *loopback) close() {
	lb.cli.stop()
	lb.srv.close()
}

// qrpcSelf fills the qrpc self times the loopback measured.
func (lb *loopback) qrpcSelf(m map[string]float64) {
	m["qrpc.server.onframe_self_us"] = lb.tr.meanSelfUs("qrpc.server", "onframe")
	if m["qrpc.client.enqueue_self_us"] == 0 { // no live Enqueue span: the object workloads enqueue inside access
		m["qrpc.client.enqueue_self_us"] = lb.tr.meanSelfUs("qrpc.client", "enqueue")
	}
}

// meanNs times fn over n calls.
func meanNs(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// usAndAllocs times fn and counts its allocations per call.
func usAndAllocs(n int, fn func()) (us, allocs float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	ns := meanNs(n, func(int) { fn() })
	runtime.ReadMemStats(&b)
	return ns / 1e3, float64(b.Mallocs-a.Mallocs) / float64(n)
}

// Results land here so the compiler cannot drop (or stack-allocate) the
// probed calls.
var (
	sink    int
	sinkObj *rdo.Object
)

// wireProbes measures the framing layer on frames the loopback carried.
func wireProbes(lb *loopback, m map[string]float64) error {
	frames := append(append([]wire.Frame{}, lb.sentUp...), lb.sentDown...)
	if len(frames) == 0 {
		return fmt.Errorf("wire probe: the loopback carried no frame")
	}
	const rounds = 20
	var scratch []byte
	encoded := make([][]byte, len(frames))
	for i, f := range frames {
		encoded[i] = wire.EncodeFrame(f)
	}
	m["wire.encode_ns"] = meanNs(rounds*len(frames), func(i int) { scratch = wire.AppendFrame(scratch[:0], frames[i%len(frames)]) })
	m["wire.decode_ns"] = meanNs(rounds*len(frames), func(i int) {
		_, n, _ := wire.DecodeFrame(encoded[i%len(encoded)])
		sink += n
	})
	// Coalescing applies to plain frames only; unpack what crossed as batches.
	var plain []wire.Frame
	var logical int
	for _, f := range frames {
		logical += wire.LogicalFrames(f)
		switch f.Type {
		case wire.FrameBatchZ:
			if zf, err := wire.InflateBatchFrame(f); err == nil {
				f = zf
			}
			fallthrough
		case wire.FrameBatch:
			if subs, err := wire.UnbatchFrames(f.Payload); err == nil {
				plain = append(plain, subs...)
				continue
			}
		}
		plain = append(plain, f)
	}
	m["wire.frames_per_batch"] = float64(logical) / float64(len(frames))
	const group = 4
	m["wire.coalesce_ns"] = meanNs(rounds*len(plain), func(i int) {
		lo := i % len(plain)
		sink += len(wire.CoalesceFrames(plain[lo:min(lo+group, len(plain))], false).Payload)
	})
	var raw, packed int
	for lo := 0; lo < len(plain); lo += group {
		raw += wire.EncodedFrameSize(len(wire.BatchFrames(plain[lo:min(lo+group, len(plain))]).Payload))
	}
	t0 := time.Now()
	for lo := 0; lo < len(plain); lo += group {
		packed += wire.EncodedFrameSize(len(wire.CoalesceFrames(plain[lo:min(lo+group, len(plain))], true).Payload))
	}
	if raw > 0 {
		m["compress.ratio"] = float64(packed) / float64(raw)
		m["compress.us_per_kb"] = float64(time.Since(t0).Microseconds()) / (float64(raw) / 1024)
	}
	return nil
}

// probeEcho replays sampled echo payloads through the engines: one at a time,
// or — as drain_durable does — queued while disconnected and drained at once.
func probeEcho(rc *runCtx, sample [][]byte, burst bool, m map[string]float64) error {
	lb, err := newLoopback(rc.probe, false)
	if err != nil {
		return err
	}
	defer lb.close()
	lb.srv.engine.Register(echoService, tracedHandler(rc.probe, func(string) *scope { return lb.sc },
		func(_ string, req qrpc.Request) ([]byte, error) { return req.Args, nil }))
	if !burst {
		lb.connect()
	}
	var proms []*qrpc.Promise
	for _, p := range sample {
		pr, err := lb.enqueue(echoService, p)
		if err != nil {
			return err
		}
		proms = append(proms, pr)
		lb.pump()
	}
	if burst {
		lb.connect()
	}
	for i, pr := range proms {
		if res, err, ok := pr.Result(); !ok || err != nil || !bytes.Equal(res, sample[i]) {
			return fmt.Errorf("probe echo %d: done %v, err %v, %d bytes back for %d sent", i, ok, err, len(res), len(sample[i]))
		}
	}
	lb.qrpcSelf(m)
	return wireProbes(lb, m)
}

// objectProbes measures the interpreter and the object codec on one object.
func objectProbes(obj *rdo.Object, method string, args []string, m map[string]float64) error {
	const n = 2000
	env, err := rdo.NewEnv(obj.Clone(), rdo.EnvOptions{})
	if err != nil {
		return err
	}
	var evalErr, decodeErr error
	m["rscript.eval_us"], m["rscript.eval_allocs"] = usAndAllocs(n, func() {
		if _, err := env.Invoke(method, args...); err != nil {
			evalErr = err
		}
		env.TakeOps()
	})
	enc := obj.Encode()
	m["rdo.encode_us"], m["rdo.encode_allocs"] = usAndAllocs(n, func() { sink += len(obj.Encode()) })
	m["rdo.decode_us"], m["rdo.decode_allocs"] = usAndAllocs(n, func() {
		o, err := rdo.Decode(enc)
		if err != nil {
			decodeErr = err
			return
		}
		sink += len(o.State)
	})
	m["rdo.clone_us"], m["rdo.clone_allocs"] = usAndAllocs(n, func() { sinkObj = obj.Clone() })
	if evalErr != nil {
		return fmt.Errorf("probe %s %s: %w", obj.URN, method, evalErr)
	}
	return decodeErr
}

// protoProbes measures the import message codec on real arguments/replies.
func protoProbes(urns []urn.URN, replies [][]byte, m map[string]float64) error {
	if len(urns) == 0 || len(replies) != len(urns) {
		return fmt.Errorf("proto probe: %d import replies for %d objects", len(replies), len(urns))
	}
	const rounds = 20
	m["proto.marshal_ns"] = meanNs(rounds*len(urns), func(i int) {
		sink += len(wire.Marshal(&proto.ImportArgs{URN: urns[i%len(urns)]}))
	})
	var bad error
	m["proto.unmarshal_ns"] = meanNs(rounds*len(replies), func(i int) {
		var rep proto.ImportReply
		if err := wire.Unmarshal(replies[i%len(replies)], &rep); err != nil {
			bad = err
		}
		sink += len(rep.Object)
	})
	return bad
}

// handlerProbe is what replaying requests for one rover.* service yields.
type handlerProbe struct {
	lb      *loopback // the harness with the real handler, still open
	replies [][]byte
	// onframeUs is qrpc.Server.OnFrame's self time when a canned handler
	// returns the real replies: the engine alone. handlerUs is the real run's
	// OnFrame self time (store calls are child spans) minus that: what the
	// server package's handler itself did.
	onframeUs, handlerUs float64
}

func probeHandler(pt *tracer, service string, load func(*loopback) error, reqs [][]byte) (*handlerProbe, error) {
	lb, err := newLoopback(pt, false)
	if err != nil {
		return nil, err
	}
	p := &handlerProbe{lb: lb}
	if err := load(lb); err != nil {
		lb.close()
		return nil, err
	}
	lb.connect()
	for _, args := range reqs {
		res, err := lb.call(service, args)
		if err != nil {
			lb.close()
			return nil, err
		}
		p.replies = append(p.replies, res)
	}

	ct := newTracer()
	canned, err := newLoopback(ct, false)
	if err != nil {
		lb.close()
		return nil, err
	}
	defer canned.close()
	next := 0
	canned.srv.engine.Register(service, tracedHandler(ct, func(string) *scope { return canned.sc },
		func(string, qrpc.Request) ([]byte, error) { next++; return p.replies[next-1], nil }))
	canned.connect()
	for _, args := range reqs {
		if _, err := canned.call(service, args); err != nil {
			lb.close()
			return nil, err
		}
	}
	p.onframeUs = ct.meanSelfUs("qrpc.server", "onframe")
	p.handlerUs = pt.meanSelfUs("qrpc.server", "onframe") - p.onframeUs
	return p, nil
}

// probeObjects replays sampled imports (and, for the write path, exports)
// through a loopback server holding just the sampled objects.
func probeObjects(rc *runCtx, seed int64, sample []int, write bool, m map[string]float64) error {
	seen := map[int]bool{}
	var idx []int
	for _, i := range sample {
		if !seen[i] {
			seen[i] = true
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	load := func(lb *loopback) error {
		var buf wire.Buffer
		buf.PutUvarint(uint64(len(idx)))
		for _, i := range idx {
			obj := newCounter(seed, i)
			obj.Version = 1
			buf.PutBytes(obj.Encode())
		}
		return lb.srv.store.LoadSnapshot(buf.Bytes())
	}
	var urns []urn.URN
	var imports, exports [][]byte
	for _, i := range idx {
		u := objectURN(i)
		urns = append(urns, u)
		imports = append(imports, wire.Marshal(&proto.ImportArgs{URN: u}))
		exports = append(exports, wire.Marshal(&proto.ExportArgs{URN: u, BaseVer: 1,
			Invs: []rdo.Invocation{{Object: u, Method: "add", Args: []string{"1"}, BaseVer: 1}}}))
	}
	imp, err := probeHandler(rc.probe, proto.SvcImport, load, imports)
	if err != nil {
		return err
	}
	lb := imp.lb
	defer lb.close()
	lb.qrpcSelf(m)
	m["server.import_us"], m["qrpc.server.onframe_self_us"] = imp.handlerUs, imp.onframeUs
	if err := wireProbes(lb, m); err != nil {
		return err
	}
	if err := protoProbes(urns, imp.replies, m); err != nil {
		return err
	}
	if write {
		exp, err := probeHandler(newTracer(), proto.SvcExport, load, exports)
		if err != nil {
			return err
		}
		m["server.export_us"] = exp.handlerUs
		exp.lb.close()
	}
	// The client side of the dynamic-placement comparison: a method call on a
	// cached object, no network, no queue.
	u := urns[0]
	lb.cli.am.Import(u, access.ImportOptions{})
	lb.pump()
	var invokeErr error
	m["access.local_invoke_us"] = meanNs(1000, func(int) {
		if _, err := lb.cli.am.Invoke(u, "add", "1"); err != nil {
			invokeErr = err
		}
	}) / 1e3
	if invokeErr != nil {
		return fmt.Errorf("probe: local invoke on %s: %w", u, invokeErr)
	}
	if err := objectProbes(newCounter(seed, idx[0]), "add", []string{"1"}, m); err != nil {
		return err
	}
	return segmentProbe(rc, len(newCounter(seed, idx[0]).Encode())+48, m)
}

// segmentProbe appends records of the workload's size to a scratch segment
// file: the group-commit engine under the disk store, which the store keeps
// private, driven through its own public functions.
func segmentProbe(rc *runCtx, recSize int, m map[string]float64) error {
	seg, err := stable.CreateSegmentFile(filepath.Join(rc.dir, "probe.seg"), stable.Options{})
	if err != nil {
		return err
	}
	defer seg.Close()
	rec := make([]byte, recSize)
	var appendUs, waitUs []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := seg.AppendNoSync(rec); err != nil {
			return err
		}
		t1 := time.Now()
		if err := seg.Commit(); err != nil {
			return err
		}
		appendUs = append(appendUs, float64(t1.Sub(t0).Nanoseconds())/1e3)
		waitUs = append(waitUs, float64(time.Since(t1).Nanoseconds())/1e3)
	}
	sort.Float64s(appendUs)
	sort.Float64s(waitUs)
	m["stable.segment.append_us_p50"] = percentile(appendUs, 50)
	m["stable.segment.commit_wait_us_p50"] = percentile(waitUs, 50)
	m["stable.segment.commit_wait_us_p95"] = percentile(waitUs, 95)
	return nil
}

// probeMail replays the mail folder's imports with compression negotiated,
// so the wire and compress probes see what a modem link carries.
func probeMail(rc *runCtx, seedDB []byte, ids []string, m map[string]float64) error {
	lb, err := newLoopback(rc.probe, true)
	if err != nil {
		return err
	}
	defer lb.close()
	if err := lb.srv.store.LoadSnapshot(seedDB); err != nil {
		return err
	}
	lb.connect()
	urns := append([]urn.URN{folderURN}, urnsOf(ids)...)
	var replies [][]byte
	for _, u := range urns {
		res, err := lb.call(proto.SvcImport, wire.Marshal(&proto.ImportArgs{URN: u}))
		if err != nil {
			return err
		}
		replies = append(replies, res)
	}
	lb.qrpcSelf(m)
	if err := wireProbes(lb, m); err != nil {
		return err
	}
	if err := protoProbes(urns, replies, m); err != nil {
		return err
	}
	folder, err := lb.srv.store.Get(folderURN)
	if err != nil {
		return err
	}
	return objectProbes(folder, "setflag", []string{ids[0], "S"}, m)
}
