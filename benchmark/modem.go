package main

import (
	"fmt"
	"math/rand"
	"time"

	"rover"
	"rover/internal/access"
	"rover/internal/apps/calendar"
	"rover/internal/apps/mail"
	"rover/internal/netsim"
	"rover/internal/proto"
	"rover/internal/qrpc"
	"rover/internal/rdo"
	"rover/internal/transport"
	"rover/internal/urn"
	"rover/internal/vtime"
)

// modeledFlush is the laptop-disk synchronous write charged to virtual time
// per stable-log flush (internal/bench.FlushCost: seek + rotate + write).
const modeledFlush = 15 * time.Millisecond

// simStack is one server, the measured client on the link under test and a
// second client on its own Ethernet link, all on one virtual-time scheduler.
type simStack struct {
	spec   netsim.LinkSpec
	sched  *vtime.Scheduler
	srv    *serverStack
	cli    *clientStack
	writer *clientStack
	link   *transport.Sim
}

// modemRun is modem_session: the same scripted mail-and-calendar session on
// each of the paper's four links, in virtual time.
type modemRun struct {
	rc     *runCtx
	seedDB []byte // snapshot of the seeded mail folder and calendar book
	msgIDs []string
	next   []*simStack // built by setup, consumed by the first session
	last   []*simStack // the latest session's stacks, live until the next one

	sum       counters
	firstWire map[string][2]int64 // per link: bytes A->B, B->A of the first session
	lastLinks map[string]netsim.Stats
	lastVtime map[string]float64
	cslipOps  int64
	events    uint64
}

var (
	folderURN = urn.MustParse("urn:rover:bench/mail/inbox")
	bookURN   = calendar.URNFor("bench", "team")
)

func msgURN(id string) urn.URN { return urn.MustParse("urn:rover:bench/mail/inbox/msg/" + id) }

func (m *modemRun) setup() error {
	// The mail seeder provisions through the facade; seed a scratch server
	// once and give every stack the same snapshot.
	scratch, err := rover.NewServer(rover.ServerOptions{ServerID: "bench-seed", Workers: -1})
	if err != nil {
		return err
	}
	defer scratch.Close()
	seeder := &mail.Seeder{Authority: "bench", BodyBytes: 2048, Rand: rand.New(rand.NewSource(m.rc.seed))}
	if m.msgIDs, err = seeder.SeedFolder(scratch, "inbox", m.rc.sz.mailMsgs); err != nil {
		return err
	}
	if err := scratch.Seed(calendar.NewObject(bookURN)); err != nil {
		return err
	}
	m.seedDB = scratch.Store().Snapshot()
	m.firstWire = map[string][2]int64{}
	m.next, err = m.build()
	return err
}

// build makes one fresh stack per standard link.
func (m *modemRun) build() ([]*simStack, error) {
	var out []*simStack
	for i, spec := range netsim.StandardLinks() {
		sched := vtime.NewScheduler()
		clock := vtime.SchedulerClock{S: sched}
		// Inline execution: the whole stack runs inside single-threaded
		// scheduler events, so a worker pool would race virtual time.
		srv, err := newServer(serverSpec{inline: true}, m.rc.tr)
		if err != nil {
			return nil, err
		}
		if err := srv.store.LoadSnapshot(m.seedDB); err != nil {
			return nil, err
		}
		s := &simStack{spec: spec, sched: sched, srv: srv}
		// Compression must be decided before the link exists: the simulated
		// link fires the connect handshake at once.
		s.cli, err = newClient(clientSpec{id: "bench-laptop", clock: clock, modeledFlush: modeledFlush, compress: true, noAutoExport: true}, m.rc.tr)
		if err != nil {
			return nil, err
		}
		s.writer, err = newClient(clientSpec{id: "bench-writer", clock: clock, modeledFlush: modeledFlush}, m.rc.tr)
		if err != nil {
			return nil, err
		}
		s.link = transport.NewSim(sched, spec, m.rc.seed+int64(i), s.cli.engine, srv.engine)
		s.cli.attach(s.link)
		s.writer.attach(transport.NewSim(sched, netsim.Ethernet10, m.rc.seed+100+int64(i), s.writer.engine, srv.engine))
		out = append(out, s)
	}
	return out, nil
}

func closeStacks(stacks []*simStack) {
	for _, s := range stacks {
		s.cli.stop()
		s.writer.stop()
		s.srv.close()
	}
}

func (m *modemRun) drive(d time.Duration, rec *recorder) {
	deadline := time.Now().Add(d)
	m.events = 0
	for done := false; !done; done = !time.Now().Before(deadline) {
		closeStacks(m.last)
		stacks := m.next
		m.next, m.last = nil, nil
		if stacks == nil {
			var err error
			if stacks, err = m.build(); err != nil {
				rec.attempted++
				rec.fail(1, err)
				return
			}
		}
		rec.window(func() {
			for _, s := range stacks {
				m.session(s, rec)
			}
		})
		rec.endSlice()
		for _, s := range stacks {
			m.sum.add(readCounters(s.srv, []*clientStack{s.cli, s.writer}))
		}
		m.last = stacks
	}
}

// session runs the script on one link: pipelined import of the mail folder,
// calendar edits exported one by one, a second client flagging messages, and
// the first client revalidating everything (the folder arrives as a delta).
// Every user-level operation of the measured client is one op; its latency is
// virtual time from issue to completion.
func (m *modemRun) session(s *simStack, rec *recorder) {
	am, sz := s.cli.am, m.rc.sz
	var ops, failed int64
	var lats []float64
	var firstErr error
	fail := func(err error) {
		failed++
		if firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", s.spec.Name, err)
		}
	}
	// op issues one measured operation; done must be called at completion.
	op := func() (done func(error)) {
		ops++
		start := s.sched.Now()
		return func(err error) {
			lats = append(lats, ms(s.sched.Now().Sub(start)))
			if err != nil {
				fail(err)
			}
		}
	}
	importAll := func(opts access.ImportOptions, then func()) {
		left := 1 + len(m.msgIDs)
		one := func(u urn.URN) {
			done := op()
			am.Import(u, opts).OnReady(func(_ *rdo.Object, err error) {
				done(err)
				if left--; left == 0 {
					then()
				}
			})
		}
		one(folderURN)
		for _, id := range m.msgIDs {
			one(msgURN(id))
		}
	}

	var edit func(i int)
	var flag func(i int)
	importAll(access.ImportOptions{}, func() {
		done := op()
		am.Import(bookURN, access.ImportOptions{}).OnReady(func(_ *rdo.Object, err error) {
			done(err)
			edit(0)
		})
	})
	edit = func(i int) {
		if i == sz.calEdits {
			flag(0)
			return
		}
		done := op()
		slot := fmt.Sprintf("1995-12-%02d.%02d", 1+i%28, 9+i%8)
		if _, err := am.Invoke(bookURN, "schedule", slot, "bench-laptop", "sosp talk dry run"); err != nil {
			done(err)
			return
		}
		f, err := am.Export(bookURN, qrpc.PriorityNormal)
		if err != nil {
			done(err)
			return
		}
		f.OnReady(func(res access.ExportResult, err error) {
			if err == nil && res.Outcome != proto.OutcomeCommitted {
				err = fmt.Errorf("calendar edit %d: outcome %v (%s)", i, res.Outcome, res.Message)
			}
			done(err)
			edit(i + 1)
		})
	}
	flag = func(i int) {
		if i == sz.mailChanges {
			importAll(access.ImportOptions{Revalidate: true}, func() {})
			return
		}
		args := []string{m.msgIDs[i%len(m.msgIDs)], "S"}
		s.writer.am.InvokeRemote(folderURN, "setflag", args, qrpc.PriorityNormal).OnReady(func(_ access.InvokeResult, err error) {
			if err != nil {
				fail(fmt.Errorf("second client's change %d: %w", i, err))
			}
			flag(i + 1)
		})
	}
	if _, drained := s.sched.Run(50_000_000); !drained {
		fail(fmt.Errorf("simulation event budget exhausted"))
	}
	want := int64(2*(1+len(m.msgIDs)) + 1 + sz.calEdits)
	if ops != want || int64(len(lats)) != ops {
		fail(fmt.Errorf("%d of %d operations issued, %d completed", ops, want, len(lats)))
	}
	if am.Stats().DeltaImports < 1 {
		fail(fmt.Errorf("revalidating the changed folder was not served as a delta"))
	}
	// The client's cache must now equal the server's store, object by object.
	for _, u := range append([]urn.URN{folderURN, bookURN}, urnsOf(m.msgIDs)...) {
		cached, _, ok := am.Import(u, access.ImportOptions{}).Result()
		home, err := s.srv.store.Get(u)
		if !ok || err != nil || cached == nil || !rdo.Equal(cached, home) || cached.Version != home.Version {
			fail(fmt.Errorf("cached %s differs from the server's copy", u))
		}
	}
	// The same seed must put the same bytes on the wire every time.
	st := s.link.Duplex().Stats()
	wire := [2]int64{st.BytesAB, st.BytesBA}
	if first, seen := m.firstWire[s.spec.Name]; !seen {
		m.firstWire[s.spec.Name] = wire
	} else if first != wire {
		fail(fmt.Errorf("wire bytes %v differ from the first session's %v with the same seed", wire, first))
	}
	if m.lastLinks == nil {
		m.lastLinks, m.lastVtime = map[string]netsim.Stats{}, map[string]float64{}
	}
	m.lastLinks[s.spec.Name], m.lastVtime[s.spec.Name] = st, s.sched.Now().Duration().Seconds()
	m.events += s.sched.Ran()
	if s.spec.Name == netsim.CSLIP14k4.Name {
		rec.lat = append(rec.lat, lats...)
		m.cslipOps = ops
	}
	rec.attempted += ops
	if failed > 0 {
		rec.fail(int(min(failed, ops)), firstErr)
	}
}

func urnsOf(ids []string) []urn.URN {
	out := make([]urn.URN, len(ids))
	for i, id := range ids {
		out[i] = msgURN(id)
	}
	return out
}

func (m *modemRun) verify(*recorder) {}

func (m *modemRun) counters() counters { return m.sum }

func (m *modemRun) extra(rec *recorder, metrics map[string]float64) error {
	cslip := m.lastLinks[netsim.CSLIP14k4.Name]
	if m.cslipOps > 0 {
		metrics["wire_bytes_per_op"] = float64(cslip.BytesAB+cslip.BytesBA) / float64(m.cslipOps)
	}
	metrics["session_vs_cslip14"] = m.lastVtime[netsim.CSLIP14k4.Name]
	metrics["session_vs_ethernet"] = m.lastVtime[netsim.Ethernet10.Name]
	if m.rc.tr == nil {
		return nil
	}
	for name, st := range m.lastLinks {
		p := "netsim." + name + "."
		metrics[p+"vtime_s"] = m.lastVtime[name]
		metrics[p+"bytes"] = float64(st.BytesAB + st.BytesBA)
		metrics[p+"frames"] = float64(st.FramesAB + st.FramesBA)
		metrics[p+"logical_frames"] = float64(st.LogicalAB + st.LogicalBA)
	}
	metrics["netsim.events_per_wall_s"] = float64(m.events) / rec.wall.Seconds()
	return probeMail(m.rc, m.seedDB, m.msgIDs, metrics)
}

func (m *modemRun) teardown() {
	closeStacks(m.next)
	closeStacks(m.last)
	m.next, m.last = nil, nil
}
