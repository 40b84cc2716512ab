package bench

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"rover"
	"rover/internal/rdo"
	"rover/internal/repl"
	"rover/internal/store/disk"
	"rover/internal/urn"
	"rover/internal/wire"
)

// ExpARestart is the cold-path experiment: everything that happens when a
// server (or its replica) has been away. It measures (a) restart recovery —
// a clean shutdown leaves an index footer, so the next Open preads the index
// instead of streaming the whole segment; the same directory is reopened
// both ways and the footer path must win by at least 3× at full scale while
// recovering a byte-identical snapshot, (b) far-behind replica catch-up —
// an object whose peer is hundreds of versions behind (far past the
// in-memory history window) is brought up by replaying its operation chain
// straight from the segment in bounded chunks, and the wire bytes of that
// delta stream are compared against shipping the whole object, (c) the
// pooled cold-get path's allocation cost, and (d) the autotune controller
// growing the hot cache and journal shard count under pressure without ever
// passing its caps.
func ExpARestart(o Options) (*Table, error) {
	objects := o.scale(1_000_000, 20_000)
	cacheBytes := int64(o.scale(32<<20, 1<<20))
	loaders := o.scale(128, 16)
	histObjs := o.scale(4096, 512)
	gapMsgs := o.scale(512, 128)
	baseMsgs := 7 * gapMsgs // the replica missed the last 1/8 of the mailbox
	coldGets := o.scale(10_000, 1_000)

	dir, err := os.MkdirTemp("", "rover-arestart")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sdir := filepath.Join(dir, "store")

	st, err := disk.Open(disk.Options{Dir: sdir, CacheBytes: cacheBytes})
	if err != nil {
		return nil, err
	}
	defer st.Close()

	// Load phase: the population, then op-commit history on a slice of it so
	// footer recovery has real per-object windows to rebuild, then one
	// "mailbox" whose long operation chain is the catch-up subject.
	t0 := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, loaders)
	per := objects / loaders
	for w := 0; w < loaders; w++ {
		lo, hi := w*per, (w+1)*per
		if w == loaders-1 {
			hi = objects
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if err := st.Create(arestObj(i)); err != nil {
					errs <- err
					return
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	herrs := make(chan error, loaders)
	hper := histObjs / loaders
	if hper == 0 {
		hper = 1
	}
	for lo := 0; lo < histObjs; lo += hper {
		hi := lo + hper
		if hi > histObjs {
			hi = histObjs
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if err := arestBump(st, arestURN(i), 2); err != nil {
					herrs <- err
					return
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	close(herrs)
	if err := <-herrs; err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	mbox := urn.MustParse("urn:rover:restart/mbox")
	if err := st.Create(rdo.New(mbox, "mailbox")); err != nil {
		return nil, err
	}
	if err := arestAppend(st, mbox, baseMsgs+gapMsgs); err != nil {
		return nil, fmt.Errorf("mailbox: %w", err)
	}
	loadSecs := time.Since(t0).Seconds()
	population := objects + 1

	mboxVer, err := st.Version(mbox)
	if err != nil {
		return nil, err
	}
	wantHash := sha256.Sum256(st.Snapshot())

	// Clean Close appends the index footer and points the sidecar at it.
	c0 := time.Now()
	if err := st.Close(); err != nil {
		return nil, err
	}
	closeSecs := time.Since(c0).Seconds()

	// Reopen #1: the footer fast path.
	f0 := time.Now()
	fst, err := disk.Open(disk.Options{Dir: sdir, CacheBytes: cacheBytes})
	if err != nil {
		return nil, fmt.Errorf("footer reopen: %w", err)
	}
	defer fst.Close()
	footerOpen := time.Since(f0)
	if !fst.RecoveredByFooter() {
		return nil, fmt.Errorf("clean reopen did not take the footer fast path")
	}
	if fst.Len() != population {
		return nil, fmt.Errorf("footer recovery found %d objects, want %d", fst.Len(), population)
	}
	if sha256.Sum256(fst.Snapshot()) != wantHash {
		return nil, fmt.Errorf("footer-recovered snapshot diverges from pre-close state")
	}

	// Far-behind catch-up, measured on the footer-recovered store: stream the
	// replica's gap from the segment in catch-up chunks (the replicator's
	// wire records) and weigh the delta against one full-state record.
	deltaBytes, maxChunk, steps, err := arestDeltaBytes(fst, mbox, mboxVer-uint64(gapMsgs))
	if err != nil {
		return nil, fmt.Errorf("segment catch-up: %w", err)
	}
	if steps != gapMsgs {
		return nil, fmt.Errorf("segment catch-up streamed %d steps, want %d", steps, gapMsgs)
	}
	mobj, err := fst.Get(mbox)
	if err != nil {
		return nil, err
	}
	var fb wire.Buffer
	(&repl.Record{Kind: repl.KindState, URN: mbox, Object: mobj.Encode()}).MarshalWire(&fb)
	fullBytes := int64(len(fb.Bytes()))
	if 4*deltaBytes >= fullBytes {
		return nil, fmt.Errorf("catch-up delta %d B is not < 25%% of a full-state transfer (%d B)", deltaBytes, fullBytes)
	}

	// Cold-get phase: uniform random Gets, nearly all misses at this cache
	// size — the pread+decode fault path, with its allocation cost per op.
	rng := rand.New(rand.NewSource(42))
	lats := make([]time.Duration, 0, coldGets)
	runtime.GC()
	var mg0, mg1 runtime.MemStats
	runtime.ReadMemStats(&mg0)
	for i := 0; i < coldGets; i++ {
		u := arestURN(rng.Intn(objects))
		s := time.Now()
		if _, err := fst.Get(u); err != nil {
			return nil, fmt.Errorf("cold get %s: %w", u, err)
		}
		lats = append(lats, time.Since(s))
	}
	runtime.ReadMemStats(&mg1)
	allocsPerGet := (mg1.Mallocs - mg0.Mallocs) / uint64(coldGets)
	if err := fst.Close(); err != nil {
		return nil, err
	}

	// Reopen #2: delete the sidecar and pay the full streaming scan.
	if err := os.Remove(filepath.Join(sdir, disk.FooterName)); err != nil {
		return nil, err
	}
	s0 := time.Now()
	sst, err := disk.Open(disk.Options{Dir: sdir, CacheBytes: cacheBytes})
	if err != nil {
		return nil, fmt.Errorf("scan reopen: %w", err)
	}
	defer sst.Close()
	scanOpen := time.Since(s0)
	if sst.RecoveredByFooter() {
		return nil, fmt.Errorf("scan reopen claims footer recovery with no sidecar")
	}
	if sst.Len() != population {
		return nil, fmt.Errorf("scan recovery found %d objects, want %d", sst.Len(), population)
	}
	if sha256.Sum256(sst.Snapshot()) != wantHash {
		return nil, fmt.Errorf("scan-recovered snapshot diverges from pre-close state")
	}
	speedup := scanOpen.Seconds() / footerOpen.Seconds()
	if !o.Quick && speedup < 3 {
		return nil, fmt.Errorf("footer reopen only %.1fx faster than the scan (want >= 3x at full scale)", speedup)
	}

	// Autotune phase: a real server under deliberate pressure — a cache four
	// objects wide swept by two hundred, and journaled traffic against an
	// fsync threshold any disk clears. Three controller ticks must carry both
	// knobs to their caps and no further.
	tuneRow, err := arestAutotune(dir)
	if err != nil {
		return nil, fmt.Errorf("autotune: %w", err)
	}

	t := &Table{
		ID:      "ARESTART",
		Title:   fmt.Sprintf("cold-path engine at %d RDOs: footer recovery, segment catch-up, autotune", population),
		Columns: []string{"phase", "n", "secs", "per-sec", "detail"},
		Rows: [][]string{
			{"load", fmt.Sprintf("%d", population), fmt.Sprintf("%.1f", loadSecs),
				fmt.Sprintf("%.0f", float64(population)/loadSecs),
				fmt.Sprintf("close+footer %.2f s", closeSecs)},
			{"reopen-footer", fmt.Sprintf("%d", population), fmt.Sprintf("%.2f", footerOpen.Seconds()),
				fmt.Sprintf("%.0f", float64(population)/footerOpen.Seconds()),
				"pread index + tail replay; snapshot byte-identical"},
			{"reopen-scan", fmt.Sprintf("%d", population), fmt.Sprintf("%.2f", scanOpen.Seconds()),
				fmt.Sprintf("%.0f", float64(population)/scanOpen.Seconds()),
				fmt.Sprintf("sidecar removed; footer speedup %.1fx", speedup)},
			{"catch-up", fmt.Sprintf("%d", steps), "-", "-",
				fmt.Sprintf("delta %s vs full %s (%.1f%%), max chunk %s",
					kb(deltaBytes), kb(fullBytes), 100*float64(deltaBytes)/float64(fullBytes), kb(maxChunk))},
			{"cold-get", fmt.Sprintf("%d", coldGets), "-", "-",
				fmt.Sprintf("p99 %s, %d allocs/op", ms(p99(lats)), allocsPerGet)},
			tuneRow,
		},
		Notes: []string{
			"reopen-footer and reopen-scan recover the same directory; both must match the pre-close snapshot hash",
			fmt.Sprintf("catch-up replays a %d-version gap (history window is %d) from the segment in bounded chunks", gapMsgs, 32),
			"the experiment fails unless the footer path is taken, the delta stays under 25% of a full transfer, and autotune stops exactly at its caps",
		},
	}
	return t, nil
}

func arestURN(i int) urn.URN {
	return urn.MustParse(fmt.Sprintf("urn:rover:restart/o/%07d", i))
}

func arestObj(i int) *rdo.Object {
	o := rdo.New(arestURN(i), "restart")
	o.Set("n", fmt.Sprintf("%d", i))
	o.Set("p", "payload-0123456789abcdef")
	return o
}

// arestBump commits n single-invocation ops mutations on u, one version
// step each — the history windows footer recovery must rebuild.
func arestBump(st *disk.Store, u urn.URN, n int) error {
	for i := 0; i < n; i++ {
		cur, err := st.Get(u)
		if err != nil {
			return err
		}
		v := fmt.Sprintf("%d", i)
		cur.Set("n", v)
		inv := rdo.Invocation{Object: u, Method: "set", Args: []string{"n", v}, BaseVer: cur.Version}
		if _, err := st.CommitOpsBy(cur, cur.Version, []rdo.Invocation{inv}, "bench"); err != nil {
			return err
		}
	}
	return nil
}

// arestAppend grows the mailbox by n messages, one ops commit per message —
// the operation chain a far-behind replica replays.
func arestAppend(st *disk.Store, u urn.URN, n int) error {
	msg := "message-body-" + string(make([]byte, 0, 96))
	for len(msg) < 96 {
		msg += "0123456789abcdef"
	}
	for i := 0; i < n; i++ {
		cur, err := st.Get(u)
		if err != nil {
			return err
		}
		key := fmt.Sprintf("m%05d", i)
		cur.Set(key, msg)
		inv := rdo.Invocation{Object: u, Method: "append", Args: []string{key, msg}, BaseVer: cur.Version}
		if _, err := st.CommitOpsBy(cur, cur.Version, []rdo.Invocation{inv}, "bench"); err != nil {
			return err
		}
	}
	return nil
}

// arestDeltaBytes streams u's operation chain from version `from` exactly as
// the replicator's segment catch-up does — 64-step chunks, each a KindOps
// wire record — and returns the total encoded bytes, the largest single
// chunk (the memory bound on both ends), and the step count.
func arestDeltaBytes(st *disk.Store, u urn.URN, from uint64) (total, maxChunk int64, steps int, err error) {
	const chunk = 64
	base := from
	var invs []rdo.Invocation
	var endVer uint64
	flush := func() {
		var b wire.Buffer
		(&repl.Record{Kind: repl.KindOps, URN: u, PrevVersion: base, Version: endVer, Invs: invs}).MarshalWire(&b)
		n := int64(len(b.Bytes()))
		total += n
		if n > maxChunk {
			maxChunk = n
		}
		base = endVer
		invs = invs[:0]
	}
	ok, err := st.StreamOpsSince(u, from, func(ver uint64, stepInvs []rdo.Invocation, src string, obj []byte) error {
		invs = append(invs, stepInvs...)
		endVer = ver
		steps++
		if steps%chunk == 0 {
			flush()
		}
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	if !ok {
		return 0, 0, 0, fmt.Errorf("StreamOpsSince declined the %d-version gap", steps)
	}
	if len(invs) > 0 {
		flush()
	}
	return total, maxChunk, steps, nil
}

// arestAutotune boots a journaled, disk-backed server with a deliberately
// starved cache and a trivially-cleared fsync threshold, applies three
// rounds of pressure+tick, and checks the controller's envelope: cache and
// shards both grow to their caps, and neither moves past them.
func arestAutotune(dir string) ([]string, error) {
	probe := rover.NewObject(rover.MustParseURN("urn:rover:tune/probe"), "t")
	probe.Set("k", "v")
	per := int64(probe.SizeEstimate())
	budget := 4 * per
	srv, err := rover.NewServer(rover.ServerOptions{
		ServerID:           "bench-tune",
		StoreDir:           filepath.Join(dir, "tune"),
		StoreCacheBytes:    budget,
		StoreCacheMaxBytes: 4 * budget,
		JournalPath:        filepath.Join(dir, "tune.wal"),
		JournalShards:      1,
		JournalShardsMax:   4,
		Autotune:           true,
		AutotuneInterval:   time.Hour, // ticks under experiment control only
		AutotuneFsyncCost:  time.Nanosecond,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	cli, err := rover.NewClient(rover.ClientOptions{ClientID: "bench-tune-cli", NoAutoExport: true})
	if err != nil {
		return nil, err
	}
	defer cli.Close()
	link := cli.ConnectPipe(srv)
	link.SetConnected(true)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	be := srv.Store()
	const sweepObjs = 200
	for i := 0; i < sweepObjs; i++ {
		o := rover.NewObject(rover.MustParseURN(fmt.Sprintf("urn:rover:tune/o/%03d", i)), "t")
		o.Set("k", "v")
		if err := be.Create(o); err != nil {
			return nil, err
		}
	}
	before := srv.AutotuneReport()
	// Cache pressure first: each sweep touches far more objects than fit, so
	// faults dominate hits; two ticks carry the budget to its cap and the
	// third must hold there. No journaled traffic flows, so the shard knob
	// sees no activity and must not move.
	for round := 0; round < 3; round++ {
		for i := 0; i < sweepObjs; i++ {
			if _, err := be.Get(rover.MustParseURN(fmt.Sprintf("urn:rover:tune/o/%03d", i))); err != nil {
				return nil, err
			}
		}
		srv.AutotuneTick()
	}
	if mid := srv.AutotuneReport(); mid.ShardGrowths != 0 {
		return nil, fmt.Errorf("shards grew without journal pressure: %+v", mid)
	}
	// Then shard pressure: journaled creates past the per-tick activity
	// floor, with the measured fsync latency over the (deliberately trivial)
	// threshold. Two ticks reach the cap; the third must hold.
	created := 0
	for round := 0; round < 3; round++ {
		for i := 0; i < 70; i++ {
			created++
			o := rover.NewObject(rover.MustParseURN(fmt.Sprintf("urn:rover:tune/j/%04d", created)), "t")
			o.Set("k", "v")
			if _, err := cli.CreateWait(ctx, o); err != nil {
				return nil, err
			}
		}
		srv.AutotuneTick()
	}
	rep := srv.AutotuneReport()
	if rep.CacheBytes != rep.CacheMax || rep.CacheGrowths != 2 {
		return nil, fmt.Errorf("cache did not grow to its cap: %+v", rep)
	}
	if rep.ShardCount != rep.ShardMax || rep.ShardGrowths != 2 {
		return nil, fmt.Errorf("shards did not grow to their cap: %+v", rep)
	}
	if err := srv.Engine().JournalError(); err != nil {
		return nil, fmt.Errorf("journal poisoned by online growth: %w", err)
	}
	return []string{"autotune", "3 ticks", "-", "-",
		fmt.Sprintf("cache %s→%s (at cap), shards %d→%d (at cap)",
			kb(before.CacheBytes), kb(rep.CacheBytes), before.ShardCount, rep.ShardCount)}, nil
}
