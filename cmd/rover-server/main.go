// Command rover-server runs a standalone Rover home server over TCP — the
// counterpart of the paper's "standalone TCP/IP server" deployment (the
// other deployment, CGI behind httpd, is out of scope for a toolkit demo).
//
// Usage:
//
//	rover-server -listen :7070 -store-dir objects -journal sessions.wal -seed mail
//
// With -store-dir, the object store lives on disk: every commit is durable
// in an append-only segment and the population is recovered at startup.
// Without it the store is in memory and is lost on exit. With -journal,
// QRPC session state is write-ahead-logged so exactly-once execution
// survives server crashes: each session holds its unacknowledged replies as
// the bytes first sent, the journal holds the same bytes, and a restarted
// server answers redelivered requests with them.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rover"
	"rover/internal/apps/calendar"
	"rover/internal/apps/mail"
	"rover/internal/apps/webproxy"
	"rover/internal/gateway"
)

func main() {
	var (
		listen       = flag.String("listen", "127.0.0.1:7070", "TCP listen address")
		httpAddr     = flag.String("http", "", "also serve a read-only HTTP gateway (e.g. 127.0.0.1:8080)")
		serverID     = flag.String("id", "rover-server", "server identity")
		storeDir     = flag.String("store-dir", "", "disk-backed object store directory (segment log + LRU; durable per commit, recovers at start)")
		storeCache   = flag.Int64("store-cache", 0, "disk store hot-object cache bytes (0 = default 64 MiB)")
		storeCompact = flag.Int("store-compact-every", 0, "disk store mutations between compaction checks (0 = default)")
		journal      = flag.String("journal", "", "session journal path (exactly-once across server restarts)")
		journShards  = flag.Int("journal-shards", 1, "session journal shard count (parallel group-commit fsync; may grow across restarts, never shrink)")
		maxSessions  = flag.Int("max-sessions", 0, "admission high-water mark: refuse NEW sessions past this many (0 = unlimited)")
		sessBudget   = flag.Int("session-budget", 0, "per-session unacked-reply byte budget; at the budget new requests are dropped until acks free it (0 = unlimited)")
		seed         = flag.String("seed", "", "seed demo content: mail, calendar, web, or all")
		peer         = flag.String("peer", "", "replica peer QRPC address; enables home-pair replication")
		peerHTTP     = flag.String("peer-http", "", "replica peer gateway URL for /replica redirects (e.g. http://host:8081)")
		replLog      = flag.String("repl-log", "", "replication stream log path (backlog survives restarts)")
		replInstance = flag.String("repl-instance", "", "replication incarnation tag; REQUIRED fresh after a restart without -repl-log")
		statsEvery   = flag.Duration("stats-interval", time.Minute, "periodic stats line interval (0 disables)")
	)
	flag.Parse()

	srv, err := rover.NewServer(rover.ServerOptions{
		ServerID:           *serverID,
		StoreDir:           *storeDir,
		StoreCacheBytes:    *storeCache,
		StoreCompactEvery:  *storeCompact,
		JournalPath:        *journal,
		JournalShards:      *journShards,
		MaxSessions:        *maxSessions,
		SessionBudgetBytes: *sessBudget,
	})
	if err != nil {
		log.Fatalf("rover-server: %v", err)
	}
	defer srv.Close()
	if *journal != "" {
		st := srv.Engine().Stats()
		log.Printf("rover-server: session journal %s ×%d shards (%d sessions, %d replies recovered, %d resharded)",
			*journal, max(*journShards, 1), st.RecoveredSessions, st.RecoveredReplies, st.JournalReshards)
	}
	// A store recovered from -store-dir already holds its objects (including
	// any prior seed); re-seeding would either collide or clobber real
	// state, so the recovered population wins.
	if n := srv.Store().Occupancy().Objects; n > 0 && *seed != "" {
		log.Printf("rover-server: store recovered %d objects; skipping -seed %s", n, *seed)
	} else if err := seedDemo(srv, *seed); err != nil {
		log.Fatalf("rover-server: seeding: %v", err)
	}
	// Replication is enabled before the listener so the peer's records can
	// never race the apply-service registration.
	if *peer != "" {
		if _, err := srv.EnableReplication(rover.ReplicationOptions{
			PeerAddr: *peer,
			LogPath:  *replLog,
			Instance: *replInstance,
		}); err != nil {
			log.Fatalf("rover-server: replication: %v", err)
		}
		log.Printf("rover-server: replicating to peer %s", *peer)
	}
	ln, err := srv.ListenTCP(*listen)
	if err != nil {
		log.Fatalf("rover-server: listen: %v", err)
	}
	log.Printf("rover-server %q listening on %s (%d objects)", *serverID, ln.Addr(), srv.Store().Occupancy().Objects)
	if *httpAddr != "" {
		gw, addr, err := serveHTTP(*httpAddr, gateway.Handler(srv.Store(), "demo",
			gateway.Peer{URL: *peerHTTP}))
		if err != nil {
			log.Fatalf("rover-server: http gateway: %v", err)
		}
		defer gw.Close()
		log.Printf("rover-server: HTTP gateway on http://%s/ (read-only)", addr)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	var statsTick <-chan time.Time
	if *statsEvery > 0 {
		st := time.NewTicker(*statsEvery)
		statsTick = st.C
		defer st.Stop()
	}
	for {
		select {
		case <-statsTick:
			logStats(srv)
		case sig := <-stop:
			log.Printf("rover-server: %v; shutting down", sig)
			ln.Close()
			return
		}
	}
}

// serveHTTP serves h on addr until the returned server is closed. Close
// drops every connection, idle ones included, and a client gets
// ReadHeaderTimeout to finish its request headers.
func serveHTTP(addr string, h http.Handler) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go hs.Serve(ln)
	return hs, ln.Addr(), nil
}

// logStats prints one -stats-interval line of operational counters: engine
// activity (including replays, journal health and replicated replies),
// admission and budget refusals, journal fsync economics (fsyncs per
// executed op and the measured fsync latency), per-shard journal depths,
// delta-import and lean-export-reply service counters, and — when
// replication is on — the live replication lag plus the stream/anti-entropy
// counters.
func logStats(srv *rover.Server) {
	es := srv.Engine().Stats()
	ss := srv.ServerStats()
	line := fmt.Sprintf(
		"stats: sessions=%d reqs=%d exec=%d replays=%d journalRefused=%d replicatedReplies=%d deltasServed=%d deltaFallbacks=%d leanReplies=%d dupExports=%d",
		srv.Engine().SessionCount(), es.Requests, es.Executed, es.ReplaysServed, es.JournalRefused, es.ReplicatedReplies,
		ss.DeltasServed, ss.DeltaFallbacks, ss.LeanReplies, ss.DuplicateExports)
	line += fmt.Sprintf(" | admission: refused=%d budgetRefused=%d", es.SessionsRefused, es.BudgetRefused)
	if js := srv.JournalStats(); len(js) > 0 {
		var syncs int64
		for _, st := range js {
			syncs += st.Syncs
		}
		fsyncsPerOp := 0.0
		if es.Executed > 0 {
			fsyncsPerOp = float64(syncs) / float64(es.Executed)
		}
		line += fmt.Sprintf(" | journal: fsyncs=%d fsyncs/op=%.3f fsyncCost=%s depths=%v",
			syncs, fsyncsPerOp, srv.JournalCost().Round(time.Microsecond), srv.Engine().JournalShardDepths())
	}
	occ := srv.StoreStats()
	line += fmt.Sprintf(" | store: objects=%d resident=%d/%s hits=%d coldFaults=%d compactions=%d segBytes=%d",
		occ.Objects, occ.ResidentObjects, humanBytes(occ.ResidentBytes),
		occ.CacheHits, occ.ColdFaults, occ.Compactions, occ.SegmentBytes)
	if rep := srv.Replicator(); rep != nil {
		rs := rep.Stats()
		line += fmt.Sprintf(
			" | repl: lag=%d streamed=%d execsStreamed=%d applied=%d catchups=%d fullsyncs=%d sweeps=%d execInstalled=%d errors=%d",
			rep.Lag(), rs.RecordsStreamed, rs.ExecsStreamed, rs.Applied, rs.CatchUps,
			rs.FullSyncs, rs.DigestSweeps, rs.ExecInstalled, rs.Errors)
	}
	log.Print("rover-server: " + line)
}

// humanBytes renders a byte count in the largest whole unit.
func humanBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// seedDemo provisions demonstration content for the three applications.
func seedDemo(srv *rover.Server, what string) error {
	if what == "" {
		return nil
	}
	doMail := what == "mail" || what == "all"
	doCal := what == "calendar" || what == "all"
	doWeb := what == "web" || what == "all"
	if !doMail && !doCal && !doWeb {
		return fmt.Errorf("unknown seed %q (want mail, calendar, web, or all)", what)
	}
	if doMail {
		seeder := &mail.Seeder{Authority: "demo"}
		if _, err := seeder.SeedFolder(srv, "inbox", 25); err != nil {
			return err
		}
		log.Printf("seeded mail: urn:rover:demo/mail/inbox (25 messages)")
	}
	if doCal {
		if err := srv.Seed(calendar.NewObject(calendar.URNFor("demo", "group"))); err != nil {
			return err
		}
		log.Printf("seeded calendar: %s", calendar.URNFor("demo", "group"))
	}
	if doWeb {
		if _, err := webproxy.GenerateWeb(srv, webproxy.WebSpec{
			Authority: "demo", Pages: 50, LinksPerPage: 4, BodyBytes: 2048, Seed: 42,
		}); err != nil {
			return err
		}
		log.Printf("seeded web: urn:rover:demo/web/p0 .. p49")
	}
	return nil
}
