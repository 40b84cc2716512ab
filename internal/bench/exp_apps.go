package bench

import (
	"fmt"
	"math/rand"
	"time"

	"rover"
	"rover/internal/apps/calendar"
	"rover/internal/apps/mail"
	"rover/internal/apps/webproxy"
	"rover/internal/netsim"
	"rover/internal/rscript"
	"rover/internal/vtime"
)

// ExpFMail regenerates the mail-reading figure: time to have a whole
// folder readable, comparing serial fetch (a conventional blocking mail
// reader) with Rover's pipelined prefetch, per network; and showing that
// a warm cache makes disconnected reading free.
func ExpFMail(o Options) (*Table, error) {
	nMsgs := o.scale(50, 5)
	bodyBytes := 2048
	rows, err := linkRows(func(spec netsim.LinkSpec) ([]string, error) {
		serial, firstSerial, err := runMail(spec, nMsgs, bodyBytes, false)
		if err != nil {
			return nil, err
		}
		pipelined, firstPipe, err := runMail(spec, nMsgs, bodyBytes, true)
		if err != nil {
			return nil, err
		}
		speedup := float64(serial) / float64(pipelined)
		return []string{
			spec.Name, ms(serial), ms(pipelined),
			fmt.Sprintf("%.1fx", speedup), ms(firstSerial), ms(firstPipe),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:    "FMAIL",
		Title: fmt.Sprintf("Reading a %d-message folder: serial fetch vs Rover pipelined prefetch", nMsgs),
		Columns: []string{"network", "serial total", "pipelined total", "speedup",
			"first msg (serial)", "first msg (pipelined)"},
		Rows: rows,
		Notes: []string{
			"serial = import folder then each message one at a time (blocking-reader behavior)",
			"pipelined = import folder, queue all message imports at once (Rover prefetch)",
			"after either run the cache is warm: disconnected reads are local and effectively free",
		},
	}, nil
}

// runMail measures time until every message of a folder is cached.
func runMail(spec netsim.LinkSpec, nMsgs, bodyBytes int, pipelined bool) (total, first time.Duration, err error) {
	stack, err := NewSimStack(SimStackOptions{Link: spec})
	if err != nil {
		return 0, 0, err
	}
	seeder := &mail.Seeder{Authority: "bench", BodyBytes: bodyBytes, Rand: rand.New(rand.NewSource(3))}
	ids, err := seeder.SeedFolder(stack.Server, "inbox", nMsgs)
	if err != nil {
		return 0, 0, err
	}
	folderURN := rover.MustParseURN("urn:rover:bench/mail/inbox")
	msgURN := func(id string) rover.URN {
		return rover.MustParseURN("urn:rover:bench/mail/inbox/msg/" + id)
	}
	var firstAt, lastAt vtime.Time
	remaining := len(ids)
	onMsg := func(_ *rover.Object, err error) {
		mustNil(err)
		now := stack.Sched.Now()
		if firstAt == 0 {
			firstAt = now
		}
		lastAt = now
		remaining--
	}
	if pipelined {
		stack.Client.Import(folderURN, rover.ImportOptions{}).OnReady(func(_ *rover.Object, err error) {
			mustNil(err)
			for _, id := range ids {
				stack.Client.Import(msgURN(id), rover.ImportOptions{}).OnReady(onMsg)
			}
		})
	} else {
		var next func(i int)
		next = func(i int) {
			if i >= len(ids) {
				return
			}
			stack.Client.Import(msgURN(ids[i]), rover.ImportOptions{}).OnReady(
				func(obj *rover.Object, err error) {
					onMsg(obj, err)
					next(i + 1)
				})
		}
		stack.Client.Import(folderURN, rover.ImportOptions{}).OnReady(func(_ *rover.Object, err error) {
			mustNil(err)
			next(0)
		})
	}
	stack.Run()
	if remaining != 0 {
		return 0, 0, fmt.Errorf("FMAIL: %d messages never arrived", remaining)
	}
	return lastAt.Duration(), firstAt.Duration(), nil
}

// ExpFWeb regenerates the click-ahead browsing figure: a user walks a
// trail of pages over CSLIP 14.4 with think time; click-ahead keeps W
// requests outstanding and hides transfer latency behind reading.
func ExpFWeb(o Options) (*Table, error) {
	pages := o.scale(60, 12)
	visit := o.scale(15, 5)
	think := 10 * time.Second
	var rows [][]string
	for _, w := range []int{1, 2, 4, 8} {
		total, meanWait, stalls, err := runWeb(pages, visit, w, think, 0)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("click-ahead %d", w)
		if w == 1 {
			name = "sequential (no click-ahead)"
		}
		rows = append(rows, []string{name, ms(total), ms(meanWait), fmt.Sprintf("%d/%d", stalls, visit)})
	}
	// Prefetch variant: sequential browsing, but slow fetches trigger
	// link prefetching.
	total, meanWait, stalls, err := runWeb(pages, visit, 1, think, time.Millisecond)
	if err != nil {
		return nil, err
	}
	rows = append(rows, []string{"sequential + link prefetch", ms(total), ms(meanWait), fmt.Sprintf("%d/%d", stalls, visit)})
	return &Table{
		ID:      "FWEB",
		Title:   fmt.Sprintf("Browsing %d pages over CSLIP 14.4 (think time %v)", visit, think),
		Columns: []string{"mode", "session time", "mean wait/page", "stalled pages"},
		Rows:    rows,
		Notes: []string{
			"wait = time the user sits between finishing one page and seeing the next",
			"click-ahead W keeps W page requests outstanding; prefetch fetches a slow page's links at low priority",
		},
	}, nil
}

// runWeb simulates one browsing session and returns session duration,
// mean per-page wait, and the count of pages the user had to wait for.
func runWeb(pages, visit, clickAhead int, think, prefetchThreshold time.Duration) (time.Duration, time.Duration, int, error) {
	stack, err := NewSimStack(SimStackOptions{Link: netsim.CSLIP14k4})
	if err != nil {
		return 0, 0, 0, err
	}
	_, err = webproxy.GenerateWeb(stack.Server, webproxy.WebSpec{
		Authority: "bench", Pages: pages, LinksPerPage: 3, BodyBytes: 4096, Seed: 11,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	proxy := webproxy.NewProxy(stack.Client, "bench", vtime.SchedulerClock{S: stack.Sched})
	proxy.PrefetchThreshold = prefetchThreshold

	// The trail follows real hyperlinks: next page is the first unvisited
	// link of the current page (so prefetching can help); falls back to
	// the next page index.
	trail, err := linkTrail(stack, pages, visit)
	if err != nil {
		return 0, 0, 0, err
	}

	waits := make([]time.Duration, 0, visit)
	var freeAt vtime.Time
	var sessionEnd vtime.Time
	stalls := 0
	futures := make([]*rover.Future[webproxy.Page], visit)
	request := func(i int) {
		if i < visit && futures[i] == nil {
			futures[i] = proxy.Browse(trail[i])
		}
	}
	var step func(i int)
	step = func(i int) {
		if i >= visit {
			sessionEnd = freeAt
			return
		}
		request(i)
		futures[i].OnReady(func(_ webproxy.Page, err error) {
			mustNil(err)
			displayStart := stack.Sched.Now()
			if displayStart < freeAt {
				displayStart = freeAt
			}
			wait := displayStart.Sub(freeAt)
			waits = append(waits, wait)
			if wait > 0 {
				stalls++
			}
			freeAt = displayStart.Add(think)
			stack.Sched.At(freeAt, func() {
				for j := i + 1; j <= i+clickAhead && j < visit; j++ {
					request(j)
				}
				step(i + 1)
			})
		})
	}
	// Click-ahead from the start: the user knows where they are going.
	for j := 0; j < clickAhead && j < visit; j++ {
		request(j)
	}
	step(0)
	stack.Run()
	if len(waits) != visit {
		return 0, 0, 0, fmt.Errorf("FWEB: only %d of %d pages displayed", len(waits), visit)
	}
	var totalWait time.Duration
	for _, w := range waits {
		totalWait += w
	}
	return sessionEnd.Duration(), totalWait / time.Duration(visit), stalls, nil
}

// linkTrail computes the hyperlink-following visit order from the seeded
// web without touching the client stack (it reads the server store).
func linkTrail(stack *SimStack, pages, visit int) ([]string, error) {
	trail := make([]string, 0, visit)
	seen := map[string]bool{}
	cur := "p0"
	for len(trail) < visit {
		trail = append(trail, cur)
		seen[cur] = true
		obj, err := stack.Server.Store().Get(webproxy.PageURN("bench", cur))
		if err != nil {
			return nil, err
		}
		linksRaw, _ := obj.Get("links")
		links, err := rscript.ParseList(linksRaw)
		if err != nil {
			return nil, err
		}
		next := ""
		for _, l := range links {
			if !seen[l] {
				next = l
				break
			}
		}
		if next == "" {
			// Fall back to the next unvisited index.
			for i := 0; i < pages; i++ {
				cand := fmt.Sprintf("p%d", i)
				if !seen[cand] {
					next = cand
					break
				}
			}
		}
		if next == "" {
			break
		}
		cur = next
	}
	for len(trail) < visit {
		trail = append(trail, trail[len(trail)-1]) // degenerate tiny webs
	}
	return trail, nil
}

// ExpFCal regenerates the calendar conflict figure: disconnected users
// book meetings concurrently; the type-specific resolver merges everything
// except true slot collisions, which land in the repair queue.
func ExpFCal(o Options) (*Table, error) {
	userCounts := []int{2, 4, 8}
	if !o.Quick {
		userCounts = append(userCounts, 16)
	}
	perUser := o.scale(20, 4)
	var rows [][]string
	for _, contention := range []struct {
		name   string
		factor int
	}{{"light", 6}, {"heavy", 1}} {
		for _, users := range userCounts {
			res, err := runCal(users, perUser, contention.factor)
			if err != nil {
				return nil, err
			}
			lost := res.booked - res.serverSlots
			autoPct := 100 * float64(res.serverSlots) / float64(res.booked)
			if lost != res.collisions {
				return nil, fmt.Errorf("FCAL invariant: lost %d != collisions %d", lost, res.collisions)
			}
			rows = append(rows, []string{
				contention.name,
				fmt.Sprintf("%d", users),
				fmt.Sprintf("%d", res.booked),
				fmt.Sprintf("%d", res.collisions),
				fmt.Sprintf("%d", res.serverSlots),
				fmt.Sprintf("%.1f%%", autoPct),
				fmt.Sprintf("%d", res.reflected),
			})
		}
	}
	return &Table{
		ID:    "FCAL",
		Title: fmt.Sprintf("Calendar: %d disconnected bookings per user", perUser),
		Columns: []string{"contention", "users", "bookings", "slot collisions", "committed",
			"auto-merged", "conflicts reflected to users"},
		Rows: rows,
		Notes: []string{
			"non-overlapping bookings merge via operation replay; each same-slot collision loses exactly one booking",
			"losers are reflected to their user (client conflict notification or server repair queue), never silently dropped",
		},
	}, nil
}

type calResult struct {
	booked      int
	collisions  int
	serverSlots int
	reflected   int
}

// runCal runs the multi-user disconnected booking workload. poolFactor
// scales the slot pool relative to total bookings (bigger = less
// contention).
func runCal(users, perUser, poolFactor int) (res calResult, err error) {
	stack, err := NewSimStack(SimStackOptions{Link: netsim.WaveLAN2, ClientID: "user0"})
	if err != nil {
		return res, err
	}
	u := calendar.URNFor("bench", "group")
	if err := stack.Server.Seed(calendar.NewObject(u)); err != nil {
		return res, err
	}
	clients := []*rover.Client{stack.Client}
	links := []interface{ Duplex() *netsim.Duplex }{stack.Link}
	for i := 1; i < users; i++ {
		cli, link, err := stack.AddSimClient(fmt.Sprintf("user%d", i), netsim.WaveLAN2, int64(i+10))
		if err != nil {
			return res, err
		}
		clients = append(clients, cli)
		links = append(links, link)
	}
	// Everyone imports while connected.
	imported := 0
	for _, cli := range clients {
		cli.Import(u, rover.ImportOptions{}).OnReady(func(_ *rover.Object, err error) {
			mustNil(err)
			imported++
		})
	}
	stack.Sched.RunUntil(vtime.Time(30 * time.Second))
	if imported != users {
		return res, fmt.Errorf("FCAL: %d of %d imports completed", imported, users)
	}
	// Disconnect all; book into a pool sized to force some collisions.
	for _, l := range links {
		l.Duplex().SetUp(false)
	}
	rng := rand.New(rand.NewSource(99))
	pool := users * perUser * poolFactor
	taken := map[int][]int{}
	for ci, cli := range clients {
		booksDone := 0
		for booksDone < perUser {
			slot := rng.Intn(pool)
			slotName := fmt.Sprintf("day%d.%d", slot/8, slot%8)
			if _, err := cli.Invoke(u, "schedule", slotName, fmt.Sprintf("user%d", ci), "mtg"); err != nil {
				continue // locally visible double-book; pick another slot
			}
			taken[slot] = append(taken[slot], ci)
			booksDone++
			res.booked++
		}
	}
	for _, owners := range taken {
		if len(owners) > 1 {
			res.collisions += len(owners) - 1
		}
	}
	// Staggered reconnection.
	for i, l := range links {
		l := l
		stack.Sched.At(vtime.Time(60*time.Second).Add(time.Duration(i)*20*time.Second), func() {
			l.Duplex().SetUp(true)
		})
	}
	stack.Run()
	res.reflected = len(stack.Server.Conflicts())
	for _, cli := range clients {
		res.reflected += int(cli.Access().Stats().Conflicts)
	}
	obj, err := stack.Server.Store().Get(u)
	if err != nil {
		return res, err
	}
	for k := range obj.State {
		if len(k) > 0 && k[0] == 's' {
			res.serverSlots++
		}
	}
	return res, nil
}
