package webproxy

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"rover/internal/transport"
	"rover/internal/vtime"
	"strings"
	"testing"
	"time"

	"rover"
)

func rig(t *testing.T, pages int) (*rover.Server, *Proxy, interface{ SetConnected(bool) }, []string) {
	t.Helper()
	srv, err := rover.NewServer(rover.ServerOptions{ServerID: "webhome"})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := GenerateWeb(srv, WebSpec{
		Authority: "webhome", Pages: pages, LinksPerPage: 3, BodyBytes: 512, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := rover.NewClient(rover.ClientOptions{ClientID: "browser"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	link := cli.ConnectPipe(srv)
	link.SetConnected(true)
	return srv, NewProxy(cli, "webhome", nil), link, paths
}

func tctx(t *testing.T) context.Context {
	t.Helper()
	c, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return c
}

func TestBrowseFetchesAndCaches(t *testing.T) {
	_, p, _, paths := rig(t, 10)
	page, err := p.Browse(paths[0]).Wait(tctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if page.Title == "" || page.Body == "" || len(page.Links) != 3 {
		t.Fatalf("page %+v", page)
	}
	// Second browse is a cache hit.
	if _, err := p.Browse(paths[0]).Wait(tctx(t)); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Requests != 2 || st.CacheHits != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestClickAheadWhileDisconnected(t *testing.T) {
	_, p, link, paths := rig(t, 20)
	// Cache the first page while connected.
	if _, err := p.Browse(paths[0]).Wait(tctx(t)); err != nil {
		t.Fatal(err)
	}
	link.SetConnected(false)

	// Click ahead on five more pages while disconnected.
	futures := p.ClickAhead(paths[1], paths[2], paths[3], paths[4], paths[5])
	// Cached page still serves instantly.
	if _, err := p.Browse(paths[0]).Wait(tctx(t)); err != nil {
		t.Fatalf("cached page unavailable offline: %v", err)
	}
	time.Sleep(5 * time.Millisecond)
	for i, f := range futures {
		if f.Ready() {
			t.Fatalf("future %d completed while disconnected", i)
		}
	}
	if got := len(p.OutstandingPaths()); got != 5 {
		t.Fatalf("outstanding %d", got)
	}
	// Reconnect: all five arrive.
	link.SetConnected(true)
	for i, f := range futures {
		if _, err := f.Wait(tctx(t)); err != nil {
			t.Fatalf("click-ahead %d: %v", i, err)
		}
	}
	if got := len(p.OutstandingPaths()); got != 0 {
		t.Errorf("outstanding after drain: %d", got)
	}
}

func TestSharedFutureForDuplicateRequests(t *testing.T) {
	_, p, link, paths := rig(t, 5)
	link.SetConnected(false)
	f1 := p.Browse(paths[1])
	f2 := p.Browse(paths[1])
	if f1 != f2 {
		t.Error("duplicate outstanding requests created distinct futures")
	}
	link.SetConnected(true)
	if _, err := f1.Wait(tctx(t)); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchOnSlowFetch(t *testing.T) {
	_, p, _, paths := rig(t, 15)
	p.PrefetchThreshold = time.Nanosecond // everything is "slow"
	page, err := p.Browse(paths[0]).Wait(tctx(t))
	if err != nil {
		t.Fatal(err)
	}
	// The page's links get prefetched; wait for them to land.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := p.Stats()
		if st.Prefetches == int64(len(page.Links)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prefetches %d, want %d", st.Prefetches, len(page.Links))
		}
		time.Sleep(time.Millisecond)
	}
	// Browsing a linked page now hits the cache (eventually — the
	// prefetch import may still be in flight).
	deadline = time.Now().Add(5 * time.Second)
	for {
		p.Browse(page.Links[0]).Wait(tctx(t))
		if p.Stats().PrefetchHits >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prefetch hit never recorded: %+v", p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMissingPage(t *testing.T) {
	_, p, _, _ := rig(t, 3)
	if _, err := p.Browse("nonexistent").Wait(tctx(t)); err == nil {
		t.Error("missing page fetched")
	}
}

func TestRenderAndExtractLinks(t *testing.T) {
	page := Page{
		Path:  "p0",
		Title: `Hello <world> & "friends"`,
		Body:  "body text",
		Links: []string{"p1", "p2"},
	}
	html := RenderHTML(page)
	if strings.Contains(string(html), "<world>") {
		t.Error("title not escaped")
	}
	links := ExtractLinks(html)
	if len(links) != 2 || links[0] != "p1" || links[1] != "p2" {
		t.Errorf("links %v", links)
	}
	if got := ExtractLinks([]byte(`<a href="http://external/x">x</a>`)); len(got) != 0 {
		t.Errorf("external link extracted: %v", got)
	}
}

func TestHTTPFrontEnd(t *testing.T) {
	_, p, link, paths := rig(t, 8)
	fe := httptest.NewServer(FrontEnd(p, time.Second))
	defer fe.Close()

	resp, err := get(fe.URL + "/" + paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || !strings.Contains(string(resp.Body), "Synthetic page 0") {
		t.Fatalf("GET: %d %q", resp.Status, truncate(resp.Body))
	}
	if resp.ContentType != "text/html" {
		t.Errorf("content type %q", resp.ContentType)
	}
	links := ExtractLinks(resp.Body)
	if len(links) == 0 {
		t.Fatal("served page has no links")
	}
	// Root path defaults to p0.
	if resp, err := get(fe.URL + "/"); err != nil || resp.Status != 200 {
		t.Errorf("GET /: %d %v", resp.Status, err)
	}
	// Missing page: 404.
	if resp, _ := get(fe.URL + "/ghost"); resp.Status != 404 {
		t.Errorf("GET /ghost: %d", resp.Status)
	}
	// Only GET and HEAD are served.
	post, err := http.Post(fe.URL+"/"+paths[0], "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != 405 {
		t.Errorf("POST: %d", post.StatusCode)
	}
	// Disconnected miss: 504 "queued" page.
	link.SetConnected(false)
	fe2 := httptest.NewServer(FrontEnd(p, 30*time.Millisecond))
	defer fe2.Close()
	resp, err = get(fe2.URL + "/" + paths[7])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 504 || !strings.Contains(string(resp.Body), "Queued") {
		t.Errorf("disconnected GET: %d %q", resp.Status, truncate(resp.Body))
	}
}

type response struct {
	Status      int
	ContentType string
	Body        []byte
}

func get(url string) (response, error) {
	resp, err := http.Get(url)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return response{Status: resp.StatusCode, ContentType: resp.Header.Get("Content-Type"), Body: body}, err
}

func truncate(b []byte) string {
	if len(b) > 120 {
		return string(b[:120]) + "..."
	}
	return string(b)
}

// TestBrowseOverMailTransport reproduces the Rover Mosaic configuration
// the paper cites [deLespinasse 95]: full-function web browsing where the
// transport is queued e-mail. Page requests ride out in batched envelopes,
// replies come back in mail, and the user's click-ahead queue drains with
// each mail exchange.
func TestBrowseOverMailTransport(t *testing.T) {
	srv, err := rover.NewServer(rover.ServerOptions{ServerID: "webhome"})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := GenerateWeb(srv, WebSpec{
		Authority: "webhome", Pages: 12, LinksPerPage: 2, BodyBytes: 300, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := rover.NewClient(rover.ClientOptions{ClientID: "mosaic"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	spool := transport.NewSpool(0)
	mc := transport.NewMailClient(spool, "mosaic@laptop", "rover@webhome", cli.Engine(), nil)
	ms := transport.NewMailServer(spool, "rover@webhome", srv.Engine())
	cli.AttachTransport(mc)

	proxy := NewProxy(cli, "webhome", nil)
	// Click ahead on five pages; nothing moves until the mail exchange.
	futures := proxy.ClickAhead(paths[0], paths[1], paths[2], paths[3], paths[4])
	for i, f := range futures {
		if f.Ready() {
			t.Fatalf("page %d arrived without mail", i)
		}
	}
	// One mail exchange cycle: flush -> server poll -> client poll. (The
	// proxy's kicks already flushed request envelopes under the real
	// clock; use a far-future timestamp so everything is ready and the
	// explicit flush batches all five outstanding requests into one
	// envelope.)
	later := vtime.Time(time.Hour)
	if n := mc.Flush(later); n != 1 {
		t.Fatalf("Flush sent %d envelopes (batching broken)", n)
	}
	ms.Poll(later)
	mc.Poll(later)
	for i, f := range futures {
		page, err, ok := f.Result()
		if !ok || err != nil {
			t.Fatalf("page %d after mail cycle: %v %v", i, err, ok)
		}
		if page.Title == "" {
			t.Fatalf("page %d empty", i)
		}
	}
	// Cached pages now serve with no further mail.
	before := spool.Stats().Envelopes
	if _, err, ok := proxy.Browse(paths[2]).Result(); !ok || err != nil {
		t.Fatal("cached page not served instantly")
	}
	if spool.Stats().Envelopes != before {
		t.Error("cache hit generated mail")
	}
}
