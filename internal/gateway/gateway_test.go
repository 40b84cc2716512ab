package gateway

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"rover"
	"rover/internal/apps/webproxy"
	"rover/internal/rdo"
	"rover/internal/store"
	"rover/internal/urn"
)

func testStore(t *testing.T) store.Backend {
	t.Helper()
	st := store.New()
	obj := rdo.New(urn.MustParse("urn:rover:demo/notes"), "notes")
	obj.Code = `proc count {} { state size }`
	obj.Set("n0", "hello gateway")
	obj.Set("big", strings.Repeat("x", 500))
	if err := st.Create(obj); err != nil {
		t.Fatal(err)
	}
	page := webproxy.NewPageObject("demo", "p0", "Demo page", "body text", []string{"p1"})
	// NewPageObject returns a rover.Object (alias of rdo.Object).
	var asRDO *rdo.Object = page
	if err := st.Create(asRDO); err != nil {
		t.Fatal(err)
	}
	return st
}

func serve(t *testing.T, st store.Backend) string {
	t.Helper()
	return serveHandler(t, Handler(st, "demo", Peer{}))
}

func serveHandler(t *testing.T, h http.Handler) string {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv.Listener.Addr().String()
}

type response struct {
	Status      int
	ContentType string
	Location    string
	Body        []byte
}

// do sends one request and reads the whole response. Redirects are
// returned, not followed.
func do(method, addr, path string) (response, error) {
	req, err := http.NewRequest(method, "http://"+addr+path, nil)
	if err != nil {
		return response{}, err
	}
	client := http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return response{Status: resp.StatusCode, ContentType: resp.Header.Get("Content-Type"),
		Location: resp.Header.Get("Location"), Body: body}, err
}

func get(addr, path string) (response, error) { return do("GET", addr, path) }

func TestIndex(t *testing.T) {
	addr := serve(t, testStore(t))
	resp, err := get(addr, "/")
	if err != nil {
		t.Fatal(err)
	}
	body := string(resp.Body)
	if resp.Status != 200 || !strings.Contains(body, "urn:rover:demo/notes") {
		t.Fatalf("index: %d %q", resp.Status, body)
	}
	if resp.ContentType != "text/html" {
		t.Errorf("index content type %q", resp.ContentType)
	}
	// Webpage objects link to their rendered form.
	if !strings.Contains(body, `href="/web/p0"`) {
		t.Errorf("no web link in index: %q", body)
	}
	if !strings.Contains(body, "2 objects") {
		t.Errorf("count missing: %q", body)
	}
}

func TestObjectDump(t *testing.T) {
	addr := serve(t, testStore(t))
	resp, err := get(addr, "/obj/urn:rover:demo/notes")
	if err != nil {
		t.Fatal(err)
	}
	body := string(resp.Body)
	if resp.Status != 200 || resp.ContentType != "text/plain" {
		t.Fatalf("dump: %d %s", resp.Status, resp.ContentType)
	}
	for _, want := range []string{"type:    notes", "version: 1", "n0 = hello gateway", "proc count"} {
		if !strings.Contains(body, want) {
			t.Errorf("dump missing %q:\n%s", want, body)
		}
	}
	// Long values are truncated.
	if !strings.Contains(body, "... (500 bytes)") {
		t.Errorf("long value not truncated:\n%s", body)
	}
}

func TestWebpageRendered(t *testing.T) {
	addr := serve(t, testStore(t))
	resp, err := get(addr, "/web/p0")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || !strings.Contains(string(resp.Body), "<title>Demo page</title>") {
		t.Fatalf("webpage: %d %q", resp.Status, resp.Body)
	}
	if links := webproxy.ExtractLinks(resp.Body); len(links) != 1 || links[0] != "p1" {
		t.Errorf("links: %v", links)
	}
}

func TestErrors(t *testing.T) {
	addr := serve(t, testStore(t))
	for target, want := range map[string]int{
		"GET /obj/garbage":             400,
		"GET /obj/urn:rover:demo/nope": 404,
		"GET /web/missing":             404,
		"GET /other":                   404,
		"POST /":                       405,
	} {
		method, path, _ := strings.Cut(target, " ")
		resp, err := do(method, addr, path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != want {
			t.Errorf("%s = %d, want %d", target, resp.Status, want)
		}
	}
}

// TestHead: HEAD is answered with GET's status and headers and no body.
func TestHead(t *testing.T) {
	addr := serve(t, testStore(t))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "HEAD /obj/urn:rover:demo/notes HTTP/1.0\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	head, body, _ := strings.Cut(string(raw), "\r\n\r\n")
	if !strings.HasPrefix(head, "HTTP/1.0 200 ") || !strings.Contains(head, "\r\nContent-Type: text/plain\r\n") {
		t.Errorf("HEAD headers:\n%s", head)
	}
	if body != "" {
		t.Errorf("HEAD sent a body: %q", body)
	}
}

// Compile-time check: the facade's Object is the gateway's rdo.Object.
var _ *rover.Object = (*rdo.Object)(nil)

func TestReplicaRouting(t *testing.T) {
	st := testStore(t)
	var serving atomic.Bool
	serving.Store(true)
	addr := serveHandler(t, Handler(st, "demo", Peer{
		URL:     "http://peer.example:8081",
		Serving: serving.Load,
	}))

	// /replica always redirects to the peer gateway.
	resp, err := get(addr, "/replica")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 302 || resp.Location != "http://peer.example:8081/" {
		t.Fatalf("/replica: %d %q", resp.Status, resp.Location)
	}
	// While serving, ordinary paths are answered locally.
	if resp, err = get(addr, "/"); err != nil || resp.Status != 200 {
		t.Fatalf("/ while serving: %d %v", resp.Status, err)
	}
	// Once draining, every path redirects to the peer, preserving the path.
	serving.Store(false)
	resp, err = get(addr, "/obj/urn:rover:demo/notes")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 302 || resp.Location != "http://peer.example:8081/obj/urn:rover:demo/notes" {
		t.Fatalf("drained redirect: %d %q", resp.Status, resp.Location)
	}
	// /replica still names the peer's root, not the peer's own /replica.
	if resp, err = get(addr, "/replica"); err != nil || resp.Location != "http://peer.example:8081/" {
		t.Fatalf("drained /replica: %d %q %v", resp.Status, resp.Location, err)
	}
}

func TestReplicaUnconfigured(t *testing.T) {
	addr := serve(t, testStore(t))
	resp, err := get(addr, "/replica")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 404 || !strings.Contains(string(resp.Body), "no replica") {
		t.Fatalf("/replica without peer: %d %q", resp.Status, resp.Body)
	}
}
