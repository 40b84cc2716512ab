// Package gateway exposes a Rover server's object store over the
// restricted HTTP subset — the analog of the paper's second server
// deployment: "One is compatible with the Common Gateway Interface (CGI)
// of standard, unmodified HTTP compliant servers... The other
// implementation is a standalone TCP/IP server which provides a very
// restricted subset of HTTP."
//
// The gateway is read-only: it lets any web browser inspect a Rover
// server's committed objects (and browse webpage-typed RDOs directly).
// Updates still flow through QRPC, where the queueing and conflict
// machinery lives.
package gateway

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"rover/internal/apps/webproxy"
	"rover/internal/store"
	"rover/internal/urn"
)

// Peer names the other half of a replicated home pair for gateway-level
// failover. URL is the peer gateway's base ("http://host:port"). Serving,
// when non-nil, reports whether THIS server is still willing to answer;
// when it returns false every request is redirected to the peer, so a
// browser pointed at a draining or partitioned replica lands on the
// survivor without editing its bookmark.
type Peer struct {
	URL     string
	Serving func() bool
}

// Handler serves a store over the restricted HTTP subset: GET (and HEAD)
// on the paths below, 404 with a hint elsewhere, 405 for any other method.
//
//	/ or /index                index of all objects
//	/obj/urn:rover:<a>/<p>     text dump of one object
//	/web/<path>                webpage-typed RDO rendered as HTML
//	/replica                   redirect to the peer gateway (404 without one)
//
// While peer.Serving reports false every path but /replica redirects to the
// peer (302, preserving the path). The zero Peer serves locally always.
func Handler(st store.Backend, webAuthority string, peer Peer) http.Handler {
	mux := http.NewServeMux()
	showIndex := func(w http.ResponseWriter, r *http.Request) { index(w, st) }
	mux.HandleFunc("GET /{$}", showIndex)
	mux.HandleFunc("GET /index", showIndex)
	mux.HandleFunc("GET /obj/", func(w http.ResponseWriter, r *http.Request) {
		object(w, st, strings.TrimPrefix(r.URL.Path, "/obj/"))
	})
	mux.HandleFunc("GET /web/", func(w http.ResponseWriter, r *http.Request) {
		webpage(w, st, webAuthority, strings.TrimPrefix(r.URL.Path, "/web/"))
	})
	mux.HandleFunc("GET /replica", func(w http.ResponseWriter, r *http.Request) {
		if peer.URL == "" {
			reply(w, http.StatusNotFound, textPlain, "no replica configured\n")
			return
		}
		redirect(w, peer.URL, "/")
	})
	mux.HandleFunc("GET /", func(w http.ResponseWriter, r *http.Request) {
		reply(w, http.StatusNotFound, textPlain, "try /, /obj/<urn>, /web/<page>, or /replica\n")
	})
	if peer.URL == "" || peer.Serving == nil {
		return mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/replica" && !peer.Serving() {
			redirect(w, peer.URL, r.URL.RequestURI())
			return
		}
		mux.ServeHTTP(w, r)
	})
}

const (
	textHTML  = "text/html"
	textPlain = "text/plain"
)

// reply writes a whole response. The Content-Type is set exactly as given:
// http.Error would append a charset.
func reply(w http.ResponseWriter, status int, contentType, body string) {
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = io.WriteString(w, body) // a client that hung up is past telling
}

func redirect(w http.ResponseWriter, base, path string) {
	loc := strings.TrimSuffix(base, "/") + path
	w.Header().Set("Location", loc)
	reply(w, http.StatusFound, textPlain, "see "+loc+"\n")
}

func index(w http.ResponseWriter, st store.Backend) {
	var sb strings.Builder
	sb.WriteString("<html><head><title>Rover object store</title></head><body>\n")
	sb.WriteString("<h1>Rover object store</h1>\n<table border=1>\n")
	sb.WriteString("<tr><th>URN</th><th>type</th><th>version</th></tr>\n")
	entries := st.ListAll()
	for _, e := range entries {
		link := "/obj/" + e.URN.String()
		if e.Type == webproxy.PageType {
			if i := strings.Index(e.URN.Path, "web/"); i >= 0 {
				link = "/web/" + e.URN.Path[i+4:]
			}
		}
		fmt.Fprintf(&sb, "<tr><td><a href=%q>%s</a></td><td>%s</td><td>%d</td></tr>\n",
			link, e.URN, e.Type, e.Version)
	}
	fmt.Fprintf(&sb, "</table><p>%d objects</p></body></html>\n", len(entries))
	reply(w, http.StatusOK, textHTML, sb.String())
}

func object(w http.ResponseWriter, st store.Backend, urnStr string) {
	u, err := urn.Parse(urnStr)
	if err != nil {
		reply(w, http.StatusBadRequest, textPlain, "bad URN: "+err.Error()+"\n")
		return
	}
	obj, err := st.Get(u)
	if err != nil {
		reply(w, http.StatusNotFound, textPlain, "no such object\n")
		return
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "urn:     %s\ntype:    %s\nversion: %d\n", obj.URN, obj.Type, obj.Version)
	if obj.Code != "" {
		fmt.Fprintf(&sb, "\n-- code --\n%s\n", obj.Code)
	}
	sb.WriteString("\n-- state --\n")
	for _, k := range obj.Keys() {
		v, _ := obj.Get(k)
		if len(v) > 200 {
			v = v[:200] + fmt.Sprintf("... (%d bytes)", len(v))
		}
		fmt.Fprintf(&sb, "%s = %s\n", k, v)
	}
	reply(w, http.StatusOK, textPlain, sb.String())
}

func webpage(w http.ResponseWriter, st store.Backend, authority, path string) {
	obj, err := st.Get(rdoPageURN(authority, path))
	if err != nil {
		reply(w, http.StatusNotFound, textPlain, "no such page\n")
		return
	}
	page, err := webproxy.PageFromObject(obj)
	if err != nil {
		reply(w, http.StatusInternalServerError, textPlain, err.Error()+"\n")
		return
	}
	reply(w, http.StatusOK, textHTML, string(webproxy.RenderHTML(page)))
}

func rdoPageURN(authority, path string) urn.URN {
	u, err := urn.New(authority, "web/"+path)
	if err != nil {
		return urn.URN{}
	}
	return u
}
