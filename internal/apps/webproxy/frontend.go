package webproxy

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// FrontEnd serves a Proxy over HTTP so unmodified browsers can use it, as
// the paper's proxy did for Mosaic and Netscape: GET (and HEAD) on /<page>,
// 405 for any other method. A cached page is served instantly; a miss
// waits up to `patience` for the import, and otherwise returns a 504 page
// listing the outstanding requests (the paper's "displayed list of
// outstanding and satisfied requests") — the page stays queued and will be
// cached for a later retry.
func FrontEnd(p *Proxy, patience time.Duration) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /", func(w http.ResponseWriter, r *http.Request) {
		path := r.URL.Path[1:] // strip leading '/'
		if path == "" {
			path = "p0"
		}
		f := p.Browse(path)
		ctx, cancel := context.WithTimeout(r.Context(), patience)
		defer cancel()
		page, err := f.Wait(ctx)
		var status int
		var body []byte
		switch {
		case err == nil:
			status, body = http.StatusOK, RenderHTML(page)
		case ctx.Err() != nil:
			status = http.StatusGatewayTimeout
			body = fmt.Appendf(nil,
				"<html><body><h1>Queued</h1><p>%s is on the request queue; "+
					"it will be fetched when connectivity allows.</p>"+
					"<p>Outstanding: %v</p></body></html>\n",
				escapeHTML(path), p.OutstandingPaths())
		default:
			status, body = http.StatusNotFound, []byte("<html><body>not found</body></html>\n")
		}
		w.Header().Set("Content-Type", "text/html")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(status)
		_, _ = w.Write(body) // a client that hung up is past telling
	})
	return mux
}
