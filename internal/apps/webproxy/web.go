// Package webproxy is the Rover Web Browser Proxy — the reproduction of
// the paper's non-blocking Web browsing applications (the proxy used with
// Mosaic/Netscape, and Rover Mosaic).
//
// "Using it enabled us to rapidly produce one of the first full-function
// browsers that allows users to click ahead of the arrived data by
// requesting multiple new documents before earlier requests have been
// satisfied." The proxy's behaviors, per the paper:
//
//   - cache-first: "Rover delivers information immediately if it is
//     available in the local Rover cache; in the case of a cache miss, it
//     queues a request and returns immediately";
//   - click-ahead: multiple outstanding page requests, each a queued QRPC;
//   - prefetching: "If the delay is above a user-specified threshold,
//     documents that are directly accessible from the one requested are
//     prefetched";
//   - disconnected browsing of cached documents, with queued requests for
//     the rest ("an entry is created in a displayed list of outstanding
//     and satisfied requests").
//
// Pages are RDOs (type "webpage"); the synthetic web generator replaces
// the live Internet of the paper's testbed. FrontEnd, a net/http handler
// limited to GET and HEAD, serves real browsers from the proxy, mirroring
// the paper's CGI/standalone-HTTP server split.
package webproxy

import (
	"fmt"
	"math/rand"
	"strings"

	"rover"
	"rover/internal/rscript"
)

// PageType is the web page object type.
const PageType = "webpage"

// pageCode gives pages their methods (used by server-side filtering
// experiments as well as the proxy).
const pageCode = `
	proc body {} { state get body "" }
	proc links {} { state get links "" }
	proc title {} { state get title "" }
	proc size {} { string length [state get body ""] }
`

// Page is a decoded web page.
type Page struct {
	Path  string
	Title string
	Body  string
	Links []string // paths of directly accessible documents
}

// PageURN names a page object.
func PageURN(authority, path string) rover.URN {
	return rover.MustParseURN(fmt.Sprintf("urn:rover:%s/web/%s", authority, path))
}

// NewPageObject builds a page RDO.
func NewPageObject(authority, path, title, body string, links []string) *rover.Object {
	obj := rover.NewObject(PageURN(authority, path), PageType)
	obj.Code = pageCode
	obj.Set("title", title)
	obj.Set("body", body)
	obj.Set("links", rscript.FormatList(links))
	return obj
}

// PageFromObject decodes a page from its RDO.
func PageFromObject(obj *rover.Object) (Page, error) {
	p := Page{}
	get := func(k string) string {
		v, _ := obj.Get(k)
		return v
	}
	p.Title = get("title")
	p.Body = get("body")
	links, err := rscript.ParseList(get("links"))
	if err != nil {
		return p, fmt.Errorf("webproxy: bad links list: %w", err)
	}
	p.Links = links
	// Path is the last URN segment after "web/".
	full := obj.URN.Path
	if i := strings.Index(full, "web/"); i >= 0 {
		p.Path = full[i+4:]
	}
	return p, nil
}

// WebSpec parameterizes the synthetic document web.
type WebSpec struct {
	Authority    string
	Pages        int
	LinksPerPage int
	BodyBytes    int // mean body size
	Seed         int64
}

// GenerateWeb seeds a synthetic web of hyperlinked pages into a server.
// Links favor nearby pages (browsing locality) with a tail of random
// long-distance links, so click-ahead and prefetch have realistic
// structure to exploit. It returns the page paths in index order.
func GenerateWeb(srv *rover.Server, spec WebSpec) ([]string, error) {
	if spec.Pages <= 0 {
		return nil, fmt.Errorf("webproxy: need at least one page")
	}
	if spec.LinksPerPage < 0 {
		spec.LinksPerPage = 0
	}
	if spec.BodyBytes <= 0 {
		spec.BodyBytes = 4096 // mid-90s HTML page
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	paths := make([]string, spec.Pages)
	for i := range paths {
		paths[i] = fmt.Sprintf("p%d", i)
	}
	for i, path := range paths {
		var links []string
		seen := map[int]bool{i: true}
		for len(links) < spec.LinksPerPage && len(seen) < spec.Pages {
			var target int
			if rng.Intn(4) > 0 { // 75% local links
				target = (i + 1 + rng.Intn(5)) % spec.Pages
			} else {
				target = rng.Intn(spec.Pages)
			}
			if seen[target] {
				continue
			}
			seen[target] = true
			links = append(links, paths[target])
		}
		title := fmt.Sprintf("Synthetic page %d", i)
		body := genBody(rng, spec.BodyBytes)
		if err := srv.Seed(NewPageObject(spec.Authority, path, title, body, links)); err != nil {
			return nil, fmt.Errorf("webproxy: seed %s: %w", path, err)
		}
	}
	return paths, nil
}

func genBody(rng *rand.Rand, mean int) string {
	words := []string{
		"the", "web", "is", "young", "hypertext", "document", "server",
		"mosaic", "netscape", "gopher", "ftp", "http", "html", "link",
		"mobile", "wireless", "rover", "click", "ahead", "prefetch",
	}
	target := mean/2 + rng.Intn(mean+1)
	var sb strings.Builder
	for sb.Len() < target {
		sb.WriteString(words[rng.Intn(len(words))])
		if rng.Intn(15) == 0 {
			sb.WriteString(".\n")
		} else {
			sb.WriteByte(' ')
		}
	}
	return sb.String()
}
