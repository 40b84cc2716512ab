// Webbrowse: the Rover Web Browser Proxy with click-ahead, prefetching,
// and disconnected browsing — plus the restricted-HTTP front end, so you
// can point a real browser (or curl) at the proxy while it runs.
//
//	go run ./examples/webbrowse
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"rover"
	"rover/internal/apps/webproxy"
)

func main() {
	srv, err := rover.NewServer(rover.ServerOptions{ServerID: "webhome"})
	if err != nil {
		log.Fatal(err)
	}
	paths, err := webproxy.GenerateWeb(srv, webproxy.WebSpec{
		Authority: "webhome", Pages: 30, LinksPerPage: 3, BodyBytes: 600, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}

	cli, err := rover.NewClient(rover.ClientOptions{ClientID: "browser"})
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()
	link := cli.ConnectPipe(srv)
	link.SetConnected(true)
	proxy := webproxy.NewProxy(cli, "webhome", nil)
	proxy.PrefetchThreshold = time.Nanosecond // prefetch aggressively for the demo

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	fmt.Println("-- connected: browse the first page (its links get prefetched) --")
	page, err := proxy.Browse(paths[0]).Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %q links=%v\n", page.Path, page.Title, page.Links)
	time.Sleep(50 * time.Millisecond) // let the low-priority prefetches land
	st := proxy.Stats()
	fmt.Printf("proxy stats: requests=%d hits=%d prefetches=%d\n", st.Requests, st.CacheHits, st.Prefetches)

	fmt.Println("\n-- disconnect; click ahead on five pages --")
	link.SetConnected(false)
	futures := proxy.ClickAhead(paths[5], paths[6], paths[7], paths[8], paths[9])
	if p, err := proxy.Browse(page.Links[0]).Wait(ctx); err == nil {
		fmt.Printf("prefetched link still readable offline: %s %q\n", p.Path, p.Title)
	}
	fmt.Printf("outstanding requests (the paper's queued-request list): %v\n", proxy.OutstandingPaths())

	fmt.Println("\n-- reconnect; the click-ahead pages stream in --")
	link.SetConnected(true)
	for _, f := range futures {
		p, err := f.Wait(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("arrived: %s %q\n", p.Path, p.Title)
	}

	fmt.Println("\n-- HTTP front end (the paper's unmodified-browser path) --")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	fe := &http.Server{Handler: webproxy.FrontEnd(proxy, 2*time.Second), ReadHeaderTimeout: 10 * time.Second}
	go fe.Serve(ln)
	defer fe.Close()
	url := fmt.Sprintf("http://%s/%s", ln.Addr(), paths[0])
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GET %s -> %d (%d bytes of HTML, links: %v)\n",
		url, resp.StatusCode, len(body), webproxy.ExtractLinks(body))
}
