// Command serve exposes the synthetic web over real HTTP: one listener
// answers for every simulated hostname (websites, CMP endpoints, the
// consensu.org vendor list) by routing on the Host header. With -demo
// it also crawls a few sites through the HTTP stack and prints the CMP
// detections, demonstrating the full wire-level pipeline.
//
// Usage:
//
//	serve [-addr :8080] [-domains N] [-seed N] [-demo]
//
// Manual exploration:
//
//	curl -H 'Host: vendorlist.consensu.org' http://localhost:8080/v10/vendor-list.json
//	curl -H 'Host: www.<domain>' -H 'X-Sim-Day: 805' http://localhost:8080/
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/capture"
	"repro/internal/cmps"
	"repro/internal/consensu"
	"repro/internal/daemon"
	"repro/internal/detect"
	"repro/internal/gvl"
	"repro/internal/simtime"
	"repro/internal/webserve"
	"repro/internal/webworld"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8080", "listen address")
		domains = flag.Int("domains", 10_000, "universe size")
		seed    = flag.Uint64("seed", 1, "root seed")
		demo    = flag.Bool("demo", false, "crawl a few sites over HTTP, print detections, and exit")
	)
	flag.Parse()

	world := webworld.New(webworld.Config{Seed: *seed, Domains: *domains})
	history := gvl.GenerateHistory(gvl.DefaultHistoryConfig())
	server := webserve.NewServer(world, history)
	// TCF consent endpoints on the CMP hosts: POST /consent and
	// GET /CookieAccess?user=… (the endpoint the paper queried).
	server.EnableConsentEndpoints(consensu.NewStore())

	d, err := daemon.Listen("serve", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	d.Announce("Serving the synthetic web (%d domains)", *domains)

	if *demo {
		go d.Serve(server, daemon.Options{}) //nolint:errcheck // demo server dies with the process
		runDemo(world, d.Addr().String())
		return
	}
	fmt.Println("Route by Host header; simulation context via X-Sim-Day / X-Sim-Geo / X-Sim-Cloud.")
	fmt.Println("Ctrl-C shuts down gracefully.")
	if err := d.Serve(server, daemon.Options{}); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	fmt.Println("serve: drained and stopped")
}

// runDemo crawls the most popular CMP-using sites over HTTP.
func runDemo(world *webworld.World, addr string) {
	crawler := webserve.NewCrawler(addr)
	det := detect.Default()
	day := simtime.Table1Snapshot
	fmt.Printf("\nDemo crawl at %s from the EU university vantage:\n", day)
	shown := 0
	for _, d := range world.Domains() {
		if shown >= 10 {
			break
		}
		if d.CMPAt(day) == cmps.None || d.Unreachable || d.RedirectTo != "" || d.Geo451 {
			continue
		}
		cap, err := crawler.Fetch("http://www."+d.Name+"/", day, capture.EUUniversity)
		if err != nil || cap.Failed {
			continue
		}
		fmt.Printf("  rank %6d  %-28s %d requests → detected %s (truth: %s)\n",
			d.Rank, d.Name, len(cap.Requests), det.DetectOne(cap), d.CMPAt(day))
		shown++
	}
}
