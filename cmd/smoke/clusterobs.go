package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs/agg"
)

// clusterObsScenario exercises fleet-wide observability with real
// processes: three capd storage nodes and a capring replication proxy
// (all with -metrics), a fleetd coordinator and two `crawl -fleet`
// workers pushing their span exports to an obsd aggregation daemon,
// and obsd itself scraping every long-lived node. The run must
// produce:
//
//   - valid Prometheus exposition on every node's /metrics AND on
//     obsd's /cluster/metrics rollup (obs.ValidateExposition);
//   - at least one fully-stitched cross-process trace: one trace id
//     carrying spans from fleetd, worker, capring, and capd with zero
//     orphans — the lease→work→push→ring→ingest chain reassembled
//     from four processes' exports;
//   - a tripped SLO burn-rate alert: far-future ordered pushes into
//     the ring's bounded reorder buffer induce sheds, and the shed
//     rate rule on obsd must transition to firing.
func clusterObsScenario() {
	const (
		seed    = 7
		domains = 600
		shares  = 60
		shards  = 4
	)
	// Three storage nodes, all with the full telemetry surface.
	var nodeURLs, nodesFlag, targets []string
	for i := 0; i < numNodes; i++ {
		name := fmt.Sprintf("node-%d", i)
		p := boot("capd", "-store", filepath.Join(scratch, name),
			"-init-shards", strconv.Itoa(shards),
			"-ingest", "-metrics", "-addr", "127.0.0.1:0")
		url := p.url()
		nodeURLs = append(nodeURLs, url)
		nodesFlag = append(nodesFlag, name+"="+url)
		targets = append(targets, name+"=capd="+url)
	}

	// capring with a deliberately tiny reorder buffer: far-future
	// ordered pushes overflow it on demand, which is how the scenario
	// induces the sheds that must trip the burn-rate alert.
	capring := boot("capring", "-nodes", strings.Join(nodesFlag, ","),
		"-shards", strconv.Itoa(shards), "-replicas", "2", "-quorum", "1",
		"-seed", strconv.Itoa(ringSeed), "-ingest-pending", "4",
		"-metrics", "-addr", "127.0.0.1:0")
	ringURL := capring.url()
	targets = append(targets, "ring=capring="+ringURL)

	// obsd scrapes the long-lived nodes on a tight interval and holds
	// one SLO rule: shed rate through the ring.
	obsd := boot("obsd", "-targets", strings.Join(targets, ","),
		"-interval", "100ms", "-metrics", "-addr", "127.0.0.1:0",
		"-slo", "name=shed,kind=rate,metric=repl_ingest_shed_total,threshold=0.5,fast=5s,slow=10s,fastburn=1,slowburn=1")
	obsdURL := obsd.url()

	// fleetd pushes its span export to obsd at drain and hands the obsd
	// URL to every worker via /config.
	fleetd := boot("fleetd", "-ingest", ringURL, "-obsd", obsdURL,
		"-addr", "127.0.0.1:0",
		"-seed", strconv.Itoa(seed), "-domains", strconv.Itoa(domains),
		"-shares", strconv.Itoa(shares), "-from", "0", "-to", "0",
		"-lease-size", "8", "-lease-ttl", "2s", "-retry-budget", "10",
		"-retries", "2", "-breaker", "0", "-politeness", "1ms", "-metrics")

	w1 := start("crawl", "-fleet", fleetd.url(), "-worker-id", "clustersmoke-w1")
	w2 := start("crawl", "-fleet", fleetd.url(), "-worker-id", "clustersmoke-w2")

	if err := fleetd.wait(120 * time.Second); err != nil {
		fatalf("fleetd: %v\n%s", err, fleetd.output())
	}
	captures := parseLedger(fleetd.output()).Captures
	if captures == 0 {
		fatalf("fleetd drained with zero captures")
	}
	// A worker that was idle at the drain moment never sees a drained
	// frame (fleetd is gone); SIGTERM is the normal teardown, and the
	// span export is pushed on that path too.
	for _, w := range []*proc{w1, w2} {
		w.stop() //nolint:errcheck
	}
	logf("fleet drained with %d captures; checking scrapes", captures)

	// 1. Every node's text exposition and the cluster rollup validate.
	for _, url := range append(append([]string{}, nodeURLs...), ringURL, obsdURL) {
		scrape(url + "/metrics")
	}
	cluster := scrape(obsdURL + "/cluster/metrics")
	for _, want := range []string{
		"cluster:repl_committed_records_total",
		"role:repl_node_up",
		"node:capstore_ingest_batches_total",
	} {
		if !strings.Contains(cluster, want) {
			fatalf("/cluster/metrics missing rollup %q", want)
		}
	}
	var health agg.Health
	check(json.Unmarshal([]byte(get(obsdURL+"/cluster/healthz")), &health))
	for _, n := range health.Nodes {
		if !n.Up {
			fatalf("node %s down in /cluster/healthz: %+v", n.Name, health)
		}
	}
	logf("%d scrapes valid; waiting for a stitched trace", numNodes+2)

	// 2. A fully-stitched cross-process trace. The worker exports land
	// at exit and capd/capring spans ride the scrape cadence, so poll.
	wantSvcs := []string{"capd", "capring", "fleetd", "worker"}
	var stitched agg.TraceSummary
	deadline := time.Now().Add(20 * time.Second)
	for stitched.TID == "" {
		if time.Now().After(deadline) {
			fatalf("no trace stitched across %v within 20s: %s", wantSvcs, get(obsdURL+"/cluster/traces"))
		}
		var sums []agg.TraceSummary
		check(json.Unmarshal([]byte(get(obsdURL+"/cluster/traces")), &sums))
		for _, s := range sums {
			if s.Orphans == 0 && hasAll(s.Svcs, wantSvcs) {
				stitched = s
				break
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	body := get(obsdURL + "/cluster/traces/" + stitched.TID)
	for _, svc := range wantSvcs {
		if !strings.Contains(body, "["+svc+"]") {
			fatalf("trace %s render missing a [%s] span:\n%s", stitched.TID, svc, body)
		}
	}
	logf("trace %s spans %d processes (%s), %d spans, 0 orphans",
		stitched.TID, len(stitched.Svcs), strings.Join(stitched.Svcs, ","), stitched.Spans)

	// 3. Induce sheds: ordered pushes at far-future sequences jam the
	// ring's 4-slot reorder buffer; everything past the bound sheds
	// with 503, and the shed-rate rule must trip.
	sheds := 0
	for i := 0; i < 30; i++ {
		resp, err := http.Post(fmt.Sprintf("%s/ingest?at=%d&n=1", ringURL, 9_000_000+i),
			"application/octet-stream", bytes.NewReader(nil))
		check(err)
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			sheds++
		}
	}
	if sheds < 5 {
		fatalf("induced only %d sheds out of 30 far-future pushes; buffer never overflowed", sheds)
	}
	deadline = time.Now().Add(20 * time.Second)
	for {
		if time.Now().After(deadline) {
			fatalf("shed alert never fired: %s", get(obsdURL+"/cluster/alerts"))
		}
		var alerts []agg.Alert
		check(json.Unmarshal([]byte(get(obsdURL+"/cluster/alerts")), &alerts))
		if len(alerts) != 1 {
			fatalf("want one alert rule, got %+v", alerts)
		}
		if alerts[0].State == "firing" {
			logf("shed alert firing (fast burn %.1f, slow burn %.1f) after %d induced sheds",
				alerts[0].FastBurn, alerts[0].SlowBurn, sheds)
			break
		}
		time.Sleep(100 * time.Millisecond)
	}

	logf("ok — %d captures, %d valid scrapes, trace %s stitched across %s, shed alert tripped",
		captures, numNodes+2, stitched.TID, strings.Join(stitched.Svcs, ","))
}

func hasAll(have, want []string) bool {
	set := map[string]bool{}
	for _, s := range have {
		set[s] = true
	}
	for _, s := range want {
		if !set[s] {
			return false
		}
	}
	return true
}
