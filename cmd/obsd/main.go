// Command obsd is the fleet-wide observability aggregator (DESIGN.md
// §13): it scrapes every node's /metrics.json and /debug/trace on an
// interval, folds the scrapes into cluster rollups, assembles
// cross-process traces out of the exported span streams, and
// evaluates declarative SLO rules with fast/slow burn-rate windows.
//
// Usage:
//
//	obsd -targets capd-0=capd=http://127.0.0.1:8650,ring=capring=http://127.0.0.1:8660 \
//	     [-interval 5s] [-addr 127.0.0.1:8670] [-metrics] \
//	     [-slo name=ingest-p99,kind=latency,metric=capstore_ingest_seconds,threshold=0.5] \
//	     [-slo name=sheds,kind=rate,metric=repl_ingest_shed_total,threshold=0.1,fast=30s,slow=2m,fastburn=1,slowburn=1]
//
// Each -targets entry is name=role=url: the node identity, its role
// (the tracer Service it exports spans under), and the base URL of
// its obs debug surface. -slo repeats, one rule per flag; the clause
// syntax is documented on agg.ParseRule.
//
// Endpoints:
//
//	GET  /cluster/metrics       rollups, Prometheus text exposition
//	GET  /cluster/metrics.json  rollups as {"families":[…]}
//	GET  /cluster/traces        assembled trace summaries
//	GET  /cluster/traces/{id}   one assembled trace (deterministic text)
//	GET  /cluster/alerts        SLO rule states with burn rates
//	GET  /cluster/healthz       scrape + alert health
//	POST /ingest/spans          span export pushed by an ephemeral
//	                            process (fleetd, crawl workers)
//
// With -metrics, /metrics and /metrics.json expose obsd's own
// registry (scrape counters, trace-table state), beside /debug/pprof/
// and an always-empty /debug/trace (obsd records no spans of its own).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/internal/obs/agg"
)

type sloFlags []agg.Rule

func (s *sloFlags) String() string { return fmt.Sprintf("%d rules", len(*s)) }

func (s *sloFlags) Set(v string) error {
	r, err := agg.ParseRule(v)
	if err != nil {
		return err
	}
	*s = append(*s, r)
	return nil
}

func parseTargets(s string) ([]agg.Target, error) {
	var targets []agg.Target
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.SplitN(part, "=", 3)
		if len(fields) != 3 || fields[0] == "" || fields[1] == "" || fields[2] == "" {
			return nil, fmt.Errorf("bad -targets entry %q (want name=role=url)", part)
		}
		targets = append(targets, agg.Target{Name: fields[0], Role: fields[1], URL: fields[2]})
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("-targets is empty")
	}
	return targets, nil
}

func main() {
	var rules sloFlags
	var (
		targetsFlag = flag.String("targets", "", "comma-separated name=role=url scrape targets (required)")
		interval    = flag.Duration("interval", 5*time.Second, "scrape interval")
		addr        = flag.String("addr", "127.0.0.1:8670", "listen address")
		metrics     = flag.Bool("metrics", false, "expose obsd's own /metrics, /metrics.json and /debug endpoints")
	)
	flag.Var(&rules, "slo", "SLO rule (repeatable), e.g. name=p99,kind=latency,metric=ingest_seconds,threshold=0.5")
	flag.Parse()
	if *targetsFlag == "" {
		flag.Usage()
		os.Exit(2)
	}
	targets, err := parseTargets(*targetsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsd:", err)
		os.Exit(2)
	}

	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}
	a, err := agg.New(agg.Config{
		Targets:  targets,
		Interval: *interval,
		Rules:    rules,
		Registry: reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsd:", err)
		os.Exit(1)
	}

	d, err := daemon.Listen("obsd", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsd:", err)
		os.Exit(1)
	}
	d.Announce("obsd: aggregating %d targets every %v", len(targets), *interval)
	for _, t := range targets {
		fmt.Printf("obsd:   target %s (%s) at %s\n", t.Name, t.Role, t.URL)
	}
	for _, r := range rules {
		fmt.Printf("obsd:   slo %s: %s on %s threshold %g (windows %v/%v, burn %g/%g)\n",
			r.Name, r.Kind, r.Metric, r.Threshold, r.FastWindow, r.SlowWindow, r.FastBurn, r.SlowBurn)
	}
	fmt.Printf("obsd: endpoints /cluster/metrics /cluster/traces /cluster/alerts /cluster/healthz /ingest/spans; Ctrl-C stops.\n")

	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() { defer close(scraped); a.Run(stop) }()
	err = d.Serve(agg.Handler(a), daemon.Options{
		Registry: reg,
		Drain:    func() { close(stop); <-scraped },
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsd:", err)
		os.Exit(1)
	}
	h := a.Health()
	fmt.Printf("obsd: stopped (%d traces assembled, %d alerts firing)\n", h.Traces, h.AlertsFiring)
}
