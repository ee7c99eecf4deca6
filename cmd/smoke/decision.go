package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/decision"
	"repro/internal/gvl"
)

// The consentd child's GVL must match the validator's resolver
// exactly; both use these parameters. decisionCount is the number of
// decisions driven through the batch endpoint.
const (
	gvlSeed       = 1
	gvlVersions   = 60
	gvlVendors    = 400
	flexProb      = 0.25
	decisionCount = 50_000
)

// decisionScenario is the end-to-end gate for the consent-decision
// service: it boots consentd with telemetry, drives mixed traffic
// through the load driver (batch NDJSON, single decisions, vendor
// filters), re-checks sampled batch answers against the naive
// reference path, and verifies the /metrics and /healthz surfaces
// carry the decision families.
func decisionScenario() {
	consentd := boot("consentd",
		"-addr", "127.0.0.1:0", "-metrics",
		"-gvl-seed", fmt.Sprint(gvlSeed),
		"-gvl-versions", fmt.Sprint(gvlVersions),
		"-gvl-vendors", fmt.Sprint(gvlVendors),
		"-flexible-prob", fmt.Sprint(flexProb),
	)
	base := consentd.url()

	pop, err := decision.GeneratePopulation(decision.PopulationConfig{
		Seed: 1, Size: 2000, MaxVLV: gvlVersions,
	})
	check(err)

	// Mixed batch traffic through the load driver.
	cfg := decision.LoadConfig{
		ServerURL:  base,
		Population: pop,
		Workers:    4,
		Decisions:  decisionCount,
		BatchSize:  256,
		Bodies:     32,
	}
	res, err := decision.RunLoad(cfg)
	check(err)
	if res.Decisions < decisionCount {
		fatalf("drove only %d of %d decisions", res.Decisions, decisionCount)
	}
	if res.Bases["consent"] == 0 || res.Bases["none"] == 0 {
		fatalf("implausible basis mix: %v", res.Bases)
	}

	// Single-decision endpoint agrees with the local kernel.
	raw := pop.Strings[0]
	one := get(base + "/decide?tc=" + raw + "&vendor=1&purpose=1")
	var dr struct {
		Allowed bool   `json:"allowed"`
		Basis   string `json:"basis"`
	}
	check(json.Unmarshal([]byte(one), &dr))
	if (dr.Basis == "none") == dr.Allowed {
		fatalf("/decide inconsistent: %s", one)
	}

	// Vendor filter answers a plausible subset.
	fresp, err := http.Post(base+"/v1/filter", "application/json",
		strings.NewReader(`{"t":"`+raw+`","purpose":1,"vendors":[1,2,3,4,5,6,7,8,9,10]}`))
	check(err)
	fbody, _ := io.ReadAll(fresp.Body)
	fresp.Body.Close()
	if fresp.StatusCode != http.StatusOK {
		fatalf("/v1/filter: %s\n%s", fresp.Status, fbody)
	}
	var fr struct {
		Allowed []int `json:"allowed"`
		Checked int   `json:"checked"`
	}
	check(json.Unmarshal(fbody, &fr))
	if fr.Checked != 10 || len(fr.Allowed) > 10 {
		fatalf("/v1/filter implausible: %s", fbody)
	}

	// Validation: sampled batches re-checked against the naive path
	// over the same generated GVL.
	h := gvl.GenerateHistory(gvl.HistoryConfig{
		Seed: gvlSeed, Versions: gvlVersions, PeakVendors: gvlVendors,
	})
	resolver := decision.NewResolver(gvl.UpgradeHistory(h, gvl.V2UpgradeConfig{
		FlexibleSeed: gvlSeed, FlexibleProb: flexProb,
	}))
	vr, err := decision.ValidateAgainstNaive(cfg, resolver, 8)
	check(err)
	if vr.Mismatches > 0 {
		fatalf("%d of %d answers disagree with the naive path: %s",
			vr.Mismatches, vr.Checked, vr.FirstMismatch)
	}

	// /metrics is valid exposition text and carries the decision
	// families with real traffic in them.
	text := scrape(base + "/metrics")
	for _, want := range []string{
		`decision_decisions_total{endpoint="batch",basis="consent"}`,
		`decision_decisions_total{endpoint="filter",basis="consent"}`,
		"decision_cache_hits_total",
		"decision_cache_hit_ratio",
		"decision_batch_seconds_bucket",
		"decision_single_seconds_bucket",
		"decision_http_admitted_total",
		"obs_trace_spans",
	} {
		if !strings.Contains(text, want) {
			fatalf("/metrics missing %q", want)
		}
	}

	// /healthz totals cover the driven traffic and the cache absorbed
	// the skewed string population.
	var health struct {
		Decisions     int64   `json:"decisions"`
		CacheHitRatio float64 `json:"cache_hit_ratio"`
		GVL           struct {
			Versions int `json:"versions"`
		} `json:"gvl"`
	}
	check(json.Unmarshal([]byte(get(base+"/healthz")), &health))
	if health.Decisions < res.Decisions {
		fatalf("/healthz decisions = %d, driver counted %d", health.Decisions, res.Decisions)
	}
	if health.GVL.Versions != gvlVersions {
		fatalf("/healthz GVL versions = %d, want %d", health.GVL.Versions, gvlVersions)
	}
	if health.CacheHitRatio < 0.5 {
		fatalf("cache hit ratio %.3f after skewed traffic, want ≥ 0.5", health.CacheHitRatio)
	}

	check(consentd.stop())
	logf("ok (%d decisions at %.0f/sec, p50 %v p99 %v, %.1f%% cache hits, %d answers validated)",
		res.Decisions, res.DecisionsPerSec, res.P50, res.P99,
		100*health.CacheHitRatio, vr.Checked)
}
