package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/capstore"
	"repro/internal/crawler"
	"repro/internal/fleet"
	"repro/internal/resilience"
	"repro/internal/simtime"
	"repro/internal/socialfeed"
	"repro/internal/webworld"
)

// fleetScenario exercises the distributed crawl with real processes:
// it boots a capd storage backend (-ingest -metrics), a fleetd
// coordinator (-metrics), and two `crawl -fleet` workers over a small
// fixture window, SIGKILLs one worker mid-run, and then verifies the
// headline invariant — the fleet's capture store is byte-identical to
// a single-process StreamPlatform run over the same window — plus the
// ledger (fleetd exits 0 only when captures+dead+dropped==submitted)
// and telemetry sanity on both /metrics endpoints.
func fleetScenario() {
	const shards = 4
	baseDir := filepath.Join(scratch, "baseline")
	baseStats := buildBaseline(baseDir, shards)
	logf("baseline: %d captured (%d failed-recorded), %d dead-lettered",
		baseStats.Succeeded+baseStats.FailedRecorded, baseStats.FailedRecorded, baseStats.DeadLettered)

	// capd: fresh store, remote ingest, telemetry.
	storeDir := filepath.Join(scratch, "fleetstore")
	capd := boot("capd", "-store", storeDir, "-init-shards", strconv.Itoa(shards),
		"-ingest", "-metrics", "-addr", "127.0.0.1:0")
	capdURL := capd.url()

	fleetd := boot("fleetd", fleetdArgs(capdURL)...)
	fleetdURL := fleetd.url()

	w1 := start("crawl", "-fleet", fleetdURL, "-worker-id", "fleetsmoke-w1")
	w2 := start("crawl", "-fleet", fleetdURL, "-worker-id", "fleetsmoke-w2")

	// Chaos: SIGKILL w2 as soon as the coordinator has leases in flight.
	// If the kill lands mid-lease its chunk expires and is reassigned;
	// either way the fleet must drain to the same bytes.
	status := fleet.NewClient(fleetdURL)
	killed := false
	deadline := time.Now().Add(30 * time.Second)
	for !killed {
		if time.Now().After(deadline) {
			fatalf("no lease observed within 30s; fleet never started")
		}
		if fleetd.exited() {
			fatalf("fleetd drained before the injected worker kill; grow the fixture window")
		}
		st, err := status.Status()
		if err == nil && st.Active >= 1 {
			w2.kill() // SIGKILL: no goodbye, the lease just stops heartbeating
			killed = true
			logf("killed w2 with %d leases active, %d/%d chunks pending",
				st.Active, st.Pending, st.Chunks)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Coordinator telemetry must be valid exposition and carry the fleet
	// families while the run is live.
	text := scrape(fleetdURL + "/metrics")
	for _, want := range []string{"fleet_leases_granted_total", "fleet_chunks_pending", "fleet_workers_live"} {
		if !strings.Contains(text, want) {
			fatalf("fleetd /metrics missing %q:\n%s", want, text)
		}
	}

	// fleetd exits 0 only when the window drained AND the ledger
	// balances (captures+dead+dropped == submitted) — the invariant
	// check lives in fleetd itself.
	if err := fleetd.wait(60 * time.Second); err != nil {
		fatalf("fleetd: %v\n%s", err, fleetd.output())
	}
	l := parseLedger(fleetd.output())
	checkLedger(l, baseStats)

	// The surviving worker drains on its own or spins on the vanished
	// coordinator; either way a SIGTERM must end it.
	w1.stop() //nolint:errcheck

	// capd telemetry: valid exposition, and the ingest path actually
	// carried the records.
	text = scrape(capdURL + "/metrics")
	if !strings.Contains(text, "capstore_ingest_records_total") {
		fatalf("capd /metrics missing capstore_ingest_records_total:\n%s", text)
	}
	if n := int64(mustSample(text, "capstore_ingest_records_total")); n != l.Captures {
		fatalf("capd ingested %d records, fleetd booked %d captures", n, l.Captures)
	}

	// Graceful capd shutdown flushes and closes the store; then the
	// headline: byte-identical segments.
	if err := capd.stop(); err != nil {
		fatalf("capd shutdown: %v", err)
	}
	wants, gots := segments(baseDir), segments(storeDir)
	if len(wants) != len(gots) {
		fatalf("segment count: baseline %d, fleet %d", len(wants), len(gots))
	}
	var total int
	for s := range wants {
		if !bytes.Equal(wants[s], gots[s]) {
			fatalf("segment %d differs: baseline %d bytes, fleet %d bytes", s, len(wants[s]), len(gots[s]))
		}
		total += len(wants[s])
	}
	logf("%d segments byte-identical (%d bytes)", len(wants), total)

	logf("ok — %d shares, %d captured, %d dead-lettered, %d leases reassigned after SIGKILL, stores byte-identical",
		l.Submitted, l.Captures, l.Dead, l.Reassigned)
}

// The fleet fixture window the fleet and replication scenarios crawl.
// The baseline must crawl with exactly these parameters — every one of
// them is byte-affecting except politeness and the lease geometry.
const (
	fleetSeed    = 7
	fleetDomains = 1_500
	fleetShares  = 150
	fleetLastDay = 1 // window [0, fleetLastDay]
	fleetRetries = 2
)

// fleetdArgs boots fleetd over the fixture window, ingesting into
// ingestURL. Generous retry budget so a killed worker's chunk is
// re-leased rather than dead-lettered (a dead chunk would — correctly
// — diverge from the baseline bytes).
func fleetdArgs(ingestURL string) []string {
	return []string{"-ingest", ingestURL, "-addr", "127.0.0.1:0",
		"-seed", strconv.Itoa(fleetSeed), "-domains", strconv.Itoa(fleetDomains),
		"-shares", strconv.Itoa(fleetShares), "-from", "0", "-to", strconv.Itoa(fleetLastDay),
		"-lease-size", "8", "-lease-ttl", "1s", "-retry-budget", "10",
		"-retries", strconv.Itoa(fleetRetries), "-breaker", "0", "-politeness", "1ms", "-metrics"}
}

// buildBaseline runs the single-process reference pipeline over the
// fixture window: Workers=1 records captures in share order, the
// canonical byte layout a fleet must reproduce. Retry budget and
// breaker setting mirror fleetdArgs; backoff timing and politeness
// are byte-neutral.
func buildBaseline(dir string, shards int) crawler.StreamStats {
	st, err := capstore.Create(dir, shards)
	check(err)
	world := webworld.New(webworld.Config{Seed: fleetSeed, Domains: fleetDomains})
	feed := socialfeed.New(world, socialfeed.Config{Seed: fleetSeed, SharesPerDay: fleetShares})
	p := crawler.NewStreamPlatform(world, crawler.StreamConfig{
		Seed:           fleetSeed,
		Workers:        1,
		PerDomainDelay: time.Millisecond,
		Retry:          resilience.RetryPolicy{MaxAttempts: fleetRetries, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond, Multiplier: 2, Jitter: 0.5},
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(context.Background(), st)
	}()
	for day := simtime.Day(0); day <= fleetLastDay; day++ {
		for _, s := range feed.Day(day) {
			check(p.Submit(context.Background(), day, s))
		}
	}
	p.Close()
	<-done
	check(st.Close())
	return p.Stats()
}

// checkLedger holds fleetd's drain line against the baseline run.
func checkLedger(l ledger, base crawler.StreamStats) {
	// The feed dedups (URL, day), so the window's real share count is
	// whatever the baseline submitted — not shares×days.
	if want := base.Succeeded + base.FailedRecorded + base.DeadLettered; l.Submitted != want {
		fatalf("fleetd submitted %d shares, baseline window has %d", l.Submitted, want)
	}
	if l.Dropped != 0 {
		fatalf("fleetd dropped %d shares on a clean drain", l.Dropped)
	}
	if l.Captures != base.Succeeded+base.FailedRecorded {
		fatalf("fleet captured %d, baseline recorded %d", l.Captures, base.Succeeded+base.FailedRecorded)
	}
	if l.Dead != base.DeadLettered {
		fatalf("fleet dead-lettered %d, baseline %d", l.Dead, base.DeadLettered)
	}
}
