package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/capstore"
	"repro/internal/capture"
	"repro/internal/crawler"
	"repro/internal/resilience"
	"repro/internal/simtime"
	"repro/internal/socialfeed"
	"repro/internal/webworld"
)

const (
	fleetSeed    = 11
	fleetDomains = 1_500
	fleetShares  = 120
	fleetShards  = 4
	fleetDays    = 2
	fleetRetries = 2
)

func fleetWorld() *webworld.World {
	return webworld.New(webworld.Config{Seed: fleetSeed, Domains: fleetDomains})
}

func fleetFeed(w *webworld.World) *socialfeed.Feed {
	return socialfeed.New(w, socialfeed.Config{Seed: fleetSeed, SharesPerDay: fleetShares})
}

// baselineStore runs the single-process StreamPlatform reference:
// Workers=1 records captures in share order — the canonical byte
// layout the fleet must reproduce.
func baselineStore(t *testing.T) (dir string, stats crawler.StreamStats) {
	t.Helper()
	dir = t.TempDir()
	st, err := capstore.Create(dir, fleetShards)
	if err != nil {
		t.Fatal(err)
	}
	w := fleetWorld()
	feed := fleetFeed(w)
	p := crawler.NewStreamPlatform(w, crawler.StreamConfig{
		Seed:           fleetSeed,
		Workers:        1,
		PerDomainDelay: time.Millisecond,
		Retry:          resilience.RetryPolicy{MaxAttempts: fleetRetries, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Multiplier: 2, Jitter: 0.5},
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(context.Background(), st)
	}()
	ctx := context.Background()
	for day := simtime.Day(0); day < fleetDays; day++ {
		for _, s := range feed.Day(day) {
			if err := p.Submit(ctx, day, s); err != nil {
				t.Errorf("baseline submit: %v", err)
			}
		}
	}
	p.Close()
	<-done
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, p.Stats()
}

func readSegs(t *testing.T, dir string) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = string(data)
	}
	return out
}

// runFleet drives a full fleet run: coordinator behind a real HTTP
// server, capd-style ingest behind another, n workers plus one doomed
// worker that crashes mid-lease at the given stage ("processed" = after
// crawling, before the push; "pushed" = after the push, before the
// completion — the latter exercises ingest idempotency under
// re-delivery).
func runFleet(t *testing.T, n int, crashStage string) (dir string, ledger Ledger, ingStats capstore.IngestStats) {
	t.Helper()
	dir = t.TempDir()
	store, err := capstore.Create(dir, fleetShards)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := capstore.NewIngester(store, capstore.IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	capdMux := httptest.NewServer(ing)
	defer capdMux.Close()

	world := fleetWorld()
	items := WorkFromFeed(fleetFeed(world), 0, fleetDays-1)
	capCl := capstore.NewClient(capdMux.URL)
	co, err := NewCoordinator(items, CoordinatorConfig{
		LeaseSize:        16,
		LeaseTTL:         500 * time.Millisecond,
		LeaseRetryBudget: 5,
		IdleRetry:        20 * time.Millisecond,
		Skip: func(at, nn int64) error {
			_, err := capCl.RecordBatchAt(at, nn, nil)
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	coordSrv := httptest.NewServer(NewHandler(co, RunConfig{
		WorldSeed:     fleetSeed,
		WorldDomains:  fleetDomains,
		CrawlSeed:     fleetSeed,
		RetryAttempts: fleetRetries,
		PolitenessMS:  1,
		IngestURL:     capdMux.URL,
	}, ServerConfig{}))
	defer coordSrv.Close()

	sweepStop := make(chan struct{})
	var sweepWG sync.WaitGroup
	sweepWG.Add(1)
	go func() {
		defer sweepWG.Done()
		ticker := time.NewTicker(50 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-sweepStop:
				return
			case <-ticker.C:
				co.Sweep()
			}
		}
	}()

	coord := NewClient(coordSrv.URL)
	rc, err := coord.Config()
	if err != nil {
		t.Fatal(err)
	}
	newWorker := func(id string) *Worker {
		w, err := NewWorker(WorkerConfig{
			ID:          id,
			Coordinator: NewClient(coordSrv.URL),
			Push:        IngestPush(capCl),
			World:       fleetWorld(), // each worker rebuilds the world, like a real node
			Run:         rc,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	// The doomed worker crashes on its first lease and never returns —
	// the in-process stand-in for a SIGKILLed node. It starts alone: the
	// healthy workers are released only once it holds a lease (its
	// crash hook is consulted at "granted"), so they cannot drain the
	// window before the chaos path runs, whatever the scheduler does.
	doomed := newWorker("doomed")
	var crashed atomic.Bool
	leased := make(chan struct{})
	var leasedOnce sync.Once
	release := func() { leasedOnce.Do(func() { close(leased) }) }
	doomed.crash = func(stage string, first int64) bool {
		release()
		return stage == crashStage && crashed.CompareAndSwap(false, true)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer release()
		err := doomed.Run(ctx)
		if err != nil && !errors.Is(err, ErrWorkerCrashed) && !errors.Is(err, context.Canceled) {
			t.Errorf("doomed worker: %v", err)
		}
	}()
	<-leased
	for i := 0; i < n; i++ {
		w := newWorker(fmt.Sprintf("worker-%d", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("worker: %v", err)
			}
		}()
	}

	select {
	case <-co.Done():
	case <-ctx.Done():
		t.Fatalf("fleet did not drain: status=%+v ingest=%+v", co.Status(), ing.Stats())
	}
	cancel() // release idle workers
	wg.Wait()
	close(sweepStop)
	sweepWG.Wait()
	if !crashed.Load() {
		t.Fatalf("crash hook never fired at stage %q — the chaos path went untested", crashStage)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, co.Ledger(), ing.Stats()
}

// TestFleetDeterminism is the tentpole's headline invariant: a fleet of
// N workers — including a worker that crashes mid-lease — produces a
// capstore byte-identical to the single-process StreamPlatform run over
// the same feed window.
func TestFleetDeterminism(t *testing.T) {
	baseDir, baseStats := baselineStore(t)
	want := readSegs(t, baseDir)
	if baseStats.Succeeded+baseStats.FailedRecorded == 0 {
		t.Fatal("baseline produced no captures; the comparison is vacuous")
	}

	for _, tc := range []struct {
		workers    int
		crashStage string
	}{
		{1, "processed"},
		{3, "processed"},
		{3, "pushed"}, // crash after the push: re-delivery must dedup
	} {
		tc := tc
		t.Run(fmt.Sprintf("workers=%d/crash=%s", tc.workers, tc.crashStage), func(t *testing.T) {
			dir, ledger, ingStats := runFleet(t, tc.workers, tc.crashStage)
			got := readSegs(t, dir)
			if len(got) != len(want) {
				t.Fatalf("segment count: got %d, want %d", len(got), len(want))
			}
			for name, w := range want {
				if got[name] != w {
					t.Errorf("segment %s differs from single-process baseline (got %d bytes, want %d)",
						name, len(got[name]), len(w))
				}
			}
			if ledger.Captures+ledger.DeadLettered+ledger.Dropped != ledger.Submitted {
				t.Errorf("ledger does not balance: %+v", ledger)
			}
			if ledger.Captures != baseStats.Succeeded+baseStats.FailedRecorded {
				t.Errorf("fleet captures = %d, baseline recorded %d",
					ledger.Captures, baseStats.Succeeded+baseStats.FailedRecorded)
			}
			if ledger.DeadLettered != baseStats.DeadLettered {
				t.Errorf("fleet dead-lettered = %d, baseline %d", ledger.DeadLettered, baseStats.DeadLettered)
			}
			if ingStats.NextSeq != ledger.Submitted {
				t.Errorf("ingest cursor = %d, want %d (every range committed or skipped)",
					ingStats.NextSeq, ledger.Submitted)
			}
			if tc.crashStage == "pushed" && ingStats.Duplicates == 0 {
				t.Error("crash-after-push run saw no ingest duplicates; idempotency went unexercised")
			}
		})
	}
}

// TestVantageAgreement (satellite 1): CrawlDay, StreamPlatform, and the
// fleet worker path all assign vantages through the shared helper, so a
// capture of the same share gets the same vantage everywhere.
func TestVantageAgreement(t *testing.T) {
	w := fleetWorld()
	feed := fleetFeed(w)
	shares := feed.Day(0)
	if len(shares) == 0 {
		t.Fatal("no shares")
	}

	// Reference assignments through the shared helper.
	src := crawler.VantageSource(fleetSeed)
	wantVantage := make(map[string]string, len(shares))
	for _, s := range shares {
		wantVantage[s.URL] = crawler.PickVantage(src, s.URL, 0).Name
	}

	// CrawlDay path.
	batch := capture.NewMemStore()
	crawler.NewPlatform(w, crawler.Config{Seed: fleetSeed, Workers: 4}).CrawlDay(0, shares, batch)
	for _, c := range batch.All() {
		if c.Vantage.Name != wantVantage[c.SeedURL] {
			t.Fatalf("CrawlDay vantage for %s = %s, helper says %s", c.SeedURL, c.Vantage.Name, wantVantage[c.SeedURL])
		}
	}

	// StreamPlatform path.
	stream := capture.NewMemStore()
	p := crawler.NewStreamPlatform(fleetWorld(), crawler.StreamConfig{Seed: fleetSeed, Workers: 4, PerDomainDelay: time.Millisecond})
	done := make(chan struct{})
	go func() { defer close(done); p.Run(context.Background(), stream) }()
	for _, s := range shares {
		if err := p.Submit(context.Background(), 0, s); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	<-done
	for _, c := range stream.All() {
		if c.Vantage.Name != wantVantage[c.SeedURL] {
			t.Fatalf("StreamPlatform vantage for %s = %s, helper says %s", c.SeedURL, c.Vantage.Name, wantVantage[c.SeedURL])
		}
	}
}

// TestWorkerPatience: a worker facing a vanished coordinator must give
// up after its patience window instead of retrying forever — the
// coordinator exits right after draining, so a worker that was idle at
// that moment never receives a drained frame.
func TestWorkerPatience(t *testing.T) {
	srv := httptest.NewServer(nil)
	srv.Close() // nothing listens: every request is a transport error
	w, err := NewWorker(WorkerConfig{
		ID:          "impatient",
		Coordinator: NewClient(srv.URL),
		Push:        func(trace string, at, n int64, caps []*capture.Capture) error { return nil },
		World:       fleetWorld(),
		Patience:    200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = w.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("want unreachable error, got %v", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("worker took %v to give up, want ~patience", d)
	}
}
