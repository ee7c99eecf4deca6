package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/analytics"
	"repro/internal/capstore"
	"repro/internal/capture"
	"repro/internal/fleet"
	"repro/internal/resilience"
)

// fleetd's defaults: the crawl runs the coordinator as shipped.
const (
	leaseSize      = 32
	leaseTTL       = 10 * time.Second
	leaseBudget    = 3
	maxLeases      = 64
	workerRetries  = 3
	politenessMS   = 2
	followPoll     = 250 * time.Millisecond // analyzed's default -poll
	followBatch    = 256                    // analyzed's default -batch
	crawlWorkers   = 2
	convergeWithin = 30 * time.Second
)

// crawlStats accumulates the crawl phase over its drains.
// capturesPerSec pools the drains: each drain's end is quantized to
// the follower's poll, and pooling averages that out.
type crawlStats struct {
	drains       int
	drainSeconds float64   // summed first grant → final cursor visible
	visibleMS    []float64 // one per lease that committed records
	captures     int64
	leases       int64
	regrants     int64
	leaseExpired int64 // shares dead-lettered by the coordinator
	webRefused   int64 // shares the modelled web refused past the retry budget
	pushFailures int64 // sheds and quorum timeouts seen by pushers
	pushes       int64
	lagMax       int64
}

// render is one rendered set of views and the cursors it covers.
type render struct {
	at      time.Time
	cursors map[int]int64
	total   int64
}

// pushRec is a lease's first successful push: its range, the grant it
// was crawled under, and its captures.
type pushRec struct {
	at    int64
	grant time.Time
	caps  []*capture.Capture
}

func (cs *crawlStats) capturesPerSec() float64 {
	if cs.drainSeconds <= 0 {
		return 0
	}
	return float64(cs.captures) / cs.drainSeconds
}

// runCrawl drains the crawl window again and again until d has passed
// (at least once), each time on fresh stores, coordinator and follower.
func runCrawl(ctx context.Context, e *env, m *meters, d time.Duration) (*crawlStats, error) {
	cs := &crawlStats{}
	end := time.Now().Add(d)
	for cs.drains == 0 || time.Now().Before(end) {
		dir := filepath.Join(e.dir, fmt.Sprintf("crawl-%d", cs.drains))
		err := drainOnce(ctx, e, m, dir, cs)
		os.RemoveAll(dir)
		if err != nil {
			return cs, fmt.Errorf("crawl drain %d: %w", cs.drains, err)
		}
		cs.drains++
	}
	return cs, nil
}

// drainOnce runs one fleet drain of the window through the ring into
// a live follower and checks the crawl gates.
func drainOnce(ctx context.Context, e *env, m *meters, dir string, cs *crawlStats) error {
	var stores []*capstore.Store
	for _, name := range nodeNames {
		st, err := capstore.Create(filepath.Join(dir, name), e.p.Shards)
		if err != nil {
			return err
		}
		stores = append(stores, st)
	}
	defer closeStores(stores)
	cl, err := startCluster(stores, m)
	if err != nil {
		return err
	}
	defer cl.Close()
	cl.startCompactors(capstore.CompactConfig{
		MinTailBytes:    e.p.CompactTailBytes,
		Interval:        e.p.CompactInterval,
		PaceBytesPerSec: e.p.CompactPace,
	})

	deadLetters := resilience.NewMemDeadLetter()
	co, err := fleet.NewCoordinator(e.items, fleet.CoordinatorConfig{
		LeaseSize:        leaseSize,
		LeaseTTL:         leaseTTL,
		LeaseRetryBudget: leaseBudget,
		MaxActiveLeases:  maxLeases,
		Skip: func(at, n int64) error {
			_, err := cl.writer.RecordBatchAt(at, n, nil)
			return err
		},
		DeadLetter: deadLetters,
	})
	if err != nil {
		return err
	}
	defer co.Close()
	rc := fleet.RunConfig{
		WorldSeed:     e.seed,
		WorldDomains:  e.p.Domains,
		CrawlSeed:     e.seed,
		RetryAttempts: workerRetries,
		PolitenessMS:  politenessMS,
	}
	coord, err := serve(fleet.NewHandler(co, rc, fleet.ServerConfig{MaxInFlight: 2 * maxLeases}))
	if err != nil {
		return err
	}
	defer coord.Close()

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var bg sync.WaitGroup
	defer bg.Wait()
	defer cancel()

	// fleetd's lease sweeper: half the TTL.
	bg.Add(1)
	go func() {
		defer bg.Done()
		t := time.NewTicker(leaseTTL / 2)
		defer t.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-co.Done():
				return
			case <-t.C:
				co.Sweep()
			}
		}
	}()

	// analyzed's follow loop, rendering the views after every sweep
	// that applied records, as a client polling /view would.
	eng := analytics.NewEngine(analytics.Config{})
	src := ringSource{c: cl, m: m}
	fol := analytics.NewFollower(analytics.FollowerConfig{Source: src, Engine: eng, PollInterval: followPoll, BatchSize: followBatch})
	var (
		rmu     sync.Mutex
		renders []render
		lagMax  int64
		sweeps  int64
	)
	bg.Add(1)
	go func() {
		defer bg.Done()
		t := time.NewTicker(followPoll)
		defer t.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-t.C:
			}
			n, err := sweepAndRender(fol, eng, m, sweeps, true)
			sweeps++
			rmu.Lock()
			lagMax = max(lagMax, fol.Lag())
			if err == nil && n > 0 {
				renders = append(renders, render{at: time.Now(), cursors: eng.ShardCursors(), total: eng.Cursor()})
			}
			rmu.Unlock()
		}
	}()

	// Two fleet workers, each with its own coordinator connection.
	var (
		pmu    sync.Mutex
		pushes = make(map[int64]pushRec)
	)
	werrs := make([]error, crawlWorkers)
	var wg sync.WaitGroup
	for i := 0; i < crawlWorkers; i++ {
		probe := &workerProbe{m: m, inner: &http.Transport{MaxIdleConnsPerHost: 1}, world: e.world}
		push := func(trace string, at, n int64, caps []*capture.Capture) error {
			t0 := time.Now()
			grant := probe.chunkEnd(t0)
			_, err := cl.writer.RecordBatchAt(at, n, caps)
			t1 := time.Now()
			m.sample("replica.push_ms", ms(t1.Sub(t0)))
			m.tr.Add(0, 0, "replica.push", at, t0, t1)
			pmu.Lock()
			cs.pushes++
			if err != nil {
				cs.pushFailures++
			} else if _, dup := pushes[at]; !dup {
				pushes[at] = pushRec{at: at, grant: grant, caps: caps}
			}
			pmu.Unlock()
			return err
		}
		w, err := fleet.NewWorker(fleet.WorkerConfig{
			ID:          fmt.Sprintf("w%d", i),
			Coordinator: &fleet.Client{BaseURL: coord.url, HTTP: &http.Client{Transport: probe}},
			Push:        push,
			World:       e.world,
			Run:         rc,
			Visitor:     probe,
			Patience:    convergeWithin,
		})
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			werrs[i] = w.Run(runCtx)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(werrs...); err != nil {
		return fmt.Errorf("fleet worker: %w", err)
	}
	select {
	case <-co.Done():
	default:
		return errors.New("workers exited before the coordinator drained")
	}

	// Gate: the fleet ledger balances.
	l := co.Ledger()
	if l.Captures+l.DeadLettered != l.Submitted || l.Dropped != 0 {
		return fmt.Errorf("ledger does not balance: captures %d + dead %d != submitted %d (dropped %d)",
			l.Captures, l.DeadLettered, l.Submitted, l.Dropped)
	}
	// Gate: every quorum, handoff and delivery settled.
	if err := cl.writer.WaitConverged(convergeWithin); err != nil {
		return err
	}
	if err := cl.checkManifests(); err != nil {
		return err
	}

	recs := make([]pushRec, 0, len(pushes))
	for _, p := range pushes {
		recs = append(recs, p)
	}
	if len(recs) == 0 {
		return errors.New("the drain pushed no captures")
	}
	leaseCover, total := coverage(recs, e.p.Shards)

	// Wait for the view that covers the final cursor.
	deadline := time.Now().Add(convergeWithin)
	var final render
	for {
		rmu.Lock()
		if n := len(renders); n > 0 && renders[n-1].total >= total {
			final = renders[n-1]
		}
		rmu.Unlock()
		if !final.at.IsZero() {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("views never reached cursor %d", total)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	bg.Wait()
	if final.total != total {
		return fmt.Errorf("views reached cursor %d, the ring holds %d records", final.total, total)
	}

	// Gate: the served views equal a batch fold over the same ring.
	if err := sameViews(eng, ringSource{c: cl, m: newMeters(nil)}); err != nil {
		return err
	}

	visible, err := visibleMS(recs, leaseCover, renders)
	if err != nil {
		return err
	}
	cs.visibleMS = append(cs.visibleMS, visible...)
	firstGrant := recs[0].grant
	for _, r := range recs {
		if r.grant.Before(firstGrant) {
			firstGrant = r.grant
		}
	}
	cs.drainSeconds += final.at.Sub(firstGrant).Seconds()
	m.addStoreDelta(capstore.Stats{}, cl.storeStats())
	cs.captures += l.Captures
	cs.leases += l.Leases
	cs.regrants += l.Reassigned
	expired := int64(deadLetters.ByReason()[fleet.ReasonLeaseExpired])
	cs.leaseExpired += expired
	cs.webRefused += l.DeadLettered - expired
	cs.lagMax = max(cs.lagMax, lagMax)
	return nil
}

// coverage sorts the pushes into the canonical commit order (range
// order, deduplicated by ingest key as every node's ingester does) and
// returns, per push, the per-shard record counts committed up to and
// including it, and the total.
func coverage(recs []pushRec, shards int) ([]map[int]int64, int64) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].at < recs[j].at })
	seen := make(map[string]bool)
	cum := make(map[int]int64)
	var total int64
	out := make([]map[int]int64, len(recs))
	for i, r := range recs {
		for _, c := range r.caps {
			if k := capstore.IngestKey(c); !seen[k] {
				seen[k] = true
				cum[capstore.ShardOf(c.FinalDomain, shards)]++
				total++
			}
		}
		out[i] = copyCursors(cum)
	}
	return out, total
}

// visibleMS is seen-to-visible per lease: from its grant to the first
// rendered view whose shard cursors cover everything committed up to
// its range. Leases that committed nothing new are skipped.
func visibleMS(recs []pushRec, leaseCover []map[int]int64, renders []render) ([]float64, error) {
	var out []float64
	ri := 0
	for i, r := range recs {
		if i > 0 && sameCursors(leaseCover[i], leaseCover[i-1]) {
			continue
		}
		for ri < len(renders) && !covers(renders[ri].cursors, leaseCover[i]) {
			ri++
		}
		if ri == len(renders) {
			return nil, fmt.Errorf("no rendered view covers the lease at %d", r.at)
		}
		out = append(out, ms(renders[ri].at.Sub(r.grant)))
	}
	return out, nil
}

// sweepAndRender is one follower poll: Follower.Sweep, then
// Engine.SnapshotAll when it applied records. Sweep and render times
// are sampled for live follows only; fold cost for bootstraps too.
func sweepAndRender(fol *analytics.Follower, eng *analytics.Engine, m *meters, key int64, live bool) (int64, error) {
	t0 := time.Now()
	n, err := fol.Sweep()
	t1 := time.Now()
	m.sweepNanos.Add(int64(t1.Sub(t0)))
	if err != nil || n == 0 {
		return n, err
	}
	m.sample("analytics.fold_us_per_record", float64(t1.Sub(t0))/1e3/float64(n))
	m.tr.Add(0, 0, "analytics.sweep", key, t0, t1)
	if live {
		m.sample("analytics.sweep_ms", ms(t1.Sub(t0)))
	}
	if _, err := eng.SnapshotAll(); err != nil {
		return n, err
	}
	t2 := time.Now()
	if live {
		m.sample("analytics.render_ms", ms(t2.Sub(t1)))
	}
	m.tr.Add(0, 0, "analytics.render", key, t1, t2)
	return n, nil
}

// sameViews folds src from scratch (the batch path) and compares every
// view with eng's, byte for byte, at the same cursor.
func sameViews(eng *analytics.Engine, src analytics.Source) error {
	batch := analytics.NewEngine(analytics.Config{})
	if err := analytics.NewFollower(analytics.FollowerConfig{Source: src, Engine: batch}).Bootstrap(); err != nil {
		return err
	}
	return equalViews(eng, batch)
}

// equalViews compares two engines' cursors and rendered views.
func equalViews(got, want *analytics.Engine) error {
	if got.Cursor() != want.Cursor() {
		return fmt.Errorf("views at cursor %d, batch at %d", got.Cursor(), want.Cursor())
	}
	a, err := got.SnapshotAll()
	if err != nil {
		return err
	}
	b, err := want.SnapshotAll()
	if err != nil {
		return err
	}
	for name, v := range b {
		if !bytes.Equal(a[name], v) {
			return fmt.Errorf("view %s differs from the batch fold at cursor %d", name, want.Cursor())
		}
	}
	return nil
}

func copyCursors(m map[int]int64) map[int]int64 {
	out := make(map[int]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func sameCursors(a, b map[int]int64) bool {
	return covers(a, b) && covers(b, a)
}

// covers reports whether cursors reach need on every shard.
func covers(cursors, need map[int]int64) bool {
	for s, n := range need {
		if cursors[s] < n {
			return false
		}
	}
	return true
}
