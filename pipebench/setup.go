package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/capstore"
	"repro/internal/capture"
	"repro/internal/crawler"
	"repro/internal/decision"
	"repro/internal/fleet"
	"repro/internal/gvl"
	"repro/internal/ring"
	"repro/internal/simtime"
	"repro/internal/socialfeed"
	"repro/internal/webworld"
)

// params sizes a run. defaultParams is what the command runs; tests
// shrink it.
type params struct {
	Domains      int // world size (fleetd's default)
	SharesPerDay int // socialfeed shares per day (fleetd's default)
	Shards       int // segments per capd store

	ArchiveFrom simtime.Day // archive window start
	ArchiveDays int         // archive window length
	TrickleDays int         // days after the archive rendered for trickle writes
	CrawlFrom   simtime.Day // crawl window start (after the trickle days)
	CrawlDays   int         // crawl window length

	CompactTailBytes int64         // compactor size trigger
	CompactPace      int64         // compactor pace, bytes/s
	CompactInterval  time.Duration // compactor trigger poll

	TrickleRate  float64 // archive trickle pushes per second (open loop)
	TrickleBatch int     // captures per trickle push

	Population   int     // consent strings
	CacheStrings int     // compiled-string cache capacity
	Bodies       int     // pre-rendered batch bodies
	BatchSize    int     // decisions per batch request
	DecideRate   float64 // phase-2 offered batch requests per second
	Validate     int     // batches re-checked against the naive decoder

	SetupRepeats int // set-ups per run; setup_s is their median
}

func defaultParams() params {
	return params{
		Domains:      20_000,
		SharesPerDay: 800,
		Shards:       8,

		ArchiveFrom: 500,
		ArchiveDays: 10,
		TrickleDays: 4,
		CrawlFrom:   600,
		CrawlDays:   8,

		CompactTailBytes: 512 << 10,
		CompactPace:      16 << 20,
		CompactInterval:  200 * time.Millisecond,

		TrickleRate:  200,
		TrickleBatch: 1,

		Population:   10_000,
		CacheStrings: 2048,
		Bodies:       512,
		BatchSize:    256,
		DecideRate:   1000,
		Validate:     8,

		SetupRepeats: 3,
	}
}

// env is everything a run builds before any clock starts: the world
// and the crawl window, the archive's stores, the trickle captures, and
// the consent population with its pre-rendered requests.
type env struct {
	p    params
	seed uint64
	dir  string

	world *webworld.World
	items []fleet.WorkItem // the crawl window

	archiveLen int                // records in the archive
	lookups    *lookupMix         // indexed queries with their answers
	trickle    []*capture.Capture // pre-rendered trickle captures
	// trickleUsed counts trickle captures already pushed: a later
	// archive phase continues after them, so every push is new.
	trickleUsed int64
	stores      []*capstore.Store // archive node stores, reopened
	openMS      []float64         // capstore.Open per node

	resolver *decision.Resolver
	load     decision.LoadConfig
	bodies   [][]byte
}

// setup builds an env under dir.
func setup(p params, seed uint64, dir string) (*env, error) {
	e := &env{p: p, seed: seed, dir: dir}
	e.world = webworld.New(webworld.Config{Seed: seed, Domains: p.Domains})
	feed := socialfeed.New(e.world, socialfeed.Config{Seed: seed, SharesPerDay: p.SharesPerDay})

	// The feed's cross-day dedup wants days in order: archive, trickle,
	// then the crawl window.
	plat := crawler.NewPlatform(e.world, crawler.Config{Seed: seed, Workers: 2})
	last := p.ArchiveFrom + simtime.Day(p.ArchiveDays) - 1
	archive := crawlDays(plat, feed, p.ArchiveFrom, last)
	e.trickle = crawlDays(plat, feed, last+1, last+simtime.Day(p.TrickleDays))
	if p.CrawlFrom <= last+simtime.Day(p.TrickleDays) {
		return nil, fmt.Errorf("crawl window must follow the archive and trickle days")
	}
	e.items = fleet.WorkFromFeed(feed, p.CrawlFrom, p.CrawlFrom+simtime.Day(p.CrawlDays)-1)

	rg, err := newRing()
	if err != nil {
		return nil, err
	}
	if err := e.buildArchive(rg, archive); err != nil {
		return nil, err
	}
	// Only the answers are kept: the records themselves would sit in
	// the heap through every phase.
	e.archiveLen = len(archive)
	e.lookups = lookupsOf(archive, rg, p.Shards, last, seed)

	// The GVL is consentd's configuration, not an input: its defaults.
	h := gvl.GenerateHistory(gvl.HistoryConfig{Seed: 1, Versions: 215, PeakVendors: 650})
	e.resolver = decision.NewResolver(gvl.UpgradeHistory(h, gvl.V2UpgradeConfig{FlexibleSeed: 1, FlexibleProb: 0.25}))
	pop, err := decision.GeneratePopulation(decision.PopulationConfig{Seed: seed, Size: p.Population})
	if err != nil {
		return nil, err
	}
	e.load = decision.LoadConfig{Population: pop, Seed: seed, BatchSize: p.BatchSize, Bodies: p.Bodies}
	e.bodies = decision.PrerenderBodies(e.load)
	return e, nil
}

// crawlDays renders the feed's shares for [from, to] through the
// single-process crawler, deduplicated by ingest key as a capd would
// store them.
func crawlDays(plat *crawler.Platform, feed *socialfeed.Feed, from, to simtime.Day) []*capture.Capture {
	mem := capture.NewMemStore()
	plat.CrawlWindow(feed, from, to, mem, nil)
	seen := make(map[string]bool)
	var out []*capture.Capture
	for _, c := range mem.All() {
		if k := capstore.IngestKey(c); !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

// buildArchive writes the archive onto the three node stores by ring
// placement, packs the first 85% of it, appends the rest as a live
// tail, and reopens each store the way capd starts.
func (e *env) buildArchive(rg *ring.Ring, archive []*capture.Capture) error {
	split := len(archive) * 85 / 100
	for _, name := range nodeNames {
		dir := filepath.Join(e.dir, "archive", name)
		st, err := capstore.Create(dir, e.p.Shards)
		if err != nil {
			return err
		}
		record := func(caps []*capture.Capture) {
			for _, c := range caps {
				if slices.Contains(rg.PlaceSegment(capstore.ShardOf(c.FinalDomain, e.p.Shards)), name) {
					st.Record(c)
				}
			}
		}
		record(archive[:split])
		if _, err := st.CompactAll(); err != nil {
			st.Close()
			return err
		}
		record(archive[split:])
		if err := st.Close(); err != nil {
			return err
		}
		t0 := time.Now()
		st, err = capstore.Open(dir)
		if err != nil {
			return err
		}
		e.openMS = append(e.openMS, ms(time.Since(t0)))
		e.stores = append(e.stores, st)
	}
	return nil
}

// release drops the inputs only phase w uses, once it has run for the
// last time, so later phases do not carry them in the heap (the
// daemons would not share one).
func (e *env) release(w string) {
	switch w {
	case "decide":
		e.resolver, e.bodies, e.load = nil, nil, decision.LoadConfig{}
	case "crawl":
		e.world, e.items = nil, nil
	}
}

// close releases the archive stores and the env's directory.
func (e *env) close() {
	closeStores(e.stores)
	os.RemoveAll(e.dir)
}
