package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/analytics"
	"repro/internal/capstore"
	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/cmps"
	"repro/internal/ring"
	"repro/internal/simtime"
)

// lookupsPerSweep is the query client's mix: a cold bootstrap, one
// full sweep, then this many indexed lookups.
const lookupsPerSweep = 150

// archiveStats accumulates the archive phase.
type archiveStats struct {
	bootstrapS    []float64
	sweepRate     []float64 // records/s, one per sweep
	sweepMS       []float64
	lookupMS      []float64
	commits       []opSample
	sweeps        int64
	lookups       int64
	lookupResults int64
	readRecords   int64 // records returned by sweeps, lookups and bootstraps
	rowsScanned   int64 // store rows the lookups scanned
	failed        int64
	attempted     int64
}

// runArchive serves the archive stores behind the ring and, for d,
// loops rounds of a cold follower bootstrap, a full replica.Reader
// sweep and indexed lookups, while a trickle of writes arrives open
// loop the whole time. A round takes about a second, so the load the
// trickle sees is the same mix throughout the phase. Lookups go to the
// nodes' indexed /query: replica.Reader scans every shard, so a lookup
// through it is a full sweep.
func runArchive(ctx context.Context, e *env, m *meters, d time.Duration) (*archiveStats, error) {
	as := &archiveStats{}
	cl, err := startCluster(e.stores, m)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	cl.startCompactors(capstore.CompactConfig{
		MinTailBytes:    e.p.CompactTailBytes,
		Interval:        e.p.CompactInterval,
		PaceBytesPerSec: e.p.CompactPace,
	})
	before := cl.storeStats()
	src := ringSource{c: cl, m: m}
	reader := cl.writer.Reader()
	lastDay := e.p.ArchiveFrom + simtime.Day(e.p.ArchiveDays) - 1

	start := time.Now()
	end := start.Add(d)

	// The trickle: pre-rendered captures through the writer at a fixed
	// rate from two senders, timed from due time to quorum
	// acknowledgement. Unordered pushes commit on arrival and return at
	// their quorum; ordered ones could return buffered, before it.
	var tw sync.WaitGroup
	tw.Add(1)
	go func() {
		defer tw.Done()
		b, off := int64(e.p.TrickleBatch), e.trickleUsed
		as.commits = newOpenLoop(start, e.p.TrickleRate).run(ctx, 2, end, func(i int64) error {
			lo, hi := off+i*b, off+(i+1)*b
			if hi > int64(len(e.trickle)) {
				return fmt.Errorf("trickle exhausted at push %d", i)
			}
			t0 := time.Now()
			_, err := cl.writer.RecordBatch(e.trickle[lo:hi])
			m.tr.Add(0, 0, "replica.push", lo, t0, time.Now())
			return err
		})
	}()

	var runErr error
	var first, last *bootRun
	for runErr == nil && (as.sweeps == 0 || time.Now().Before(end)) {
		br, err := bootstrap(src, m, int64(len(as.bootstrapS)))
		if err != nil {
			runErr = err
			break
		}
		as.bootstrapS = append(as.bootstrapS, br.seconds)
		as.readRecords += br.eng.Cursor()
		if first == nil {
			first = br
		}
		last = br

		as.attempted++
		t0 := time.Now()
		n := 0
		err = reader.Query(capturedb.Query{To: lastDay, HasTo: true, IncludeFailed: true}, 0, 0, func(*capture.Capture) bool {
			n++
			return true
		})
		t1 := time.Now()
		m.tr.Add(0, 0, "replica.sweep", as.sweeps, t0, t1)
		as.sweeps++
		if err != nil || n != e.archiveLen {
			as.failed++
			runErr = fmt.Errorf("sweep returned %d records, the archive holds %d (err %v)", n, e.archiveLen, err)
			break
		}
		as.sweepMS = append(as.sweepMS, ms(t1.Sub(t0)))
		as.sweepRate = append(as.sweepRate, float64(n)/t1.Sub(t0).Seconds())
		as.readRecords += int64(n)
		scanBefore := cl.storeStats().RowsScanned
		for j := 0; j < lookupsPerSweep && time.Now().Before(end); j++ {
			lk := e.lookups.next()
			as.attempted++
			t0 := time.Now()
			got, err := cl.query(lk)
			t1 := time.Now()
			m.tr.Add(0, 0, "replica.lookup", as.lookups, t0, t1)
			as.lookups++
			if err != nil || got != lk.want {
				as.failed++
				runErr = fmt.Errorf("lookup %+v returned %d, want %d (err %v)", lk.q, got, lk.want, err)
				break
			}
			as.lookupMS = append(as.lookupMS, ms(t1.Sub(t0)))
			as.lookupResults += int64(got)
			as.readRecords += int64(got)
		}
		as.rowsScanned += cl.storeStats().RowsScanned - scanBefore
	}
	tw.Wait()
	e.trickleUsed += int64(len(as.commits) * e.p.TrickleBatch)
	if runErr != nil {
		return as, runErr
	}
	for _, s := range as.commits {
		as.attempted++
		if s.Err != nil {
			as.failed++
			return as, fmt.Errorf("trickle push: %w", s.Err)
		}
	}
	m.addStoreDelta(before, cl.storeStats())

	// Gate: the bootstrapped views equal a batch fold over the same
	// ring up to the same cursors.
	for _, br := range []*bootRun{first, last} {
		src := cappedSource{Source: ringSource{c: cl, m: newMeters(nil)}, cursors: br.eng.ShardCursors()}
		if err := sameViews(br.eng, src); err != nil {
			as.failed++
			return as, fmt.Errorf("bootstrap: %w", err)
		}
	}
	return as, nil
}

// bootRun is one cold bootstrap.
type bootRun struct {
	eng     *analytics.Engine
	seconds float64
}

// bootstrap folds the ring from cursor 0 until it covers every record
// committed when it started, then renders every view: the batch
// `analyze -store` job against the live ring.
func bootstrap(src ringSource, m *meters, key int64) (*bootRun, error) {
	eng := analytics.NewEngine(analytics.Config{})
	fol := analytics.NewFollower(analytics.FollowerConfig{Source: src, Engine: eng, BatchSize: followBatch})
	t0 := time.Now()
	counts, err := src.Counts()
	if err != nil {
		return nil, err
	}
	var target int64
	for _, n := range counts {
		target += int64(n)
	}
	for eng.Cursor() < target {
		if _, err := sweepAndRender(fol, eng, m, key, false); err != nil {
			return nil, err
		}
	}
	if _, err := eng.SnapshotAll(); err != nil {
		return nil, err
	}
	t1 := time.Now()
	m.tr.Add(0, 0, "analytics.bootstrap", key, t0, t1)
	return &bootRun{eng: eng, seconds: t1.Sub(t0).Seconds()}, nil
}

// cappedSource is a Source cut at fixed per-shard cursors: the store
// as a bootstrap saw it, while writes continue.
type cappedSource struct {
	analytics.Source
	cursors map[int]int64
}

// Counts reports the shards' counts, capped at the cursors.
func (c cappedSource) Counts() ([]int, error) {
	counts, err := c.Source.Counts()
	for s := range counts {
		counts[s] = min(counts[s], int(c.cursors[s]))
	}
	return counts, err
}

// lookup is one indexed query: a domain, asked of the node the ring
// places its shard on first, or a CMP host on one day, asked of every
// node, each answering only for the shards it is first replica of
// (as a ring-aware client merges per-node results). want is the answer
// the archive implies.
type lookup struct {
	q    capturedb.Query
	node string // "" asks every node
	want int
}

// lookupMix draws indexed queries, three domains to one CMP-host day,
// each Zipf-skewed over its archive popularity.
type lookupMix struct {
	domains, hosts []lookup
	zd, zh         *rand.Zipf
	i              int
}

func (l *lookupMix) next() lookup {
	l.i++
	if l.i%4 != 0 || len(l.hosts) == 0 {
		return l.domains[l.zd.Uint64()]
	}
	return l.hosts[l.zh.Uint64()]
}

// query runs one lookup through the nodes' indexed /query path and
// counts the records it returns.
func (c *cluster) query(lk lookup) (int, error) {
	if lk.node != "" {
		n := 0
		err := c.byName[lk.node].cl.Query(lk.q, 0, 0, func(*capture.Capture) bool { n++; return true })
		return n, err
	}
	rg := c.writer.Ring()
	n := 0
	for _, nd := range c.nodes {
		err := nd.cl.Query(lk.q, 0, 0, func(cp *capture.Capture) bool {
			if rg.PlaceSegment(capstore.ShardOf(cp.FinalDomain, c.shards))[0] == nd.name {
				n++
			}
			return true
		})
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// lookupsOf ranks the archive's domains, and its CMP hosts per day, by
// how many successful captures name them, and precomputes each
// query's answer.
func lookupsOf(archive []*capture.Capture, rg *ring.Ring, shards int, lastDay simtime.Day, seed uint64) *lookupMix {
	domains := make(map[string]int)
	hostDays := make(map[string]int)
	cmpHosts := make(map[string]bool)
	for _, id := range cmps.All() {
		cmpHosts[id.Hostname()] = true
	}
	for _, c := range archive {
		if c.Failed {
			continue
		}
		domains[c.FinalDomain]++
		seen := make(map[string]bool)
		for _, r := range c.Requests {
			if cmpHosts[r.Host] && !seen[r.Host] {
				seen[r.Host] = true
				hostDays[r.Host+"\x1f"+strconv.Itoa(int(c.Day))]++
			}
		}
	}
	ranked := func(counts map[string]int) []string {
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if counts[keys[i]] != counts[keys[j]] {
				return counts[keys[i]] > counts[keys[j]]
			}
			return keys[i] < keys[j]
		})
		return keys
	}
	mix := &lookupMix{}
	for _, d := range ranked(domains) {
		mix.domains = append(mix.domains, lookup{
			q:    capturedb.Query{Domain: d, To: lastDay, HasTo: true},
			node: rg.PlaceSegment(capstore.ShardOf(d, shards))[0],
			want: domains[d],
		})
	}
	for _, k := range ranked(hostDays) {
		host, dayStr, _ := strings.Cut(k, "\x1f")
		day, _ := strconv.Atoi(dayStr)
		mix.hosts = append(mix.hosts, lookup{
			q:    capturedb.Query{RequestHost: host, From: simtime.Day(day), To: simtime.Day(day), HasTo: true},
			want: hostDays[k],
		})
	}
	// Zipf with exponent 1.1; v=10 flattens the head, so no single
	// key's size, which changes with the seed, dominates the mix.
	r := rand.New(rand.NewSource(int64(seed)))
	mix.zd = rand.NewZipf(r, 1.1, 10, uint64(len(mix.domains)-1))
	if len(mix.hosts) > 1 {
		mix.zh = rand.NewZipf(r, 1.1, 10, uint64(len(mix.hosts)-1))
	} else {
		mix.hosts = nil
	}
	return mix
}
