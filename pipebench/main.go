// Command pipebench is the end-to-end benchmark of the capture
// pipeline: one process hosts, over loopback HTTP, the daemons' wiring
// — fleet coordinator and workers, the replica writer over three capd
// nodes with compactors, the analytics follower, and the consent
// decision server — and drives it with inputs generated from a seed.
//
//	pipebench --workload crawl|archive --seed N --seconds S --trace 0|1
//
// Every run measures three phases (decide, crawl, archive); the
// workload decides which of crawl and archive gets 40% of the
// measured time, the other two phases 30% each. The last line
// of standard output is one JSON object: the end-to-end metrics, or with --trace 1 the
// per-layer metrics. Correctness gates that fail make it exit 1.
// README.md beside this file explains the workloads and the metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// workloads are the values of --workload: the phase that gets the
// largest share of the measured time.
var workloads = []string{"crawl", "archive"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dir      string // where .bench_run/ and .bench_out/ go
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pipebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "crawl or archive")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed: world, feed, archive and consent population derive from it")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds (set-up and checks come on top)")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	o.dir = "."
	if !validWorkload(o.workload) || o.seconds <= 0 || o.seed == 0 {
		fmt.Fprintln(stderr, "pipebench: need --workload crawl|archive, --seed > 0 and --seconds > 0")
		return 2
	}
	res, err := runWorkload(o, defaultParams(), stderr)
	if res != nil {
		line, _ := json.Marshal(res)
		fmt.Fprintln(stdout, string(line))
	}
	if err != nil {
		fmt.Fprintln(stderr, "pipebench:", err)
		return 1
	}
	return 0
}

func validWorkload(w string) bool {
	for _, x := range workloads {
		if x == w {
			return true
		}
	}
	return false
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phases is one pass over the three phases.
type phases struct {
	crawl   *crawlStats
	archive *archiveStats
	decide  *decideStats

	// Traced runs only.
	baseRate float64    // the workload's phase throughput, untraced
	traced   []interval // each traced phase, in trace time
	profiles [][]byte   // each traced phase's CPU profile
}

// durations splits the measured time: the workload's own phase gets
// 40%, the others 30% each. Every phase's tails need enough stall
// events (GC cycles, sweeps) in every run to be steady, so the phases
// a workload does not name are not much shorter than its own.
func durations(workload string, seconds float64) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, w := range phaseOrder {
		share := 0.3
		if w == workload {
			share = 0.4
		}
		out[w] = time.Duration(share * seconds * float64(time.Second))
	}
	return out
}

// runWorkload sets up, runs the phases and checks the gates. A gate
// failure returns the result with Correct false and the error.
func runWorkload(o options, p params, log io.Writer) (*result, error) {
	// A run must end within three minutes, set-up and checks included.
	ctx, cancel := context.WithTimeout(context.Background(), 165*time.Second)
	defer cancel()
	dur := durations(o.workload, o.seconds)
	// Enough trickle captures for every archive phase of the run.
	archivePasses := 1.0
	if o.trace {
		archivePasses = 2
	}
	need := p.TrickleRate * float64(p.TrickleBatch) * dur["archive"].Seconds() * archivePasses * 1.3
	p.TrickleDays = int(need/(0.8*float64(p.SharesPerDay))) + 1

	root, err := filepath.Abs(filepath.Join(o.dir, ".bench_run", fmt.Sprintf("%s-%d", o.workload, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	// Set up several times; setup_s is the median, the last env runs.
	var setupS []float64
	var e *env
	for i := 0; i < p.SetupRepeats; i++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		t0 := time.Now()
		e, err = setup(p, o.seed, filepath.Join(root, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer e.close()
	fmt.Fprintf(log, "pipebench: %s seed %d: world %d domains, crawl window %d shares, archive %d records (+%d trickle), population %d strings, cache %d strings; setup %.3fs (median of %d)\n",
		o.workload, o.seed, p.Domains, len(e.items), e.archiveLen, len(e.trickle), p.Population, p.CacheStrings, median(setupS), len(setupS))

	var tr *Tracer
	if o.trace {
		tr = newTracer()
	}
	m := newMeters(tr)
	ph, err := runPhases(ctx, e, m, o, dur)
	if !o.trace {
		res := endToEnd(ph, setupS, log)
		res.Correct = err == nil
		return res, err
	}
	if err != nil {
		return &result{Metrics: map[string]metric{}}, err
	}
	out := filepath.Join(o.dir, ".bench_out", fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if err := tr.WriteFile(out + ".spans.tsv"); err != nil {
		return nil, err
	}
	for i, prof := range ph.profiles {
		if err := os.WriteFile(fmt.Sprintf("%s.%s.cpu.pprof", out, phaseOrder[i]), prof, 0o644); err != nil {
			return nil, err
		}
	}
	res, err := perLayer(ph, o.workload, m, e, log)
	if err != nil {
		return nil, err
	}
	res.Correct = true
	return res, nil
}

// phaseOrder runs decide first and archive last: each phase's inputs
// are dropped after its last run (env.release), so the archive phase,
// whose tails are the most sensitive to garbage-collection work, runs
// on the smallest heap.
var phaseOrder = []string{"decide", "crawl", "archive"}

// runPhases runs every phase once. A traced run splits the workload's
// own phase into an untraced half, the tracing-overhead baseline, and
// a traced half, and profiles the CPU during each traced phase.
func runPhases(ctx context.Context, e *env, m *meters, o options, dur map[string]time.Duration) (*phases, error) {
	ph := &phases{}
	for _, w := range phaseOrder {
		d := dur[w]
		if o.trace && w == o.workload {
			// Half the phase untraced, half traced: a traced run takes
			// as long as an untraced one.
			d /= 2
			base, err := runPhase(ctx, e, newMeters(nil), w, d)
			if err != nil {
				return ph, fmt.Errorf("%s phase, untraced: %w", w, err)
			}
			ph.baseRate = throughput(base, w)
		}
		var prof bytes.Buffer
		if o.trace {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return ph, err
			}
		}
		t0 := time.Now()
		one, err := runPhase(ctx, e, m, w, d)
		ph.traced = append(ph.traced, interval{m.tr.since(t0), m.tr.since(time.Now())})
		if o.trace {
			pprof.StopCPUProfile()
			ph.profiles = append(ph.profiles, prof.Bytes())
		}
		ph.merge(one)
		if err != nil {
			return ph, fmt.Errorf("%s phase: %w", w, err)
		}
		e.release(w)
	}
	return ph, nil
}

func runPhase(ctx context.Context, e *env, m *meters, w string, d time.Duration) (*phases, error) {
	ph := &phases{}
	var err error
	rt := readRuntime()
	switch w {
	case "crawl":
		ph.crawl, err = runCrawl(ctx, e, m, d)
	case "archive":
		ph.archive, err = runArchive(ctx, e, m, d)
	case "decide":
		ph.decide, err = runDecide(ctx, e, m, d)
	}
	m.runtimeDelta(w, rt, readRuntime())
	return ph, err
}

func (ph *phases) merge(o *phases) {
	if o.crawl != nil {
		ph.crawl = o.crawl
	}
	if o.archive != nil {
		ph.archive = o.archive
	}
	if o.decide != nil {
		ph.decide = o.decide
	}
}

// attempts sums the operations and failures of every phase that ran.
func (ph *phases) attempts() (attempted, failed int64) {
	if c := ph.crawl; c != nil {
		attempted += c.leases + c.pushes
		failed += c.regrants + c.pushFailures + c.leaseExpired
	}
	if a := ph.archive; a != nil {
		attempted += a.attempted
		failed += a.failed
	}
	if d := ph.decide; d != nil {
		attempted += d.attempted
		failed += d.failed
	}
	return attempted, failed
}

// endToEnd reduces an untraced run to the end-to-end metrics and
// prints every timing's sample count and tail percentile to log.
func endToEnd(ph *phases, setupS []float64, log io.Writer) *result {
	mt := map[string]metric{
		"setup_s":     {median(setupS), "s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
	tail := func(prefix string, xs []float64) {
		s, all := sliced(xs, 0.99), summarize(xs, 0.99)
		mt[prefix+"_p50_ms"] = metric{s.P50, "ms"}
		mt[prefix+"_p99_ms"] = metric{s.Tail, "ms"}
		fmt.Fprintf(log, "pipebench: %-8s n=%-6d sliced p50=%.3fms p%.1f=%.3fms; pooled p50=%.3fms p%.1f=%.3fms\n",
			prefix, s.N, s.P50, 100*s.TailQ, s.Tail, all.P50, 100*all.TailQ, all.Tail)
	}
	if c := ph.crawl; c != nil {
		mt["captures_per_s"] = metric{c.capturesPerSec(), "1/s"}
		tail("visible", c.visibleMS)
		fmt.Fprintf(log, "pipebench: crawl: %d drains, %d captures, %d leases (%d re-granted), %d shares refused by the modelled web, %d lease-expired\n",
			c.drains, c.captures, c.leases, c.regrants, c.webRefused, c.leaseExpired)
	}
	if a := ph.archive; a != nil {
		mt["bootstrap_s"] = metric{median(a.bootstrapS), "s"}
		mt["sweep_records_per_s"] = metric{median(a.sweepRate), "1/s"}
		tail("lookup", a.lookupMS)
		tail("commit", latencies(a.commits))
		fmt.Fprintf(log, "pipebench: archive: %d bootstraps, %d sweeps, %d lookups, %d trickle pushes\n",
			len(a.bootstrapS), a.sweeps, a.lookups, len(a.commits))
	}
	if d := ph.decide; d != nil {
		mt["decisions_per_s"] = metric{d.decisionsPerSec, "1/s"}
		tail("decide", latencies(d.latency))
		fmt.Fprintf(log, "pipebench: decide: %d decisions, cache hit ratio %.3f (%d compiles), %d validated; closed-loop rounds %.0f/s\n",
			d.decisions, d.cache.HitRatio(), d.cache.Misses, d.validated, d.roundRates)
	}
	res := &result{Metrics: mt}
	res.Attempted, res.Failed = ph.attempts()
	return res
}

func latencies(ops []opSample) []float64 {
	out := make([]float64, 0, len(ops))
	for _, o := range ops {
		out = append(out, ms(o.Latency))
	}
	return out
}

func lateness(ops []opSample) []float64 {
	out := make([]float64, 0, len(ops))
	for _, o := range ops {
		out = append(out, ms(o.Late))
	}
	return out
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// throughput is the workload's own headline rate, for the tracing
// overhead comparison.
func throughput(ph *phases, workload string) float64 {
	switch workload {
	case "crawl":
		return ph.crawl.capturesPerSec()
	case "archive":
		return median(ph.archive.sweepRate)
	default:
		return ph.decide.decisionsPerSec
	}
}

// perLayer reduces a traced run to the per-layer metrics.
func perLayer(ph *phases, workload string, m *meters, e *env, log io.Writer) (*result, error) {
	mt := make(map[string]metric)
	put := func(name, unit string, v float64) { mt[name] = metric{v, unit} }
	sum := func(xs []float64) float64 {
		var t float64
		for _, x := range xs {
			t += x
		}
		return t
	}
	mean := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return sum(xs) / float64(len(xs))
	}

	c, a, d := ph.crawl, ph.archive, ph.decide
	put("fleet.grant_ms", "ms", median(m.series("fleet.grant_ms")))
	put("fleet.regrants", "count", float64(c.regrants))
	put("webworld.visit_us", "us", float64(m.visitNanos.Load())/1e3/float64(max(m.visits.Load(), 1)))
	put("webworld.visits_per_capture", "ratio", float64(m.visits.Load())/float64(max(c.captures, 1)))
	put("crawler.chunk_ms", "ms", median(m.series("crawler.chunk_ms")))
	put("crawler.wait_share", "ratio", mean(m.series("crawler.wait_share")))
	push := summarize(m.series("replica.push_ms"), 0.99)
	put("replica.push_ms_p50", "ms", push.P50)
	put("replica.push_ms_p99", "ms", push.Tail)
	recs := float64(max(m.ingestRecords.Load(), 1))
	put("capstore.ingest_us_per_record", "us", float64(m.ingestNanos.Load())/1e3/recs)
	put("capstore.wire_bytes_per_record", "B", float64(m.ingestBytes.Load())/recs)
	put("capstore.compactions", "count", float64(m.store.Compactions))
	put("capstore.compact_mb", "MB", float64(m.store.PackedBytes)/(1<<20))
	put("capstore.pace_sleep_s", "s", m.store.PaceSleepSeconds)
	put("capstore.open_ms", "ms", median(e.openMS))
	put("capstore.rows_scanned_per_result", "ratio", float64(a.rowsScanned)/float64(max(a.lookupResults, 1)))
	put("replica.sweep_ms", "ms", median(a.sweepMS))
	sw := summarize(m.series("analytics.sweep_ms"), 0.99)
	put("analytics.sweep_ms_p50", "ms", sw.P50)
	put("analytics.sweep_ms_p99", "ms", sw.Tail)
	put("analytics.lag_records_max", "count", float64(c.lagMax))
	put("analytics.fold_us_per_record", "us", median(m.series("analytics.fold_us_per_record")))
	put("analytics.stream_wait_share", "ratio", float64(m.streamNanos.Load())/float64(max(m.sweepNanos.Load(), 1)))
	put("analytics.render_ms", "ms", median(m.series("analytics.render_ms")))
	put("decision.hit_ratio", "ratio", d.cache.HitRatio())
	put("decision.compiles", "count", float64(d.cache.Misses))
	put("decision.handler_us_per_decision", "us", float64(m.decideNanos.Load())/1e3/float64(max(m.decideRequests.Load()*int64(e.p.BatchSize), 1)))
	put("decision.shed", "count", float64(m.decideShed.Load()))
	late := append(lateness(a.commits), lateness(d.latency)...)
	put("gen.late_p99_ms", "ms", summarize(late, 0.99).Tail)
	rt := m.runtime[workload]
	put("runtime.alloc_kb_per_op", "KB", rt.allocBytes/1024/max(ops(ph, workload), 1))
	put("runtime.gc_cpu_share", "ratio", rt.gcShare())

	shares, err := cpuShares(ph.profiles)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for k, v := range shares {
		put(k, "ratio", v)
	}
	spans := m.tr.Spans()
	put("trace.overhead_share", "ratio", 1-throughput(ph, workload)/ph.baseRate)
	put("trace.unattributed_share", "ratio", uncoveredShare(spans, ph.traced))

	// Self time per span name, for the log.
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "pipebench: self %-22s %10.1f ms over %d spans\n", n, ms(self[n]), len(durationsOf(spans, n)))
	}
	res := &result{Metrics: mt}
	res.Attempted, res.Failed = ph.attempts()
	return res, nil
}

// ops counts the workload phase's operations: captures, records read
// and written, or decisions.
func ops(ph *phases, workload string) float64 {
	switch workload {
	case "crawl":
		return float64(ph.crawl.captures)
	case "archive":
		return float64(ph.archive.readRecords + int64(len(ph.archive.commits))*2)
	default:
		return float64(ph.decide.decisions)
	}
}
