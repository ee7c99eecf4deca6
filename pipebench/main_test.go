package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestSummarizeTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted input
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		p50, tail float64
		tailQ     float64
	}{
		{n: 1000, p50: 500, tail: 990, tailQ: 0.99},
		{n: 2000, p50: 1000, tail: 1980, tailQ: 0.99},
		{n: 200, p50: 100, tail: 190, tailQ: 0.95},
		{n: 100, p50: 50, tail: 90, tailQ: 0.9},
		{n: 15, p50: 8, tail: 8, tailQ: 0.5}, // too few: falls back to the median
	} {
		s := summarize(seq(tc.n), 0.99)
		if s.N != tc.n || s.P50 != tc.p50 || s.Tail != tc.tail || math.Abs(s.TailQ-tc.tailQ) > 1e-12 {
			t.Errorf("n=%d: got %+v, want p50 %v tail %v at q %v", tc.n, s, tc.p50, tc.tail, tc.tailQ)
		}
		if tc.n >= 20 {
			beyond := tc.n - int(s.Tail)
			if beyond < minBeyond {
				t.Errorf("n=%d: only %d samples beyond the tail", tc.n, beyond)
			}
		}
	}
	if s := summarize(nil, 0.99); s.N != 0 || s.Tail != 0 {
		t.Errorf("empty: %+v", s)
	}
}

func TestSlicedIgnoresAStallInOneSlice(t *testing.T) {
	// 1000 samples of 1..10ms; a stall makes 30 consecutive ones 500ms.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1 + i%10)
	}
	for i := 100; i < 130; i++ {
		xs[i] = 500
	}
	pooled, s := summarize(xs, 0.99), sliced(xs, 0.99)
	if pooled.Tail != 500 {
		t.Fatalf("pooled tail %v, want the stall", pooled.Tail)
	}
	if s.Tail != 10 || s.P50 != 5 || s.N != 1000 {
		t.Errorf("sliced %+v, want p50 5 and tail 10 over 1000 samples", s)
	}
	if want := 1 - float64(minBeyond)/200; math.Abs(s.TailQ-want) > 1e-12 {
		t.Errorf("tail taken at %v, want %v for five 200-sample slices", s.TailQ, want)
	}
	// Too few samples for two slices: pooled.
	if got, want := sliced(xs[:399], 0.99), summarize(xs[:399], 0.99); got != want {
		t.Errorf("short series sliced %+v, pooled %+v", got, want)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "chunk", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "visit", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "visit", Start: 20, End: 50},  // overlaps its sibling
		{ID: 4, Parent: 1, Name: "visit", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Name: "push", Start: 150, End: 160},
	}
	self := selfTimes(spans)
	// chunk: 100 minus the covered [10,50) and [90,100).
	if got := self["chunk"]; got != 50 {
		t.Errorf("chunk self time %v, want 50", got)
	}
	if got := self["visit"]; got != 20+30+30 {
		t.Errorf("visit self time %v, want 80", got)
	}
	// [0,120) and [150,160) covered out of [0,200).
	if got := uncoveredShare(spans, []interval{{0, 200}}); math.Abs(got-0.35) > 1e-12 {
		t.Errorf("uncovered share %v, want 0.35", got)
	}
	// Two windows, [0,50) fully covered and [130,170) a quarter.
	if got := uncoveredShare(spans, []interval{{0, 50}, {130, 170}}); math.Abs(got-30.0/90) > 1e-12 {
		t.Errorf("uncovered share over two windows %v, want %v", got, 30.0/90)
	}
	if got := uncoveredShare(nil, []interval{{0, 10}}); got != 1 {
		t.Errorf("uncovered share without spans %v, want 1", got)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// One sender, an operation due every 10ms, each taking 25ms: the
	// generator falls behind, and every later operation's lateness and
	// latency include the queueing behind the earlier ones.
	start := time.Now()
	loop := newOpenLoop(start, 100)
	const took = 25 * time.Millisecond
	ops := loop.run(context.Background(), 1, start.Add(100*time.Millisecond), func(int64) error {
		time.Sleep(took)
		return nil
	})
	if len(ops) != 10 {
		t.Fatalf("%d operations ran, want all 10 that fell due", len(ops))
	}
	for i, op := range ops {
		if op.I != int64(i) {
			t.Fatalf("operation %d reported as %d", i, op.I)
		}
		if op.Latency < op.Late+took {
			t.Errorf("op %d: latency %v shorter than lateness %v plus service %v", i, op.Latency, op.Late, took)
		}
		// Operation i cannot start before i earlier ones finished.
		if minLate := time.Duration(i) * (took - 10*time.Millisecond); op.Late < minLate {
			t.Errorf("op %d: lateness %v, want at least %v", i, op.Late, minLate)
		}
	}

	// A generator that keeps up is on time.
	start = time.Now()
	ops = newOpenLoop(start, 200).run(context.Background(), 2, start.Add(100*time.Millisecond), func(int64) error { return nil })
	if len(ops) != 20 {
		t.Fatalf("%d operations, want 20", len(ops))
	}
	if late := summarize(lateness(ops), 0.5).P50; late > 5 {
		t.Errorf("median lateness %vms for an idle system", late)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestCPUSharesAttributeBenchFrames(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, err := cpuShares([][]byte{buf.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range shares {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v", total)
	}
	if shares["cpu.bench"] < 0.5 {
		t.Errorf("cpu.bench %v, want most of a profile that only spins in package main", shares["cpu.bench"])
	}
	for _, m := range cpuModules {
		if _, ok := shares["cpu."+m]; !ok {
			t.Errorf("no cpu.%s bucket", m)
		}
	}
}

func TestRepoModuleBuckets(t *testing.T) {
	for fn, want := range map[string]string{
		"internal/capstore/pack.(*Builder).Add":      "pack",
		"internal/capstore/replica.(*Writer).commit": "replica",
		"internal/capstore.(*Store).Query":           "capstore",
		"internal/webworld.(*World).Visit":           "webworld",
		"internal/decision.Compile":                  "decision",
		"internal/browser.(*Browser).Load":           "other",
		"internal/capturedb.Encode.func1":            "capturedb",
	} {
		if got := repoModule(fn); got != want {
			t.Errorf("repoModule(%q) = %q, want %q", fn, got, want)
		}
	}
}

// tinyParams shrinks every input so each workload runs in seconds.
func tinyParams() params {
	p := defaultParams()
	p.Domains = 2000
	p.SharesPerDay = 150
	p.Shards = 4
	p.ArchiveDays = 4
	p.CrawlDays = 2
	p.CompactTailBytes = 64 << 10
	p.Population = 400
	p.CacheStrings = 64
	p.Bodies = 16
	p.BatchSize = 64
	p.DecideRate = 100
	p.Validate = 2
	p.SetupRepeats = 1
	return p
}

// benchmarkSpec is the part of BENCHMARK.json the command must honour.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics compares a result's metrics, by name and unit, with the
// spec's list.
func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	var names []string
	for _, m := range want {
		names = append(names, m.Name)
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, g.Unit, m.Unit)
		}
		if math.IsNaN(g.Value) || math.IsInf(g.Value, 0) {
			t.Errorf("metric %s = %v", m.Name, g.Value)
		}
	}
	if len(got) != len(want) {
		var extra []string
		for n := range got {
			if !strings.Contains(" "+strings.Join(names, " ")+" ", " "+n+" ") {
				extra = append(extra, n)
			}
		}
		sort.Strings(extra)
		t.Errorf("%d metrics printed, BENCHMARK.json lists %d; extra: %v", len(got), len(want), extra)
	}
}

func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole system")
	}
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the command", i, w.Name, workloads[i])
		}
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			var log bytes.Buffer
			res, err := runWorkload(options{workload: w, seed: 3, seconds: 3, dir: t.TempDir()}, tinyParams(), &log)
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, res.Metrics, spec.EndToEnd)
			for _, name := range []string{"setup_s", "captures_per_s", "decisions_per_s", "sweep_records_per_s"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v", name, res.Metrics[name].Value)
				}
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		var log bytes.Buffer
		res, err := runWorkload(options{workload: "archive", seed: 3, seconds: 3, trace: true, dir: t.TempDir()}, tinyParams(), &log)
		if err != nil {
			t.Fatalf("%v\n%s", err, log.String())
		}
		checkMetrics(t, res.Metrics, spec.PerLayer)
		if res.Metrics["decision.compiles"].Value <= 0 || res.Metrics["webworld.visits_per_capture"].Value < 1 {
			t.Errorf("layer counters not filled: %v %v", res.Metrics["decision.compiles"], res.Metrics["webworld.visits_per_capture"])
		}
	})
}
