package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a p99 needs 1000 samples, a p95 200.
const minBeyond = 10

// Summary is a timing distribution reduced to the two figures the
// benchmark reports: the median and the highest percentile, up to the
// one asked for, that still has minBeyond samples beyond it.
type Summary struct {
	N     int     // sample count
	P50   float64 // median
	Tail  float64 // value at percentile TailQ
	TailQ float64 // the percentile Tail was taken at (0.99 once N ≥ 1000)
}

// summarize sorts a copy of xs and reduces it. want is the tail
// percentile asked for (0.99); with too few samples the tail falls back
// to the highest percentile that keeps minBeyond samples above it, and
// never below the median.
func summarize(xs []float64, want float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := math.Min(want, float64(n-minBeyond)/float64(n))
	q = math.Max(q, 0.5)
	return Summary{N: n, P50: rank(s, 0.5), Tail: rank(s, q), TailQ: q}
}

// rank is the nearest-rank percentile of sorted s: the smallest value
// with at least q·n samples at or below it.
func rank(s []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// Slicing: at most maxSlices consecutive slices of at least
// minSliceSamples samples each.
const (
	maxSlices       = 9
	minSliceSamples = 200
)

// sliced summarizes time-ordered samples slice by slice and reports
// the median over the slices of each slice's median and tail. On a
// shared host a stall (steal time reached 8% of some runs) lands in a
// few slices and then does not move the figure, where it would move a
// pooled tail; and a tail taken with ten samples beyond it is noisy,
// which the median over slices averages down. TailQ is the lowest
// percentile a slice's tail was taken at; N counts all samples. Fewer
// than two slices' worth of samples are summarized pooled.
func sliced(xs []float64, want float64) Summary {
	n := len(xs)
	k := min(n/minSliceSamples, maxSlices)
	if k < 2 {
		return summarize(xs, want)
	}
	var p50s, tails []float64
	q := want
	for i := 0; i < k; i++ {
		s := summarize(xs[i*n/k:(i+1)*n/k], want)
		p50s = append(p50s, s.P50)
		tails = append(tails, s.Tail)
		q = math.Min(q, s.TailQ)
	}
	return Summary{N: n, P50: median(p50s), Tail: median(tails), TailQ: q}
}

// median of xs (nearest rank); 0 for no samples.
func median(xs []float64) float64 { return summarize(xs, 0.5).P50 }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
