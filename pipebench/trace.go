package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer started. Parent is 0 for a root; Key
// ties the spans of one lease, request or sweep together.
type Span struct {
	ID, Parent int64
	Name       string
	Key        int64
	Start, End int64
}

// Tracer keeps spans in memory; they are written out once, at exit. A
// nil *Tracer records nothing, so untraced runs pay one nil check per
// wrapped call.
type Tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// since is t's offset in trace time (0 without a tracer).
func (t *Tracer) since(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(at.Sub(t.t0))
}

// NewID reserves a span id before the span ends, so children recorded
// first can name their parent.
func (t *Tracer) NewID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Add records a finished span under a reserved id (0 reserves one).
func (t *Tracer) Add(id, parent int64, name string, key int64, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.NewID()
	}
	s := Span{ID: id, Parent: parent, Name: name, Key: key,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as tab-separated lines: id, parent, name,
// key, start ns, end ns.
func (t *Tracer) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.Spans() {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", s.ID, s.Parent, s.Name, s.Key, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is a half-open [lo, hi) stretch of trace time.
type interval struct{ lo, hi int64 }

// unionLen is the total length covered by ivs clipped to [lo, hi).
func unionLen(ivs []interval, lo, hi int64) int64 {
	var clipped []interval
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curLo, curHi, open = iv.lo, iv.hi, true
		case iv.lo <= curHi:
			curHi = max(curHi, iv.hi)
		default:
			total += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfTimes sums, per span name, each span's duration minus the part
// of it its child spans cover.
func selfTimes(spans []Span) map[string]time.Duration {
	children := make(map[int64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		self := (s.End - s.Start) - unionLen(children[s.ID], s.Start, s.End)
		out[s.Name] += time.Duration(self)
	}
	return out
}

// uncoveredShare is the share of the windows that no span covers:
// wall time the trace cannot attribute to any layer.
func uncoveredShare(spans []Span, windows []interval) float64 {
	ivs := make([]interval, len(spans))
	for i, s := range spans {
		ivs[i] = interval{s.Start, s.End}
	}
	var total, covered int64
	for _, w := range windows {
		total += w.hi - w.lo
		covered += unionLen(ivs, w.lo, w.hi)
	}
	if total <= 0 {
		return 0
	}
	return 1 - float64(covered)/float64(total)
}

// durationsOf returns the durations, in ms, of the spans named name.
func durationsOf(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}
