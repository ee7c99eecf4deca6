package main

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/browser"
	"repro/internal/capstore"
	"repro/internal/fleet"
	"repro/internal/webworld"
)

// meters are the benchmark's probes on layer boundaries. Every probe
// wraps a public entry point of one module from outside it; counters
// and timing samples are always kept (they are cheap), spans only when
// the run is traced.
type meters struct {
	tr *Tracer

	// webworld/browser: Visitor.Visit calls.
	visits, visitNanos atomic.Int64
	// capstore: node /ingest handler calls.
	ingestRecords, ingestBytes, ingestNanos atomic.Int64
	// analytics: Follower.Sweep time, and the part of it blocked
	// reading a Source stream.
	sweepNanos, streamNanos atomic.Int64
	// decision: wrapped handler calls.
	decideRequests, decideNanos, decideShed atomic.Int64

	mu      sync.Mutex
	samples map[string][]float64
	store   capstore.Stats // compaction counters summed over every cluster
	runtime map[string]runtimeDelta
}

// addStoreDelta adds one cluster's compaction counters between two
// Store.Stats snapshots.
func (m *meters) addStoreDelta(before, after capstore.Stats) {
	m.mu.Lock()
	m.store.Compactions += after.Compactions - before.Compactions
	m.store.PackedBytes += after.PackedBytes - before.PackedBytes
	m.store.PaceSleepSeconds += after.PaceSleepSeconds - before.PaceSleepSeconds
	m.mu.Unlock()
}

func newMeters(tr *Tracer) *meters {
	return &meters{tr: tr, samples: make(map[string][]float64), runtime: make(map[string]runtimeDelta)}
}

// sample appends one timing sample (ms) to the named series.
func (m *meters) sample(name string, v float64) {
	m.mu.Lock()
	m.samples[name] = append(m.samples[name], v)
	m.mu.Unlock()
}

// series returns a copy of the named series.
func (m *meters) series(name string) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]float64(nil), m.samples[name]...)
}

// ingestHandler wraps a node's capstore.Ingester: handler time, body
// bytes and records (one NDJSON line each) per /ingest call.
func (m *meters) ingestHandler(ing *capstore.Ingester) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := &countingReader{r: r.Body}
		r.Body = body
		t0 := time.Now()
		ing.ServeHTTP(w, r)
		t1 := time.Now()
		m.ingestNanos.Add(int64(t1.Sub(t0)))
		m.ingestBytes.Add(body.bytes)
		m.ingestRecords.Add(body.lines)
		m.tr.Add(0, 0, "capstore.ingest", body.lines, t0, t1)
	})
}

// countingReader counts bytes and newlines read through it.
type countingReader struct {
	r            io.ReadCloser
	bytes, lines int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.bytes += int64(n)
	c.lines += int64(bytes.Count(p[:n], []byte{'\n'}))
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

// timedReader adds the time spent inside Read to *nanos.
type timedReader struct {
	r     io.ReadCloser
	nanos *atomic.Int64
}

func (t timedReader) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.r.Read(p)
	t.nanos.Add(int64(time.Since(t0)))
	return n, err
}

func (t timedReader) Close() error { return t.r.Close() }

// workerProbe follows one fleet worker through its leases: the grant
// seen on the coordinator client's transport, the visits of the
// chunk, and the push that ends it.
type workerProbe struct {
	m     *meters
	inner http.RoundTripper
	world browser.Visitor

	mu         sync.Mutex
	chunkID    int64
	first      int64
	grantAt    time.Time
	visitNanos int64
	pushed     bool
}

// RoundTrip times /lease round trips and notes each grant.
func (p *workerProbe) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := p.inner.RoundTrip(req)
	if err != nil || req.URL.Path != "/lease" {
		return resp, err
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	if rerr != nil {
		return resp, nil // the worker sees the short body and retries
	}
	t1 := time.Now()
	f, derr := fleet.DecodeFrame(body)
	if derr != nil || f.Type != fleet.FrameLeaseGrant {
		return resp, nil
	}
	p.m.sample("fleet.grant_ms", ms(t1.Sub(t0)))
	p.m.tr.Add(0, 0, "fleet.grant", f.First, t0, t1)
	p.mu.Lock()
	p.chunkID = p.m.tr.NewID()
	p.first = f.First
	p.grantAt = t1
	p.visitNanos = 0
	p.pushed = false
	p.mu.Unlock()
	return resp, nil
}

// Visit times one browser.Visitor call against the world.
func (p *workerProbe) Visit(domain, path string, ctx webworld.VisitContext) (*webworld.Page, error) {
	t0 := time.Now()
	page, err := p.world.Visit(domain, path, ctx)
	t1 := time.Now()
	d := int64(t1.Sub(t0))
	p.m.visits.Add(1)
	p.m.visitNanos.Add(d)
	p.mu.Lock()
	p.visitNanos += d
	parent, key := p.chunkID, p.first
	p.mu.Unlock()
	p.m.tr.Add(0, parent, "webworld.visit", key, t0, t1)
	return page, err
}

// chunkEnd closes the current chunk at its first push (a retried push
// of the same chunk leaves it closed) and returns its grant time.
func (p *workerProbe) chunkEnd(now time.Time) time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pushed {
		return p.grantAt
	}
	p.pushed = true
	chunk := now.Sub(p.grantAt)
	p.m.sample("crawler.chunk_ms", ms(chunk))
	if chunk > 0 {
		p.m.sample("crawler.wait_share", float64(int64(chunk)-p.visitNanos)/float64(chunk))
	}
	p.m.tr.Add(p.chunkID, 0, "crawler.chunk", p.first, p.grantAt, now)
	return p.grantAt
}
