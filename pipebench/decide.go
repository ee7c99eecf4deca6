package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/decision"
)

const (
	// decideConns is the client side of the decide phase: two
	// connections, one per generator goroutine.
	decideConns = 2
	// roundLength is one phase-1 round.
	roundLength = 500 * time.Millisecond
)

// newClients opens the phase's client connections, one per generator.
func newClients() []*http.Client {
	out := make([]*http.Client, decideConns)
	for i := range out {
		out[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	}
	return out
}

// closeClients drops the clients' idle connections.
func closeClients(cls []*http.Client) {
	for _, cl := range cls {
		cl.CloseIdleConnections()
	}
}

// decideStats accumulates the decide phase.
type decideStats struct {
	decisionsPerSec float64   // median round rate
	roundRates      []float64 // decisions/s per phase-1 round
	decisions       int64     // phase 1 + phase 2
	latency         []opSample
	cache           decision.CacheStats // delta over the phase
	attempted       int64
	failed          int64
	validated       int
}

// runDecide serves consentd's handler over loopback and drives it
// with pre-rendered NDJSON batches: after an untimed warm-up, segments
// of a closed loop over both connections (capacity) and an open loop
// at p.DecideRate requests/s (latency from due time), the closed loop
// a third of d in all, then re-checks sampled batches against the
// naive decoder. The open loop gets the larger share: its tail is set
// by the garbage collector's cycles, a few per second, and needs many
// of them per run to be steady.
func runDecide(ctx context.Context, e *env, m *meters, d time.Duration) (*decideStats, error) {
	ds := &decideStats{}
	srv := decision.NewServer(decision.ServerConfig{
		Resolver:       e.resolver,
		Cache:          decision.CacheConfig{Capacity: e.p.CacheStrings, Shards: 16},
		MaxInFlight:    256,
		RequestTimeout: 10 * time.Second,
	})
	s, err := serve(m.decideHandler(srv.Handler(), e.p.BatchSize))
	if err != nil {
		return nil, err
	}
	defer s.Close()
	url := s.url + "/v1/batch"
	var failed atomic.Int64
	post := func(cl *http.Client, body []byte) (int64, error) {
		resp, err := cl.Post(url, "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("batch: %s", resp.Status)
		}
		if n != int64(e.p.BatchSize*decision.BatchAnswerLen) {
			return 0, fmt.Errorf("batch answered %d bytes for %d decisions", n, e.p.BatchSize)
		}
		return n / decision.BatchAnswerLen, nil
	}

	// Warm-up, untimed: every body once, so the cache is in its steady
	// state (full, evicting) when the clock starts.
	warm := newClients()
	for _, b := range e.bodies {
		if _, err := post(warm[0], b); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	closeClients(warm)
	before := srv.Cache().Stats()

	// The two phases alternate: each segment is one phase-1 round on
	// fresh connections, then phase 2 on the same connections until the
	// segment's end. Phase 1 is the closed loop (capacity, the median
	// round rate), phase 2 the open loop at a fixed offered rate
	// (latency from due time). The host's speed drifts over tens of
	// seconds; spread over the whole phase, both see more of that drift
	// than rounds bunched at its start did. Fresh connections re-draw
	// whatever per-connection state moved closed-loop throughput.
	start := time.Now()
	segments := max(1, int(d/3/roundLength))
	var (
		next      atomic.Int64 // body cursor
		closed    atomic.Int64 // phase-1 requests
		decisions atomic.Int64
	)
	for seg := 1; seg <= segments && ctx.Err() == nil; seg++ {
		clients := newClients()
		n0, t0 := decisions.Load(), time.Now()
		roundEnd := t0.Add(roundLength)
		var wg sync.WaitGroup
		for _, cl := range clients {
			wg.Add(1)
			go func(cl *http.Client) {
				defer wg.Done()
				for ctx.Err() == nil && time.Now().Before(roundEnd) {
					closed.Add(1)
					n, err := post(cl, e.bodies[(next.Add(1)-1)%int64(len(e.bodies))])
					if err != nil {
						failed.Add(1)
						time.Sleep(2 * time.Millisecond)
						continue
					}
					decisions.Add(n)
				}
			}(cl)
		}
		wg.Wait()
		ds.roundRates = append(ds.roundRates, float64(decisions.Load()-n0)/time.Since(t0).Seconds())

		loop := newOpenLoop(time.Now(), e.p.DecideRate)
		var conn atomic.Int64
		segEnd := start.Add(d * time.Duration(seg) / time.Duration(segments))
		ds.latency = append(ds.latency, loop.run(ctx, decideConns, segEnd, func(int64) error {
			cl := clients[conn.Add(1)%decideConns]
			n, err := post(cl, e.bodies[(next.Add(1)-1)%int64(len(e.bodies))])
			decisions.Add(n)
			return err
		})...)
		closeClients(clients)
	}
	ds.attempted += closed.Load()
	ds.decisionsPerSec = median(ds.roundRates)
	ds.decisions = decisions.Load()
	ds.attempted += int64(len(ds.latency))
	for _, l := range ds.latency {
		if l.Err != nil {
			failed.Add(1)
		}
	}
	after := srv.Cache().Stats()
	ds.cache = decision.CacheStats{
		Hits:      after.Hits - before.Hits,
		Misses:    after.Misses - before.Misses,
		Evictions: after.Evictions - before.Evictions,
		Size:      after.Size,
		Capacity:  after.Capacity,
	}
	ds.failed = failed.Load()

	// Gate: sampled batches agree with the naive reference decoder.
	cfg := e.load
	cfg.ServerURL = s.url
	v, err := decision.ValidateAgainstNaive(cfg, e.resolver, e.p.Validate)
	ds.attempted++
	if err != nil {
		ds.failed++
		return ds, fmt.Errorf("validation: %w", err)
	}
	ds.validated = v.Checked
	if v.Mismatches > 0 {
		ds.failed++
		return ds, fmt.Errorf("validation: %d of %d decisions differ from the naive decoder (first: %s)",
			v.Mismatches, v.Checked, v.FirstMismatch)
	}
	if ds.failed > 0 {
		return ds, fmt.Errorf("%d batch requests failed", ds.failed)
	}
	return ds, nil
}

// decideHandler wraps decision.Server.Handler: handler time per
// request and the 429 sheds.
func (m *meters) decideHandler(h http.Handler, batch int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		h.ServeHTTP(sw, r)
		t1 := time.Now()
		m.decideRequests.Add(1)
		m.decideNanos.Add(int64(t1.Sub(t0)))
		if sw.code == http.StatusTooManyRequests {
			m.decideShed.Add(1)
		}
		m.tr.Add(0, 0, "decision.handle", int64(batch), t0, t1)
	})
}

// statusWriter remembers the response status.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (s *statusWriter) WriteHeader(code int) {
	s.code = code
	s.ResponseWriter.WriteHeader(code)
}
