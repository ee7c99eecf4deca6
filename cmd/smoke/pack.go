package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/capstore"
	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/simtime"
)

const (
	packShards = 4
	packTotal  = 600
	packBatch  = 20
)

// packCapture fabricates a distinct capture; i keys the idempotency
// identity, the domain (and so the shard), the day, and the failure
// flag, so dedup, placement, pruning, and failed-row handling are all
// exercised.
func packCapture(i int) *capture.Capture {
	c := &capture.Capture{
		SeedURL:     fmt.Sprintf("https://site%d.example/p/%d", i%37, i),
		FinalURL:    fmt.Sprintf("https://site%d.example/p/%d", i%37, i),
		FinalDomain: fmt.Sprintf("site%d.example", i%37),
		Day:         simtime.Day(i % 300),
		Vantage:     capture.USCloud,
		Status:      200,
		Requests: []capture.Request{
			{Host: fmt.Sprintf("cmp%d.example", i%3), Path: "/c.js", Status: 200, BytesRaw: 90 + i, BytesCompressed: 80 + i},
			{Host: fmt.Sprintf("assets%d.example", i%5), Path: "/a.js", Status: 200, BytesRaw: 40 + i, BytesCompressed: 30 + i},
		},
	}
	if i%11 == 0 {
		c.Failed = true
		c.Error = "timeout"
		c.Status = 0
		c.Requests = nil
	}
	return c
}

// sweepQueries cover every access path: full scan, domain index, host
// index, day-window pruning, and the failed filter.
func sweepQueries() []capturedb.Query {
	return []capturedb.Query{
		{IncludeFailed: true},
		{},
		{Domain: "site3.example", IncludeFailed: true},
		{Domain: "site11.example"},
		{RequestHost: "cmp1.example"},
		{RequestHost: "assets2.example", From: 40, To: 220, HasTo: true},
		{From: 100, To: 200, HasTo: true, IncludeFailed: true},
		{From: 299, To: 299, HasTo: true},
	}
}

// packScenario exercises the pack engine with a real capd: remote
// ingest under a deliberately aggressive (and write-paced, so passes
// are slow and a kill lands mid-pass) background compactor, a SIGKILL
// while the store is compacting, an idempotent full re-delivery after
// restart, a forced POST /compact, and a final comparison of the
// compacted store against a local never-compacted baseline. The full
// query sweep, a set of filtered queries, every shard's logical
// stream, and the manifests must all be byte-identical, the reopened
// store must take the indexed open path on every shard, and /metrics
// must carry the pack_* families.
func packScenario() {
	caps := make([]*capture.Capture, packTotal)
	for i := range caps {
		caps[i] = packCapture(i)
	}

	// Never-compacted baseline: same records, same order, local store.
	baseline, err := capstore.Create(filepath.Join(scratch, "baseline"), packShards)
	check(err)
	for _, c := range caps {
		baseline.Record(c)
	}

	// capd under test: tiny compaction threshold so packs form while
	// batches are still arriving, and a slow write pace so a pass is
	// almost certainly in flight when the SIGKILL lands.
	nodeDir := filepath.Join(scratch, "store")
	compactFlags := []string{"-compact", "-compact-tail-bytes", "512",
		"-compact-interval", "2ms", "-compact-pace", "65536"}
	p := boot("capd", append([]string{"-store", nodeDir, "-init-shards", strconv.Itoa(packShards),
		"-ingest", "-metrics", "-addr", "127.0.0.1:0"}, compactFlags...)...)
	url := p.url()
	cl := ingestClient(url)

	// Phase 1: stream the first half and require real compactions.
	half := packTotal / 2
	push(cl, caps[:half], packBatch)
	deadline := time.Now().Add(20 * time.Second)
	for stats(url).Compactions == 0 {
		if time.Now().After(deadline) {
			fatalf("no compaction within 20s of %d records (stats %+v)", half, stats(url))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Phase 2: keep streaming, then SIGKILL with the compactor hot. The
	// in-flight batch may die with the process — re-delivery heals it.
	for at := half; at < packTotal; at += packBatch {
		if at >= packTotal*3/4 {
			p.kill()
			logf("SIGKILLed capd mid-compaction at %d/%d records", at, packTotal)
			break
		}
		push(cl, caps[at:at+packBatch], packBatch)
	}

	// Restart on the same store: a half-written pack is quarantined, an
	// interrupted tail rewrite is completed, a torn tail is truncated —
	// whatever the kill left, open repairs it to a canonical prefix.
	p2 := boot("capd", append([]string{"-store", nodeDir,
		"-ingest", "-metrics", "-addr", "127.0.0.1:0"}, compactFlags...)...)
	url = p2.url()
	cl = ingestClient(url)

	// Re-deliver everything from the start: per-record idempotency
	// drops what survived and appends exactly what the kill ate, in
	// canonical order.
	push(cl, caps, packBatch)

	// Forced pass via the admin trigger: everything left in the tails
	// folds into packs.
	compactRes, err := cl.Compact()
	check(err)
	if compactRes.Packs == 0 {
		fatalf("/compact left no packs: %+v", compactRes)
	}

	// The telemetry surface must expose the pack_* families as valid
	// exposition, with compactions actually booked.
	text := scrape(url + "/metrics")
	for _, want := range []string{"pack_compactions_total", "pack_packed_records_total",
		"pack_packed_bytes_total", "pack_packs", "pack_open_indexed_shards"} {
		if !strings.Contains(text, want) {
			fatalf("capd /metrics missing %q:\n%s", want, text)
		}
	}

	if err := p2.stop(); err != nil {
		fatalf("capd shutdown: %v", err)
	}

	// Headline: reopen the compacted store locally and compare it
	// against the never-compacted baseline.
	st, err := capstore.Open(nodeDir)
	check(err)
	defer st.Close()
	nodeStats := st.Stats()
	if nodeStats.Packs == 0 {
		fatalf("reopened store has no packs")
	}
	for _, sh := range nodeStats.Shards {
		if sh.OpenPath != "indexed" {
			fatalf("shard %s took the %q open path; want indexed (stats %+v)", sh.Segment, sh.OpenPath, sh)
		}
	}
	if nodeStats.Records != int64(packTotal) {
		fatalf("reopened store has %d records, want %d", nodeStats.Records, packTotal)
	}

	for qi, q := range sweepQueries() {
		want, got := sweep(baseline.Query, q), sweep(st.Query, q)
		if !bytes.Equal(want, got) {
			fatalf("query %d (%+v): compacted store returned %d bytes, baseline %d", qi, q, len(got), len(want))
		}
	}
	bm, err := baseline.Manifest()
	check(err)
	nm, err := st.Manifest()
	check(err)
	for s := range bm.Segments {
		if bm.Segments[s] != nm.Segments[s] {
			fatalf("manifest mismatch on segment %d: %+v vs %+v", s, nm.Segments[s], bm.Segments[s])
		}
		if b, n := logicalStream(baseline, s), logicalStream(st, s); !bytes.Equal(b, n) {
			fatalf("segment %d logical stream differs: %d bytes vs %d", s, len(n), len(b))
		}
	}
	check(baseline.Close())
	logf("ok — %d records, %d packs across %d shards, survived SIGKILL mid-compaction byte-identical to the baseline",
		packTotal, nodeStats.Packs, packShards)
}

func stats(url string) capstore.Stats {
	var st capstore.Stats
	check(json.Unmarshal([]byte(get(url+"/stats")), &st))
	return st
}

// sweep renders a query's matches as wire-format bytes for comparison.
func sweep(query func(capturedb.Query, func(*capture.Capture) bool) error, q capturedb.Query) []byte {
	var buf bytes.Buffer
	check(query(q, func(c *capture.Capture) bool {
		line, err := capturedb.Encode(c)
		check(err)
		buf.Write(line)
		return true
	}))
	return buf.Bytes()
}
