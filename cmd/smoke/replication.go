package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/capstore"
	"repro/internal/capstore/replica"
	"repro/internal/fleet"
)

const (
	ringSeed = 5
	numNodes = 3
)

// replicationScenario exercises the replicated capture store with real
// processes: three capd storage nodes, a capring replication proxy
// fronting them, a fleetd coordinator ingesting through the ring, and
// two `crawl -fleet` workers. One storage node is SIGKILLed mid-lease —
// hard enough that its store may be left with a torn segment tail or a
// half-written pack — then restarted, and the run must still converge:
// the ring repairs the returned node and every node's owned segments
// end byte-identical to a single-process baseline crawl. The nodes run
// the background compactor with tiny thresholds, so the identity is
// checked over each shard's logical stream (packs + tail), not raw
// segment files. Telemetry on the ring must be valid exposition
// carrying the repl_* families, with at least one repair pass actually
// booked.
func replicationScenario() {
	const shards = 8
	baseDir := filepath.Join(scratch, "baseline")
	baseStats := buildBaseline(baseDir, shards)
	logf("baseline: %d captured (%d failed-recorded), %d dead-lettered",
		baseStats.Succeeded+baseStats.FailedRecorded, baseStats.FailedRecorded, baseStats.DeadLettered)

	// Three storage nodes: capds with remote ingest and an aggressive
	// background compactor, so segments fold into packs while the fleet
	// is actively writing — the byte-identity check at the end must
	// hold through live compaction.
	var (
		names     []string
		nodeDirs  []string
		nodeURLs  []string
		capds     []*proc
		nodesFlag []string
	)
	for i := 0; i < numNodes; i++ {
		name := fmt.Sprintf("node-%d", i)
		ndir := filepath.Join(scratch, name)
		p := boot("capd", "-store", ndir, "-init-shards", strconv.Itoa(shards),
			"-ingest", "-addr", "127.0.0.1:0",
			"-compact", "-compact-tail-bytes", "4096", "-compact-interval", "25ms")
		url := p.url()
		names = append(names, name)
		nodeDirs = append(nodeDirs, ndir)
		nodeURLs = append(nodeURLs, url)
		capds = append(capds, p)
		nodesFlag = append(nodesFlag, name+"="+url)
	}

	// capring: R=2 W=1, a deliberately tiny handoff bound so the
	// injected outage overflows to dirty and forces an anti-entropy
	// repair (hints alone could not heal a torn tail).
	capring := boot("capring", "-nodes", strings.Join(nodesFlag, ","),
		"-shards", strconv.Itoa(shards), "-replicas", "2", "-quorum", "1",
		"-seed", strconv.Itoa(ringSeed), "-max-handoff", "1",
		"-handoff-dir", filepath.Join(scratch, "handoff"), "-metrics", "-addr", "127.0.0.1:0")
	ringURL := capring.url()

	// Placement decides the victim: the node owning the most segments,
	// so the outage is guaranteed to bite.
	var info replica.RingInfo
	check(json.Unmarshal([]byte(get(ringURL+"/ring")), &info))
	owned := make(map[string]int)
	for _, placed := range info.Placement {
		for _, n := range placed {
			owned[n]++
		}
	}
	victim := 0
	for i, n := range names {
		if owned[n] > owned[names[victim]] {
			victim = i
		}
	}
	logf("ring placement %v; victim %s owns %d/%d segments",
		info.Placement, names[victim], owned[names[victim]], shards)

	fleetd := boot("fleetd", fleetdArgs(ringURL)...)
	fleetdURL := fleetd.url()

	w1 := start("crawl", "-fleet", fleetdURL, "-worker-id", "replsmoke-w1")
	w2 := start("crawl", "-fleet", fleetdURL, "-worker-id", "replsmoke-w2")

	// Chaos: SIGKILL the victim capd once leases are in flight and the
	// ring has committed records — mid-lease, mid-ingest, no goodbye.
	status := fleet.NewClient(fleetdURL)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			fatalf("no lease observed within 30s; fleet never started")
		}
		if fleetd.exited() {
			fatalf("fleetd drained before the injected node kill; grow the fixture window")
		}
		st, err := status.Status()
		if err == nil && st.Active >= 1 && healthz(ringURL).Committed > 0 {
			capds[victim].kill()
			logf("SIGKILLed %s with %d leases active", names[victim], st.Active)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Let the outage bite: the writer must mark the node down and, with
	// -max-handoff 1, overflow its hints to dirty (repair scheduled).
	deadline = time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			fatalf("writer never flagged %s dirty: %+v", names[victim], healthz(ringURL))
		}
		if fleetd.exited() {
			fatalf("fleetd drained before %s went dirty; grow the fixture window", names[victim])
		}
		if n := nodeStatus(ringURL, names[victim]); !n.Up && n.Dirty {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	logf("%s is down and dirty; restarting it", names[victim])

	// Revive: same store, same address. A torn segment tail from the
	// SIGKILL is repaired on open (still a canonical prefix), and the
	// ring's anti-entropy repair re-streams whatever is missing.
	capds[victim] = boot("capd", "-store", nodeDirs[victim], "-ingest",
		"-addr", strings.TrimPrefix(nodeURLs[victim], "http://"),
		"-compact", "-compact-tail-bytes", "4096", "-compact-interval", "25ms")

	// The drain itself proves availability: the fleet kept ingesting
	// through the outage (W=1 acks via the surviving replica).
	if err := fleetd.wait(120 * time.Second); err != nil {
		fatalf("fleetd: %v\n%s", err, fleetd.output())
	}
	l := parseLedger(fleetd.output())
	checkLedger(l, baseStats)
	for _, w := range []*proc{w1, w2} {
		w.stop() //nolint:errcheck
	}

	// Repair convergence: every node up, clean, and with an empty
	// handoff queue; then each node's record count must equal the sum
	// of its owned baseline segments.
	baseSegs := segments(baseDir)
	wantCount := make(map[string]int)
	for s, placed := range info.Placement {
		for _, n := range placed {
			wantCount[n] += bytes.Count(baseSegs[s], []byte("\n"))
		}
	}
	deadline = time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			fatalf("ring never converged: %+v", healthz(ringURL))
		}
		hz := healthz(ringURL)
		settled := hz.Status == "ok"
		for _, n := range hz.Nodes {
			if !n.Up || n.Dirty || n.Handoff != 0 {
				settled = false
			}
		}
		if settled {
			done := true
			for i, name := range names {
				if countAll(nodeURLs[i]) != wantCount[name] {
					done = false
				}
			}
			if done {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	logf("ring converged; per-node counts match the baseline placement")

	// Ring telemetry: valid exposition, the repl_* families present,
	// the canonical commit counter booked every capture, and at least
	// one repair pass actually ran against the revived node.
	text := scrape(ringURL + "/metrics")
	for _, want := range []string{"repl_node_up", "repl_handoff_depth", "repl_repairs_total",
		"repl_quorum_wait_seconds", "repl_committed_records_total"} {
		if !strings.Contains(text, want) {
			fatalf("capring /metrics missing %q:\n%s", want, text)
		}
	}
	if n := int64(mustSample(text, "repl_committed_records_total")); n != l.Captures {
		fatalf("ring committed %d records, fleetd booked %d captures", n, l.Captures)
	}
	victimLabel := `{node="` + names[victim] + `"}`
	if n, _ := sample(text, "repl_repairs_total"+victimLabel); n < 1 {
		fatalf("no repair pass booked for %s:\n%s", names[victim], text)
	}
	if n, _ := sample(text, "repl_handoff_dropped_total"+victimLabel); n < 1 {
		fatalf("no handoff overflow booked for %s (outage never went dirty):\n%s", names[victim], text)
	}

	// Graceful shutdown flushes every store; then the headline: each
	// node's owned segments are byte-identical to the baseline, and
	// unplaced segments are empty. The nodes compacted live, so the
	// comparison is over each shard's *logical* stream (packs + tail
	// re-spliced by StreamShard) — which must be byte-for-byte the
	// never-compacted baseline's segment file.
	if err := capring.stop(); err != nil {
		fatalf("capring shutdown: %v", err)
	}
	for i := range capds {
		if err := capds[i].stop(); err != nil {
			fatalf("capd %s shutdown: %v", names[i], err)
		}
	}
	var totalOwned, totalPacks int
	for i, name := range names {
		st, err := capstore.Open(nodeDirs[i])
		check(err)
		totalPacks += st.Stats().Packs
		for s := 0; s < shards; s++ {
			got := logicalStream(st, s)
			if slices.Contains(info.Placement[s], name) {
				if !bytes.Equal(got, baseSegs[s]) {
					fatalf("%s segment %d logical stream differs from baseline: %d bytes vs %d", name, s, len(got), len(baseSegs[s]))
				}
				totalOwned += len(got)
			} else if len(got) != 0 {
				fatalf("%s segment %d has %d bytes but is not placed there", name, s, len(got))
			}
		}
		check(st.Close())
	}
	if totalPacks == 0 {
		fatalf("no node store holds packs: live compaction never ran (lower -compact-tail-bytes)")
	}
	logf("ok — %d shares, %d captured, %s repaired after SIGKILL, %d owned logical bytes identical across the ring (%d packs)",
		l.Submitted, l.Captures, names[victim], totalOwned, totalPacks)
}

type healthzPayload struct {
	Status string `json:"status"`
	replica.Stats
}

func healthz(ringURL string) healthzPayload {
	var hz healthzPayload
	check(json.Unmarshal([]byte(get(ringURL+"/healthz")), &hz))
	return hz
}

func nodeStatus(ringURL, name string) replica.NodeStatus {
	hz := healthz(ringURL)
	for _, n := range hz.Nodes {
		if n.Name == name {
			return n
		}
	}
	fatalf("node %s missing from /healthz: %+v", name, hz)
	return replica.NodeStatus{}
}

func countAll(nodeURL string) int {
	var payload struct {
		Count int `json:"count"`
	}
	check(json.Unmarshal([]byte(get(nodeURL+"/count")), &payload))
	return payload.Count
}
