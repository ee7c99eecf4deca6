# Developer entry points. `make check` is the gate every change must
# pass: vet, build, the full test suite under the race detector, the
# internal packages at GOMAXPROCS 1, 2 and 8, the seeded chaos suite,
# and the end-to-end smokes.

GO ?= go

# Benchmark-regression harness knobs. BENCHTIME is fixed (iteration
# count, not wall time) so snapshots from different runs compare
# apples to apples; THRESHOLD is the relative ns/op regression bound
# benchdiff fails on.
BENCHTIME ?= 5x
BENCHCOUNT ?= 5
BENCHDATE ?= $(shell date +%F)
BENCHSNAP ?= BENCH_$(BENCHDATE).json
OLD       ?= BENCH_seed.json
NEW       ?= $(BENCHSNAP)
THRESHOLD ?= 0.20

# Telemetry-overhead gate knobs: live recorder vs. no-op recorder on
# the detection and stream-visit hot paths, bounded at OBS_THRESHOLD.
# Time-based OBS_BENCHTIME (unlike the snapshot suite's fixed
# iteration count) because the gate compares within one run; OBS_COUNT
# repeats each benchmark and benchdiff keeps the fastest, filtering
# scheduler/frequency noise out of the ratio.
OBS_THRESHOLD ?= 0.05
OBS_BENCHTIME ?= 1s
OBS_COUNT     ?= 4

.PHONY: check vet build test race cpu chaos bins bench benchdiff bench-capstore obs-smoke obs-overhead fleet-smoke decision-smoke replication-smoke pack-smoke cluster-obs-smoke analytics-smoke fuzz

check: vet build race cpu chaos obs-smoke fleet-smoke decision-smoke replication-smoke pack-smoke cluster-obs-smoke analytics-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The internal packages at GOMAXPROCS 1, 2 and 8, so a test that leans
# on the scheduler fails here rather than on some other host.
cpu:
	$(GO) test -count=1 -cpu 1,2,8 ./internal/...

# Seeded fault-injection suite: retry completion under injected 5xx /
# drop / anti-bot rates, byte-identical fault schedules across runs,
# torn-write repair, and capd load shedding under saturation.
chaos:
	$(GO) test ./internal/resilience/... ./internal/crawler/ ./internal/capstore/ -run 'Chaos' -count=1

# Tier-1 benchmark suite → JSON snapshot. Runs every root-package
# benchmark at a fixed BENCHTIME, repeated BENCHCOUNT times (the
# parser keeps each benchmark's fastest run, filtering scheduler and
# frequency noise), tees the raw output to bench.out, and parses it
# into $(BENCHSNAP) for benchdiff.
bench:
	$(GO) build -o bin/benchdiff ./cmd/benchdiff
	$(GO) test . -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) -timeout 30m | tee bench.out
	./bin/benchdiff -parse bench.out -date $(BENCHDATE) -out $(BENCHSNAP)
	@echo "snapshot written to $(BENCHSNAP)"

# Compare two snapshots; fails if any benchmark regressed beyond
# THRESHOLD. Usage: make benchdiff OLD=BENCH_seed.json NEW=BENCH_x.json
benchdiff:
	$(GO) build -o bin/benchdiff ./cmd/benchdiff
	./bin/benchdiff -compare -threshold $(THRESHOLD) $(OLD) $(NEW)

# The capture-store perf pair: linear scan vs. indexed query.
bench-capstore:
	$(GO) test ./internal/capstore/ -run '^$$' -bench 'Query' -benchmem

# Every binary the smokes spawn, built once into bin/. Each smoke is a
# scenario of cmd/smoke run against these: `smoke -bin bin SCENARIO`.
SMOKE_BINS = capd capring fleetd crawl obsd consentd analyzed analyze

bins:
	$(GO) build -o bin/ $(addprefix ./cmd/,$(SMOKE_BINS))

# End-to-end telemetry smoke: boot a real capd with -metrics over a
# fixture store, drive queries, and fail on unparseable /metrics
# lines, missing spans in /debug/trace, or a /healthz without the
# telemetry summary.
obs-smoke: bins
	$(GO) run ./cmd/smoke -bin bin obs

# End-to-end fleet smoke: boot capd (-ingest -metrics), fleetd
# (-metrics) and two crawl workers over a small fixture window, SIGKILL
# one worker mid-run, and assert the fleet's store is byte-identical to
# the single-process baseline, the ledger balances, and both /metrics
# endpoints stay valid.
fleet-smoke: bins
	$(GO) run ./cmd/smoke -bin bin fleet

# End-to-end decision smoke: boot a real consentd with -metrics, drive
# mixed traffic (NDJSON batches, single decisions, vendor filters)
# through the load driver, re-check sampled batch answers against the
# naive reference decoder, and fail on missing decision metrics or a
# cold cache.
decision-smoke: bins
	$(GO) run ./cmd/smoke -bin bin decision

# End-to-end replication smoke: three capd storage nodes behind a
# capring proxy, fleetd + two crawl workers ingesting through the
# ring, SIGKILL one storage node mid-lease and restart it, then assert
# the ring repairs the node to convergence, every node's owned
# segments are byte-identical to the single-process baseline, and the
# ring's /metrics stays valid with the repl_* families.
replication-smoke: bins
	$(GO) run ./cmd/smoke -bin bin replication

# End-to-end pack-engine smoke: boot capd with an aggressive paced
# compactor, ingest under live compaction, SIGKILL mid-compaction,
# restart and re-deliver idempotently, force a /compact, then reopen
# the store (indexed open path on every shard) and assert the full
# query sweep, logical streams, and manifests are byte-identical to a
# never-compacted baseline.
pack-smoke: bins
	$(GO) run ./cmd/smoke -bin bin pack

# End-to-end fleet-observability smoke: three capds + capring (all
# -metrics), fleetd + two crawl workers pushing span exports to a real
# obsd, which scrapes every long-lived node. Asserts valid exposition
# on every scrape and on the /cluster/metrics rollup, at least one
# trace stitched across fleetd→worker→capring→capd with zero orphans,
# and that deliberately induced reorder-buffer sheds trip the shed-rate
# burn alert.
cluster-obs-smoke: bins
	$(GO) run ./cmd/smoke -bin bin cluster-obs

# End-to-end incremental-analytics smoke: boot capd (-ingest) and an
# analyzed follower with a short checkpoint interval, stream a fixture
# world, SIGKILL analyzed mid-stream, restart it (must resume from the
# checkpoint and fold only the suffix), finish the stream, and assert
# every served view is byte-identical to `analyze -store` batch mode
# over the same store.
analytics-smoke: bins
	$(GO) run ./cmd/smoke -bin bin analytics

# Telemetry overhead gate: the live recorder must stay within
# OBS_THRESHOLD of the no-op recorder on both hot paths. Longer
# benchtime than `make bench` so the ratio is stable; not part of
# `make check`.
obs-overhead:
	$(GO) build -o bin/benchdiff ./cmd/benchdiff
	$(GO) test . -run '^$$' -bench 'DetectOne|StreamVisit' -benchtime $(OBS_BENCHTIME) -count $(OBS_COUNT) -timeout 20m | tee obs-bench.out
	./bin/benchdiff -parse obs-bench.out -out obs-bench.json
	./bin/benchdiff -pair BenchmarkDetectOneNop,BenchmarkDetectOne -threshold $(OBS_THRESHOLD) obs-bench.json
	./bin/benchdiff -pair BenchmarkStreamVisit/nop,BenchmarkStreamVisit/live -threshold $(OBS_THRESHOLD) obs-bench.json

# Short fuzz passes: the capture wire format (torn writes, segment
# boundaries, malformed tuples), retry classification of malformed
# webworld/chaos error strings, the fleet wire-protocol decoder, both
# TCF consent-string codecs, the compiled-vs-naive decision kernel
# differential, and the placement-ring invariants.
fuzz:
	$(GO) test ./internal/capturedb/ -run '^$$' -fuzz FuzzScan -fuzztime 30s
	$(GO) test ./internal/ring/ -run '^$$' -fuzz FuzzRingPlacement -fuzztime 20s
	$(GO) test ./internal/resilience/ -run '^$$' -fuzz FuzzClassifyError -fuzztime 15s
	$(GO) test ./internal/fleet/ -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 15s
	$(GO) test ./internal/tcf/ -run '^$$' -fuzz FuzzDecode$$ -fuzztime 20s
	$(GO) test ./internal/tcf/ -run '^$$' -fuzz FuzzDecodeV2 -fuzztime 20s
	$(GO) test ./internal/decision/ -run '^$$' -fuzz FuzzDecideDifferential -fuzztime 30s
