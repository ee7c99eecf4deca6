#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it:
#
#   bash pipebench/run.sh --workload crawl|archive --seed N \
#        --seconds S --trace 0|1
#
# Run from the repository root. Every file the build and the run write
# stays under the working directory: the Go build and module caches and
# temporary files go to .bench_build/ (or $CARGO_TARGET_DIR), scratch
# stores to .bench_run/, traces to .bench_out/.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export TMPDIR=$out/tmp
export GOTMPDIR=$out/tmp
export GOCACHE=$out/gocache
export GOMODCACHE=$out/gomod
export XDG_CONFIG_HOME=$out/config
export XDG_CACHE_HOME=$out/cache
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOTELEMETRY=off
export GOTELEMETRYDIR=$out/telemetry

(cd "$root/pipebench" && go build -o "$out/pipebench" .) >&2
exec "$out/pipebench" "$@"
