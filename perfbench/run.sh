#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root; the arguments pass through to the benchmark binary:
#
#   bash perfbench/run.sh --workload sim-onchip --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the benchmark's temporary files
# (fingersd journals) stay under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/tmp"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -tmp "$out/tmp" "$@"
