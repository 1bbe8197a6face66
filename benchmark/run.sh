#!/usr/bin/env bash
# Builds sieved and the benchmark command from source into .bench_build/ at the
# root of the checkout, then runs one benchmark pass. Run it from the root:
#
#   bash benchmark/run.sh --workload hit-csv --seed 1 --seconds 20 --trace 0
#
# Every build artefact (binaries, Go build cache) stays inside .bench_build/,
# and so do the replica logs, reports and span files the run writes.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
# The go command's temporary files and its user configuration (telemetry
# counters included) stay inside the checkout too.
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
go build -o "$out/sieved" ./cmd/sieved
(cd benchmark && go build -o "$out/sievebench" .)
exec "$out/sievebench" -sieved "$out/sieved" -out "$out" "$@"
