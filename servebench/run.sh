#!/usr/bin/env bash
# Builds cmd/parserve and the benchmark from the checkout's sources into
# .bench_build/ (Go build cache included), then runs the benchmark with
# the given arguments. Run from the root of the repository:
#
#   bash servebench/run.sh --workload small-distinct --seed 1 --seconds 20 --trace 0
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/parserve" ./cmd/parserve
(cd servebench && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
