#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a checkout. The build cache and the binary live
# under .bench_build/ in the checkout, so nothing is written outside it.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
