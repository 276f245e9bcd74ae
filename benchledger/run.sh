#!/usr/bin/env bash
# Builds benchledger from this checkout and runs it with the given
# arguments, from the checkout's root:
#
#   bash benchledger/run.sh --workload hotpath --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off
go -C "$root/benchledger" build -o "$out/benchledger" .
exec "$out/benchledger" "$@"
