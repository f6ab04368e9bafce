#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, from the
# checkout's root:
#
#   bash perfbench/run.sh --workload live-mixed --seed 1 --seconds 20 --trace 0
#
# The Go build cache and the binary go to .bench_build at the checkout's
# root, so a run writes nothing outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
cd "$root/perfbench"
go build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
