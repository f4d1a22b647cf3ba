#!/usr/bin/env bash
# Builds the service benchmark from source and runs it from the
# repository root, passing every argument through:
#
#   bash perfbench/run.sh --workload fleet-hot --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and run files stay under
# .bench_build/ in the checkout. A failed build exits non-zero before
# any result is printed.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/perfbench"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
(cd perfbench && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" --out "$build/perfbench" "$@"
