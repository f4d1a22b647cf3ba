#!/usr/bin/env bash
# overhead_guard.sh — the instrumentation-overhead guard of
# hack/verify.sh, runnable on its own:
#
#   hack/overhead_guard.sh
#
# The observability layer must be ~free when disabled: a simulation with
# observability off must not run more than 5% slower than the same
# simulation fully instrumented (the enabled path is itself required to
# be cheap relative to simulation work, so the two bracket the
# uninstrumented baseline). If it does, someone put work outside an
# enabled-check and the zero-cost contract is broken.
#
# The timing is judged on paired runs, not on best-of-N minima of each
# side: BenchmarkSimulatorInstrumentationRatio pairs one disabled and one
# enabled simulation per iteration, back to back, alternating which runs
# first, and reports the median of 151 disabled/enabled ratios. A single
# sample on a shared 2-core machine spreads wider than the 5% bound; the
# median of many tightly paired ratios does not. The exact form of the
# contract, that a disabled tracer allocates nothing, is
# TestDisabledTracerAllocatesNothing.
set -euo pipefail
cd "$(dirname "$0")/.."

bound=1.05
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go test -c -o "$bin/simulator.test" ./internal/simulator
median=$(cd internal/simulator && "$bin/simulator.test" -test.run '^$' \
    -test.bench 'BenchmarkSimulatorInstrumentationRatio$' -test.benchtime 151x |
    awk '/^Benchmark/ {for (i = 1; i < NF; i++) if ($(i + 1) == "off/on") print $i}')
echo "  median disabled/enabled ratio of 151 pairs: ${median} (bound ${bound})"
awk -v m="$median" -v b="$bound" 'BEGIN {
    if (m == "" || m > b) {
        printf "FAIL: disabled-path instrumentation overhead: the disabled run takes %s x the enabled one\n", m
        exit 1
    }
}'
