#!/usr/bin/env bash
# verify.sh — the repo's full verification gate:
#   gofmt cleanliness, go vet, the race-enabled test suite with the
#   per-package coverage gate (hack/coverage_baseline.txt), vet and tests
#   of the separate perfbench module, the trace
#   parser / request decoder / hierarchical allocator / cache snapshot
#   fuzz smokes, the scheduler property suite under -race, the fleet
#   smoke (sharded-tier race suites plus a 3-node perfbench fleet-hot
#   run with no failed request), one-shot benchmark smokes (parallel
#   sweep, node-aware simulation, a 10k-job estimate), the micro-benchmark
#   regression gate (repeated go-bench samples against
#   hack/bench_baseline.txt, with a self-check that an injected 1.3x
#   slowdown fails), the instrumentation-overhead guard
#   (hack/overhead_guard.sh: disabled-path observability must stay
#   within 5% of an instrumented run, on the median of paired ratios), the
#   OTLP export shape check, the explainability smoke (explain suite
#   under -race, /v1/explain conformance, Prometheus exposition golden),
#   and the full-scale Table III golden.
#
# Usage: hack/verify.sh [-quick]
#   -quick skips the full race detector run, the regression gate, and
#   the overhead benchmark (the streaming-bus tests and the incremental
#   equivalence suite still run under -race, and the coverage, perfbench,
#   fuzz, 10k-estimate and OTLP checks still run).
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "-quick" ]] && quick=1

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

# perfbench_check vets and tests the perfbench load generator. It is its
# own Go module, so the root ./... never reaches it: without this step a
# change to an internal package that perfbench uses would surface only
# when the benchmark is next run.
perfbench_check() {
    echo "== perfbench module vet + test =="
    (cd perfbench && go vet ./... && go test -count=1 ./...)
}

# otlp_check exports a real dagsim run that predicts and simulates as
# OTLP/JSON and validates the resourceSpans/resourceMetrics shape with
# hack/otlpcheck (hex ids, timestamps, resolvable parent links,
# populated metrics).
otlp_check() {
    echo "== OTLP export shape check =="
    local tmp
    tmp=$(mktemp -d)
    go run ./cmd/dagsim -workflow wc+ts -micro-gb 5 -mode mean -otlp-out "$tmp/otlp.json" > /dev/null
    go run ./hack/otlpcheck "$tmp/otlp.json"
    rm -rf "$tmp"
}

# coverage_gate compares the per-package coverage printed by a
# `go test -cover` run (captured in $1) against the floors in
# hack/coverage_baseline.txt, printing each package's delta and failing
# if any package slips under its floor.
coverage_gate() {
    echo "== coverage gate (vs hack/coverage_baseline.txt) =="
    awk '
        NR==FNR { if ($1 !~ /^#/ && NF == 2) { base[$1] = $2; order[++nb] = $1 }; next }
        $1 == "ok" {
            for (i = 3; i <= NF; i++) if ($i == "coverage:") {
                pct = $(i + 1); sub(/%/, "", pct); cur[$2] = pct
            }
        }
        END {
            fail = 0
            for (k = 1; k <= nb; k++) {
                p = order[k]
                if (!(p in cur)) {
                    printf "  %-34s floor %5.1f%%  NO COVERAGE REPORTED\n", p, base[p]
                    fail = 1; continue
                }
                printf "  %-34s %5.1f%%  (floor %5.1f%%, %+5.1f)\n", p, cur[p], base[p], cur[p] - base[p]
                if (cur[p] + 0 < base[p] + 0) fail = 1
            }
            for (p in cur) if (!(p in base))
                printf "  %-34s %5.1f%%  (new package: add a floor to the baseline)\n", p, cur[p]
            if (fail) { print "FAIL: coverage fell below baseline"; exit 1 }
        }
    ' hack/coverage_baseline.txt "$1"
}

# fuzz_smoke runs the input-boundary fuzzers briefly: the seed corpus
# plus a few seconds of mutation must finish without a crasher (the
# never-panic contracts of the trace parser and the serve request
# decoder, the agreement of the fleet's shard key with the serve
# handler's answer, the heap fills' agreement with the scan oracles, the
# fair-share solver's answers passing the equilibrium checker and
# agreeing with the Gauss-Seidel reference to 1e-9, the BOE state
# path's agreement with one solve at a time, and the one-pass estimate
# encoder's agreement with encoding/json).
fuzz_smoke() {
    echo "== trace parser fuzz smoke =="
    go test ./internal/calibrate -run '^$' \
        -fuzz '^FuzzParseChromeTrace$' -fuzztime "${FUZZTIME:-5s}"
    echo "== serve request decoder fuzz smoke =="
    go test ./internal/serve -run '^$' \
        -fuzz '^FuzzDecodeEstimateRequest$' -fuzztime "${FUZZTIME:-5s}"
    echo "== schedule decoder fuzz smoke =="
    go test ./internal/serve -run '^$' \
        -fuzz '^FuzzDecodeScheduleRequest$' -fuzztime "${FUZZTIME:-5s}"
    echo "== route key / handler agreement fuzz smoke =="
    go test ./internal/serve -run '^$' \
        -fuzz '^FuzzRouteKeyAgreement$' -fuzztime "${FUZZTIME:-5s}"
    echo "== hierarchical allocator fuzz smoke =="
    go test ./internal/sched -run '^$' \
        -fuzz '^FuzzHierarchyAllocate$' -fuzztime "${FUZZTIME:-5s}"
    echo "== heap fill vs scan oracle fuzz smoke =="
    go test ./internal/sched -run '^$' \
        -fuzz '^FuzzDRFMatchesScan$' -fuzztime "${FUZZTIME:-5s}"
    echo "== BOE state path vs per-solve path fuzz smoke =="
    go test ./internal/boe -run '^$' \
        -fuzz '^FuzzStatePathMatchesTaskTimeAtOn$' -fuzztime "${FUZZTIME:-5s}"
    echo "== estimate encoder vs MarshalIndent fuzz smoke =="
    go test ./internal/serve -run '^$' \
        -fuzz '^FuzzEncodeEstimateMatchesMarshalIndent$' -fuzztime "${FUZZTIME:-5s}"
    echo "== fair-share solver vs reference fuzz smoke =="
    go test ./internal/fairshare -run '^$' \
        -fuzz '^FuzzAllocateMatchesReference$' -fuzztime "${FUZZTIME:-5s}"
    echo "== cache snapshot reader fuzz smoke =="
    go test ./internal/cachestore -run '^$' \
        -fuzz '^FuzzReadSnapshot$' -fuzztime "${FUZZTIME:-5s}"
}

# table3_check regenerates the paper's Table III at full data scale
# (all 51 workflows under the three skew modes; about 15 s on 2 cores)
# and diffs it against the committed golden, with the two wall-time
# lines masked. A change that means to move these numbers regenerates
# the golden with the same command and updates EXPERIMENTS.md.
table3_check() {
    echo "== Table III at full scale vs internal/experiments/testdata/table3_full.golden =="
    go run ./cmd/benchtables -table 3 |
        sed -E 's/^(max estimation overhead|total wall time): .*/\1: <masked>/' |
        diff -u internal/experiments/testdata/table3_full.golden -
}

# fleet_smoke pins the sharded-fleet tier: the ring/proxy/fleettest
# suites under -race (byte-identity, fault injection, warm restart, SSE
# through the proxy), then a short perfbench fleet-hot run against an
# in-process 3-node fleet. perfbench exits non-zero on any failed
# request or any answer that differs from a solo server's bytes.
fleet_smoke() {
    echo "== fleet race check =="
    go test -race -count=1 ./internal/fleet/...
    echo "== fleet load smoke (3 nodes, no failed or mismatched request) =="
    bash perfbench/run.sh --workload fleet-hot --seed 1 --seconds 2 --trace 0 | sed 's/^/  /'
}

# explain_smoke pins the explainability surface: the internal/explain
# suite under -race (critical-path exactness, worker-count determinism,
# annotation projection), the /v1/explain conformance goldens, and the
# Prometheus exposition golden.
explain_smoke() {
    echo "== explain race check =="
    go test -race -count=1 ./internal/explain
    echo "== explain + prometheus golden check =="
    go test -count=1 -run 'TestConformance|TestExplainMatchesLibrary' ./internal/serve
    go test -count=1 -run 'TestWritePrometheus' ./internal/obs
}

# bench_smoke compiles and runs the parallel-sweep benchmark once per
# sub-benchmark — a cheap guard that the evalpool fan-out path stays
# runnable; real speedup numbers need a longer -benchtime on a
# multi-core machine. It also runs one node-aware simulation at paper
# scale, where every event solves each node's pools, and one estimate of
# the 10k-job synthetic workflow so the scale path stays runnable. The
# cold dist-cache counters of that workflow are pinned here too (tier-1
# pins the 1k-job ones).
bench_smoke() {
    echo "== parallel sweep benchmark smoke =="
    go test ./internal/experiments -run '^$' -bench BenchmarkSweepParallel -benchtime 1x
    echo "== node-aware simulator benchmark smoke =="
    go test ./internal/simulator -run '^$' -bench 'BenchmarkSimulateNodeAware$' -benchtime 1x
    echo "== 10k-job estimate smoke =="
    go test ./internal/statemodel -run '^$' \
        -bench 'BenchmarkEstimate10kJobs$' -benchtime 1x
    echo "== synth-10k cold dist counters =="
    go test ./internal/statemodel -count=1 -run '^TestColdDistCounters$' -synth10k
}

# incremental_smoke pins the incremental estimator's contract: the
# equivalence suite (incremental byte-identical to from-scratch across
# the registry, synthetic DAGs, and concurrent pooled-scratch use) under
# the race detector. The full gate covers it via the whole-suite race
# run.
incremental_smoke() {
    echo "== incremental equivalence race check =="
    go test -race -count=1 -run 'Incremental|SharePool|RepeatEstimate' \
        ./internal/statemodel
}

# regression_gate holds fresh go-bench samples (hack/benchsamples.sh)
# against the committed hack/bench_baseline.txt: a benchmark's ns/op or
# allocs/op fails when its median is more than 20% above the baseline's
# and its samples all lie above the baseline's. The self-check needs no
# baseline, so it holds on any machine: the fresh samples pass against
# themselves and fail once scaled by 1.3.
regression_gate() {
    echo "== perf regression gate (vs hack/bench_baseline.txt) =="
    local tmp out
    tmp=$(mktemp -d)
    hack/benchsamples.sh > "$tmp/fresh.txt"
    go run ./hack/benchgate -base hack/bench_baseline.txt -new "$tmp/fresh.txt" -tol 0.2
    echo "== regression gate self-check (fresh vs itself; x1.3 must fail) =="
    go run ./hack/benchgate -base "$tmp/fresh.txt" -new "$tmp/fresh.txt" -tol 0.2 > /dev/null
    if out=$(go run ./hack/benchgate -base "$tmp/fresh.txt" -new "$tmp/fresh.txt" \
        -tol 0.2 -inject 1.3 2> /dev/null); then
        echo "FAIL: the gate passed an injected 1.3x regression" >&2
        rm -rf "$tmp"
        exit 1
    fi
    echo "$out" | grep '^FAIL:' | sed 's/^FAIL:/  flagged at 1.3x:/'
    rm -rf "$tmp"
}

cover_out=$(mktemp)
trap 'rm -f "$cover_out"' EXIT

if [[ $quick -eq 1 ]]; then
    echo "== go test (quick, with coverage) =="
    go test -cover ./... | tee "$cover_out"
    coverage_gate "$cover_out"
    perfbench_check
    # The streaming bus and the evalpool engine are the genuinely
    # concurrent pieces: even the quick gate runs their tests under the
    # race detector.
    echo "== streaming race check =="
    go test -race -count=1 -run 'TestStream|TestTee|TestFollow|TestTracker' \
        ./internal/obs ./internal/progress
    echo "== evalpool race check =="
    go test -race -count=1 ./internal/evalpool
    go test -race -count=1 -run 'Parallel|Cache' \
        ./internal/experiments ./internal/tuning ./internal/calibrate
    # The prediction daemon is concurrency all the way down (coalescing,
    # admission queue, drain): its whole suite runs under -race even in
    # quick mode.
    echo "== serve race check =="
    go test -race -count=1 ./internal/serve
    # The scheduler's property/metamorphic suites, the stateless
    # allocators (the flat grant behind both engines, the hierarchy
    # behind the stream replay) and RunStream run under -race too.
    echo "== sched race check =="
    go test -race -count=1 ./internal/sched ./internal/sched/schedtest
    explain_smoke
    incremental_smoke
    fleet_smoke
    fuzz_smoke
    bench_smoke
    otlp_check
    table3_check
    echo "verify OK (quick)"
    exit 0
fi

echo "== go test -race (with coverage) =="
go test -race -cover ./... | tee "$cover_out"
coverage_gate "$cover_out"
perfbench_check

explain_smoke
fleet_smoke
fuzz_smoke
bench_smoke
otlp_check
table3_check
regression_gate

echo "== instrumentation overhead guard =="
hack/overhead_guard.sh

echo "verify OK"
