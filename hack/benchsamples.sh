#!/usr/bin/env bash
# benchsamples.sh prints the regression gate's micro-benchmark samples:
# raw `go test -bench -benchmem` output with five samples of every gated
# benchmark. hack/verify.sh runs it and holds the result against
# hack/bench_baseline.txt with hack/benchgate; after an intended change
# in performance, re-record the baseline on the gating machine with
#
#   hack/benchsamples.sh > hack/bench_baseline.txt
#
# Each -benchtime is a fixed iteration count sized so one sample takes
# about half a second, long enough to be stable; the estimates that take
# longer than that on their own run once per sample. BenchmarkExplainDistinct
# runs 4000 explanations (about 1.3 s) so that anything a request leaves
# behind in the server fills its 1,024-entry bound and shows in ns/op. The five samples of
# a benchmark are taken in five rounds over the whole set rather than
# back to back, so a burst of load from elsewhere on the machine slows
# one sample of each benchmark instead of all five of one. The test
# binaries are built once, before the first round.
set -euo pipefail
cd "$(dirname "$0")/.."

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
for pkg in . internal/statemodel internal/sched internal/fleet internal/serve; do
    go test -c -o "$bin/${pkg//\//_}.test" "./$pkg"
done

# sample runs the benchmarks matching $2 in package directory $1 once,
# with -benchtime $3, from that directory as `go test` would.
sample() {
    (cd "$1" && "$bin/${1//\//_}.test" -test.run '^$' -test.bench "$2" \
        -test.benchtime "$3" -test.benchmem -test.count 1)
}

for _ in 1 2 3 4 5; do
    sample internal/statemodel 'BenchmarkEstimatorAllocs$' 5000x
    sample internal/statemodel 'BenchmarkDistinctEstimates$' 256x
    sample . 'BenchmarkFigure4BOEExample$' 400000x
    sample internal/statemodel 'BenchmarkEstimate1kJobs$|BenchmarkFromScratchReestimate$' 1x
    sample internal/statemodel 'BenchmarkIncrementalReestimate$' 2x
    sample internal/sched 'BenchmarkHierarchicalAllocate$' 3500x
    sample internal/sched 'BenchmarkStreamPolicySweep$' 6x
    sample internal/fleet 'BenchmarkFleetEstimate$' 2000x
    sample internal/serve 'BenchmarkExplainDistinct$' 4000x
done
