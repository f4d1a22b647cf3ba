package statemodel

import (
	"testing"

	"boedag/internal/dag"
	"boedag/internal/synthdag"
	"boedag/internal/units"
	"boedag/internal/workload"
)

// benchFlow is a DAG wide and deep enough to exercise many workflow
// states: two parallel chains feeding the estimator's state loop.
func benchFlow() *dag.Workflow {
	return dag.Parallel("bench",
		dag.Chain("etl",
			workload.WordCount(40*units.GB),
			workload.TeraSort(20*units.GB),
			workload.WordCount(10*units.GB)),
		dag.Chain("report",
			workload.TeraSort(40*units.GB),
			workload.WordCount(20*units.GB)),
	)
}

// BenchmarkEstimatorAllocs guards the estimator's hot path: the state
// loop must reuse its scratch buffers instead of reallocating per
// iteration. Run with -benchmem and watch allocs/op.
func BenchmarkEstimatorAllocs(b *testing.B) {
	flow := benchFlow()
	est := New(spec(), boeTimer(), Options{})
	if _, err := est.Estimate(flow); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Estimate(flow); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistinctEstimates is the prediction daemon's traffic shape:
// the pooled Estimate over distinct synthetic DAGs, so a pooled scratch
// does not see a workflow it has solved before and the dist cache's
// bound, not its hits, sets what a run keeps. The cycle of 512 DAGs is
// longer than a gate sample (256 estimates): exact repeats would not
// reach the estimator in the daemon, whose response cache answers them.
func BenchmarkDistinctEstimates(b *testing.B) {
	flows := make([]*dag.Workflow, 512)
	for i := range flows {
		flows[i] = synthdag.Generate(synthdag.Config{Layers: 3 + i%4, Width: 6 + i%5, FanIn: 2, Seed: int64(i + 1)})
	}
	est := New(spec(), boeTimer(), Options{Mode: NormalMode})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Estimate(flows[i%len(flows)]); err != nil {
			b.Fatal(err)
		}
	}
}
