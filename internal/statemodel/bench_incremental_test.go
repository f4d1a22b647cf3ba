package statemodel_test

import (
	"sync"
	"testing"

	"boedag/internal/dag"
	"boedag/internal/statemodel"
	"boedag/internal/synthdag"
)

// BenchmarkEstimate10kJobs is the scale target: one full estimate of
// the canonical synth-10k workflow (100 layers × 100 jobs) on a warm
// scratch. The first iteration pays the cold dist solves; steady state
// measures the heap-driven loop plus cache lookups.
func BenchmarkEstimate10kJobs(b *testing.B) {
	flow := synthdag.Generate(synthdag.Config{Layers: 100, Width: 100, FanIn: 3, Seed: 1})
	est := newEstimator(statemodel.NormalMode, false)
	scratch := statemodel.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateWith(scratch, flow); err != nil {
			b.Fatal(err)
		}
	}
}

// The re-estimate benchmarks model a progress indicator ticking a
// 1000-job run: two snapshots differing in a single job's task count,
// estimated alternately. Incremental keeps one warm scratch across
// ticks; the from-scratch variant is the reference path on the same
// scratch.
var reestimateFixture struct {
	once  sync.Once
	flow  *dag.Workflow
	snaps [2]statemodel.Snapshot
}

func reestimateSetup(b *testing.B) (*dag.Workflow, [2]statemodel.Snapshot) {
	f := &reestimateFixture
	f.once.Do(func() {
		f.flow = synthdag.Generate(synthdag.Config{Layers: 20, Width: 50, FanIn: 3, Seed: 1})
		plan, err := newEstimator(statemodel.NormalMode, false).Estimate(f.flow)
		if err != nil {
			b.Fatal(err)
		}
		f.snaps[0] = snapshotFromPlan(f.flow, plan, plan.Makespan/2)
		// The delta: one mapping job one task further along.
		second := statemodel.Snapshot{Elapsed: f.snaps[0].Elapsed,
			Jobs: make(map[string]statemodel.JobSnapshot, len(f.snaps[0].Jobs))}
		touched := false
		for id, js := range f.snaps[0].Jobs {
			if !touched && js.Phase == statemodel.JobMapping {
				js.TasksDone++
				touched = true
			}
			second.Jobs[id] = js
		}
		if !touched {
			b.Fatal("no mapping job at the snapshot instant")
		}
		f.snaps[1] = second
	})
	return f.flow, f.snaps
}

func benchReestimate(b *testing.B, disable bool) {
	flow, snaps := reestimateSetup(b)
	est := newEstimator(statemodel.NormalMode, disable)
	scratch := statemodel.NewScratch()
	if _, _, err := est.EstimateRemainingWith(scratch, flow, snaps[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := est.EstimateRemainingWith(scratch, flow, snaps[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIncrementalReestimate(b *testing.B) { benchReestimate(b, false) }

func BenchmarkFromScratchReestimate(b *testing.B) { benchReestimate(b, true) }

// BenchmarkEstimate1kJobs is one cold estimate of synth-1k (20 layers ×
// 50 jobs): a fresh scratch per iteration, so every task-time solve is
// paid, as for a request the service has not seen.
func BenchmarkEstimate1kJobs(b *testing.B) {
	flow := synthdag.Generate(synthdag.Config{Layers: 20, Width: 50, FanIn: 3, Seed: 1})
	est := newEstimator(statemodel.NormalMode, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateWith(statemodel.NewScratch(), flow); err != nil {
			b.Fatal(err)
		}
	}
}
