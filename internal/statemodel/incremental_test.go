package statemodel_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"boedag/internal/boe"
	"boedag/internal/cluster"
	"boedag/internal/dag"
	"boedag/internal/experiments"
	"boedag/internal/obs"
	"boedag/internal/statemodel"
	"boedag/internal/synthdag"
	"boedag/internal/workload"
)

// newEstimator mirrors the serving path's construction: BOE timer on the
// paper cluster. disable selects the from-scratch reference path.
func newEstimator(mode statemodel.SkewMode, disable bool) *statemodel.Estimator {
	spec := cluster.PaperCluster()
	timer := &statemodel.BOETimer{Model: boe.New(spec), TaskStartOverhead: time.Second}
	return statemodel.New(spec, timer, statemodel.Options{Mode: mode, DisableIncremental: disable})
}

func planJSON(t *testing.T, p *statemodel.Plan) []byte {
	t.Helper()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("marshal plan: %v", err)
	}
	return b
}

// stageIndex indexes a plan's stages by (job, stage) for snapshot
// reconstruction without the O(stages) StageOf scan per job.
func stageIndex(p *statemodel.Plan) map[string][2]*statemodel.StageEstimate {
	idx := make(map[string][2]*statemodel.StageEstimate, len(p.Stages))
	for i := range p.Stages {
		se := &p.Stages[i]
		pair := idx[se.Job]
		pair[se.Stage] = se
		idx[se.Job] = pair
	}
	return idx
}

// snapshotFromPlan reconstructs the observed mid-flight state a resource
// manager would report at instant `at` of the plan's predicted run.
func snapshotFromPlan(flow *dag.Workflow, plan *statemodel.Plan, at time.Duration) statemodel.Snapshot {
	idx := stageIndex(plan)
	snap := statemodel.Snapshot{Elapsed: at, Jobs: make(map[string]statemodel.JobSnapshot, len(flow.Jobs))}
	frac := func(se *statemodel.StageEstimate) float64 {
		if se.End <= se.Start {
			return 0
		}
		return float64(at-se.Start) / float64(se.End-se.Start)
	}
	for _, j := range flow.Jobs {
		pair := idx[j.ID]
		ms, rs := pair[workload.Map], pair[workload.Reduce]
		js := statemodel.JobSnapshot{}
		switch {
		case ms == nil || ms.Start >= at:
			js.Phase = statemodel.JobPending
		case rs != nil && rs.End <= at, rs == nil && ms.End <= at:
			js.Phase = statemodel.JobFinished
		case rs != nil && rs.Start < at:
			js.Phase = statemodel.JobReducing
			js.TasksDone = int(frac(rs) * float64(j.Profile.Tasks(workload.Reduce)))
		default:
			js.Phase = statemodel.JobMapping
			js.TasksDone = int(frac(ms) * float64(j.Profile.Tasks(workload.Map)))
		}
		snap.Jobs[j.ID] = js
	}
	return snap
}

// TestIncrementalMatchesFromScratchRegistry holds the incremental path
// to byte-identical plan JSON against the from-scratch reference across
// the entire workflow registry in every estimate mode. The incremental
// side shares one warm scratch across all flows and modes — the
// worst case for cross-call cache pollution.
func TestIncrementalMatchesFromScratchRegistry(t *testing.T) {
	cfg := experiments.Default()
	scratch := statemodel.NewScratch()
	for _, name := range experiments.WorkflowNames() {
		if name == "synth-10k" {
			// The O(n²·iterations) from-scratch reference is minutes of CPU
			// at 10k jobs. Scale equivalence is covered at synth-1k here;
			// the 10k point runs the incremental path in
			// BenchmarkEstimate10kJobs.
			continue
		}
		flow, err := experiments.BuildNamed(name, cfg)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		modes := statemodel.AllModes()
		if name == "synth-1k" {
			modes = modes[:1] // one mode keeps the 1k point affordable
		}
		for _, mode := range modes {
			ref, err := newEstimator(mode, true).Estimate(flow)
			if err != nil {
				t.Fatalf("%s/%s from-scratch: %v", name, mode, err)
			}
			inc, err := newEstimator(mode, false).EstimateWith(scratch, flow)
			if err != nil {
				t.Fatalf("%s/%s incremental: %v", name, mode, err)
			}
			if !bytes.Equal(planJSON(t, ref), planJSON(t, inc)) {
				t.Errorf("%s/%s: incremental plan differs from from-scratch", name, mode)
			}
		}
	}
}

// TestIncrementalMatchesFromScratchSynthetic sweeps ≥20 seeded layered
// DAG shapes, checking Estimate and a mid-flight EstimateRemaining for
// byte equality in a rotating mode, all on one shared warm scratch.
func TestIncrementalMatchesFromScratchSynthetic(t *testing.T) {
	scratch := statemodel.NewScratch()
	modes := statemodel.AllModes()
	shapes := []synthdag.Config{
		{Layers: 2, Width: 3, FanIn: 1},
		{Layers: 4, Width: 6, FanIn: 2},
		{Layers: 6, Width: 4, FanIn: 3},
		{Layers: 3, Width: 12, FanIn: 4},
		{Layers: 8, Width: 2, FanIn: 2},
	}
	n := 0
	for _, shape := range shapes {
		for seed := int64(1); seed <= 4; seed++ {
			shape.Seed = seed
			flow := synthdag.Generate(shape)
			mode := modes[n%len(modes)]
			n++
			ref, err := newEstimator(mode, true).Estimate(flow)
			if err != nil {
				t.Fatalf("%s/%s from-scratch: %v", flow.Name, mode, err)
			}
			inc, err := newEstimator(mode, false).EstimateWith(scratch, flow)
			if err != nil {
				t.Fatalf("%s/%s incremental: %v", flow.Name, mode, err)
			}
			if !bytes.Equal(planJSON(t, ref), planJSON(t, inc)) {
				t.Errorf("%s/%s: incremental plan differs from from-scratch", flow.Name, mode)
			}

			snap := snapshotFromPlan(flow, ref, ref.Makespan/2)
			_, refRem, err := newEstimator(mode, true).EstimateRemainingWith(nil, flow, snap)
			if err != nil {
				t.Fatalf("%s/%s remaining from-scratch: %v", flow.Name, mode, err)
			}
			_, incRem, err := newEstimator(mode, false).EstimateRemainingWith(scratch, flow, snap)
			if err != nil {
				t.Fatalf("%s/%s remaining incremental: %v", flow.Name, mode, err)
			}
			if !bytes.Equal(planJSON(t, refRem), planJSON(t, incRem)) {
				t.Errorf("%s/%s: incremental remaining-plan differs from from-scratch", flow.Name, mode)
			}
		}
	}
	if n < 20 {
		t.Fatalf("only %d synthetic DAGs exercised, want ≥20", n)
	}
}

// TestConcurrentEstimatesSharePool hammers the internal scratch pool
// from many goroutines (the evalpool / batch fan-out shape) and checks
// every result against its precomputed reference bytes. Meant to run
// under -race.
func TestConcurrentEstimatesSharePool(t *testing.T) {
	flows := []*dag.Workflow{
		synthdag.Generate(synthdag.Config{Layers: 3, Width: 4, FanIn: 2, Seed: 1}),
		synthdag.Generate(synthdag.Config{Layers: 2, Width: 6, FanIn: 3, Seed: 2}),
		synthdag.Generate(synthdag.Config{Layers: 5, Width: 2, FanIn: 1, Seed: 3}),
		dag.Single(workload.WordCount(20 * 1 << 30)),
	}
	est := newEstimator(statemodel.NormalMode, false)
	want := make([][]byte, len(flows))
	for i, f := range flows {
		p, err := newEstimator(statemodel.NormalMode, true).Estimate(f)
		if err != nil {
			t.Fatalf("reference %s: %v", f.Name, err)
		}
		want[i] = planJSON(t, p)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 25; it++ {
				i := (g + it) % len(flows)
				p, err := est.Estimate(flows[i])
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %v", g, err)
					return
				}
				b, err := json.Marshal(p)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(b, want[i]) {
					errs <- fmt.Errorf("goroutine %d: %s: concurrent plan diverged", g, flows[i].Name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRepeatEstimateSolvesNothing pins the incremental contract at the
// metrics level: re-estimating an unchanged workflow on a warm scratch
// must carry every task-time distribution forward (zero dirty solves),
// and a layer of identical profile classes must collapse to far fewer
// solves than running jobs even when cold.
func TestRepeatEstimateSolvesNothing(t *testing.T) {
	spec := cluster.PaperCluster()
	timer := &statemodel.BOETimer{Model: boe.New(spec), TaskStartOverhead: time.Second}

	run := func(scratch *statemodel.Scratch, flow *dag.Workflow) (solves, reuse int64) {
		reg := obs.NewRegistry()
		est := statemodel.New(spec, timer, statemodel.Options{
			Mode:    statemodel.NormalMode,
			Observe: obs.Options{Metrics: reg},
		})
		if _, err := est.EstimateWith(scratch, flow); err != nil {
			t.Fatal(err)
		}
		return reg.Counter("est_dist_solves").Value(), reg.Counter("est_dist_reuse").Value()
	}

	scratch := statemodel.NewScratch()
	flow := synthdag.Generate(synthdag.Config{Layers: 4, Width: 10, FanIn: 2, Seed: 5})
	coldSolves, _ := run(scratch, flow)
	if coldSolves == 0 {
		t.Fatal("cold run reported zero solves")
	}
	warmSolves, warmReuse := run(scratch, flow)
	if warmSolves != 0 {
		t.Errorf("warm re-estimate solved %d dists, want 0 (all carried forward)", warmSolves)
	}
	if warmReuse == 0 {
		t.Error("warm re-estimate reported zero reuse")
	}

	// A single wide layer runs its jobs in lockstep, so every iteration
	// holds many jobs of the same (class, delta): one solve per class,
	// the rest reused even on a cold cache.
	wide := synthdag.Generate(synthdag.Config{Layers: 1, Width: 40, Seed: 3})
	wideSolves, wideReuse := run(statemodel.NewScratch(), wide)
	if wideReuse <= wideSolves {
		t.Errorf("wide layer: reuse %d ≤ solves %d; identical classes should collapse", wideReuse, wideSolves)
	}
}

// TestDisableIncrementalSolvesEverything checks the reference path
// really is from-scratch: no reuse ever.
func TestDisableIncrementalSolvesEverything(t *testing.T) {
	flow := synthdag.Generate(synthdag.Config{Layers: 3, Width: 6, FanIn: 2, Seed: 2})
	reg := obs.NewRegistry()
	spec := cluster.PaperCluster()
	est := statemodel.New(spec,
		&statemodel.BOETimer{Model: boe.New(spec), TaskStartOverhead: time.Second},
		statemodel.Options{DisableIncremental: true, Observe: obs.Options{Metrics: reg}})
	scratch := statemodel.NewScratch()
	for i := 0; i < 2; i++ {
		if _, err := est.EstimateWith(scratch, flow); err != nil {
			t.Fatal(err)
		}
	}
	if v := reg.Counter("est_dist_reuse").Value(); v != 0 {
		t.Errorf("from-scratch path reused %d dists, want 0", v)
	}
	if v := reg.Counter("est_dist_solves").Value(); v == 0 {
		t.Error("from-scratch path reported zero solves")
	}
}

// TestWaterfillCounters pins the est_waterfill_* counters on the
// layered shapes of the estimate-scale benchmark: a fixed estimate on a
// fresh scratch reports the same counts every time, the solver's memo
// answers some of its solves, no solve runs into the rebind bound, and
// the solves that did not come from the memo needed some rebinds but
// fewer than one each.
func TestWaterfillCounters(t *testing.T) {
	names := []string{"est_waterfill_solves", "est_waterfill_memo_hits", "est_waterfill_rebinds", "est_waterfill_capped"}
	count := func(flow *dag.Workflow, mode statemodel.SkewMode) [4]int64 {
		reg := obs.NewRegistry()
		spec := cluster.PaperCluster()
		est := statemodel.New(spec, &statemodel.BOETimer{Model: boe.New(spec), TaskStartOverhead: time.Second},
			statemodel.Options{Mode: mode, Observe: obs.Options{Metrics: reg}})
		if _, err := est.EstimateWith(statemodel.NewScratch(), flow); err != nil {
			t.Fatal(err)
		}
		var c [4]int64
		for i, name := range names {
			c[i] = reg.Counter(name).Value()
		}
		return c
	}
	modes := []statemodel.SkewMode{statemodel.MeanMode, statemodel.MedianMode, statemodel.NormalMode}
	var total [4]int64
	for i, shape := range [][2]int{{10, 10}, {16, 10}, {12, 12}, {8, 16}, {25, 10}} {
		flow := synthdag.Generate(synthdag.Config{Layers: shape[0], Width: shape[1], FanIn: 3, Seed: int64(i + 1)})
		mode := modes[i%len(modes)]
		first, again := count(flow, mode), count(flow, mode)
		if first != again {
			t.Errorf("%dx%d: counts %v, then %v on the same estimate", shape[0], shape[1], first, again)
		}
		solves, hits, rebinds := first[0], first[1], first[2]
		if solves == 0 || rebinds >= solves-hits {
			t.Errorf("%dx%d: %d solves, %d memo hits, %d rebinds", shape[0], shape[1], solves, hits, rebinds)
		}
		for k := range total {
			total[k] += first[k]
		}
	}
	if total[1] == 0 || total[2] == 0 {
		t.Errorf("no memo hit or no rebind over %d solves", total[0])
	}
	if total[3] != 0 {
		t.Errorf("%d of %d solves ran into the rebind bound", total[3], total[0])
	}
}
