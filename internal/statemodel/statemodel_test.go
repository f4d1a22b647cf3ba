package statemodel

import (
	"testing"
	"time"

	"boedag/internal/boe"
	"boedag/internal/cluster"
	"boedag/internal/dag"
	"boedag/internal/metrics"
	"boedag/internal/profile"
	"boedag/internal/simulator"
	"boedag/internal/units"
	"boedag/internal/workload"
)

func spec() cluster.Spec { return cluster.PaperCluster() }

func boeTimer() *BOETimer {
	return &BOETimer{Model: boe.New(spec()), TaskStartOverhead: time.Second}
}

func estimate(t *testing.T, flow *dag.Workflow, opt Options) *Plan {
	t.Helper()
	plan, err := New(spec(), boeTimer(), opt).Estimate(flow)
	if err != nil {
		t.Fatalf("Estimate(%s): %v", flow.Name, err)
	}
	return plan
}

func simulate(t *testing.T, flow *dag.Workflow) *simulator.Result {
	t.Helper()
	res, err := simulator.New(spec(), simulator.Options{Seed: 1}).Run(flow)
	if err != nil {
		t.Fatalf("simulate(%s): %v", flow.Name, err)
	}
	return res
}

func TestRejectsInvalidWorkflow(t *testing.T) {
	if _, err := New(spec(), boeTimer(), Options{}).Estimate(&dag.Workflow{Name: "x"}); err == nil {
		t.Fatal("invalid workflow accepted")
	}
}

func TestPlanInvariants(t *testing.T) {
	flow := dag.Parallel("WC+TS",
		dag.Single(workload.WordCount(20*units.GB)),
		dag.Single(workload.TeraSort(20*units.GB)))
	plan := estimate(t, flow, Options{})
	if plan.Makespan <= 0 {
		t.Fatal("non-positive makespan")
	}
	if len(plan.Stages) != 4 {
		t.Fatalf("plan has %d stages, want 4", len(plan.Stages))
	}
	for _, s := range plan.Stages {
		if s.End <= s.Start {
			t.Errorf("stage %s/%s: End <= Start", s.Job, s.Stage)
		}
		if s.TaskTime <= 0 {
			t.Errorf("stage %s/%s: no task time", s.Job, s.Stage)
		}
		if s.Parallelism <= 0 {
			t.Errorf("stage %s/%s: no parallelism", s.Job, s.Stage)
		}
		if s.End > plan.Makespan {
			t.Errorf("stage %s/%s ends after makespan", s.Job, s.Stage)
		}
	}
	for i, st := range plan.States {
		if st.Seq != i+1 {
			t.Errorf("state %d has seq %d", i, st.Seq)
		}
		if st.Duration() < 0 {
			t.Errorf("state %d has negative duration", st.Seq)
		}
		if len(st.Running) == 0 || len(st.Parallelism) == 0 {
			t.Errorf("state %d is empty", st.Seq)
		}
	}
	if got := plan.StageOf("WC/WC", workload.Map); got == nil {
		t.Error("StageOf(WC/WC, map) = nil")
	}
	if got := plan.StageOf("nope", workload.Map); got != nil {
		t.Error("StageOf(nope) found something")
	}
}

// TestBOEAccuracySingleJobs: the BOE-driven estimator must land close to
// the simulator for solo micro jobs.
func TestBOEAccuracySingleJobs(t *testing.T) {
	for _, p := range []workload.JobProfile{
		workload.WordCount(20 * units.GB),
		workload.TeraSort(20 * units.GB),
		workload.TeraSort3R(20 * units.GB),
	} {
		flow := dag.Single(p)
		plan := estimate(t, flow, Options{})
		res := simulate(t, flow)
		acc := metrics.Accuracy(plan.Makespan, res.Makespan)
		if acc < 0.80 {
			t.Errorf("%s: BOE end-to-end accuracy %.2f (est %v, actual %v), want ≥ 0.80",
				p.Name, acc, plan.Makespan, res.Makespan)
		}
	}
}

// TestProfileAccuracyParallelJobs mirrors the Table III methodology on
// one hybrid workflow: profile-driven estimation within ~15% end to end.
func TestProfileAccuracyParallelJobs(t *testing.T) {
	flow := dag.Parallel("WC+TS",
		dag.Single(workload.WordCount(30*units.GB)),
		dag.Single(workload.TeraSort(30*units.GB)))
	res := simulate(t, flow)
	timer := &ProfileTimer{Profiles: profile.Capture(res)}
	for _, mode := range Modes() {
		plan, err := New(spec(), timer, Options{Mode: mode}).Estimate(flow)
		if err != nil {
			t.Fatal(err)
		}
		acc := metrics.Accuracy(plan.Makespan, res.Makespan)
		if acc < 0.85 {
			t.Errorf("%s: accuracy %.3f (est %v, actual %v), want ≥ 0.85",
				mode, acc, plan.Makespan, res.Makespan)
		}
	}
}

func TestSlotLimitLowersParallelism(t *testing.T) {
	flow := dag.Single(workload.WordCount(20 * units.GB))
	full := estimate(t, flow, Options{})
	limited := estimate(t, flow, Options{SlotLimit: 22})
	if limited.Makespan <= full.Makespan {
		t.Errorf("slot-limited estimate %v not slower than full %v",
			limited.Makespan, full.Makespan)
	}
	for _, s := range limited.Stages {
		if s.Parallelism > 22 {
			t.Errorf("stage %s/%s parallelism %d exceeds slot limit", s.Job, s.Stage, s.Parallelism)
		}
	}
}

func TestDiscreteWavesAtLeastFluid(t *testing.T) {
	flow := dag.Single(workload.WordCount(20 * units.GB))
	fluid := estimate(t, flow, Options{})
	waves := estimate(t, flow, Options{DiscreteWaves: true})
	if waves.Makespan < fluid.Makespan-time.Millisecond {
		t.Errorf("discrete waves (%v) predicted less than fluid (%v)",
			waves.Makespan, fluid.Makespan)
	}
}

func TestNormalModeAddsStragglerTail(t *testing.T) {
	flow := dag.Single(workload.TeraSort(20 * units.GB))
	mean := estimate(t, flow, Options{Mode: MeanMode})
	normal := estimate(t, flow, Options{Mode: NormalMode})
	if normal.Makespan <= mean.Makespan {
		t.Errorf("normal mode (%v) should exceed mean mode (%v) under skew",
			normal.Makespan, mean.Makespan)
	}
}

func TestDependentJobsSequenced(t *testing.T) {
	a := workload.WordCount(5 * units.GB)
	a.Name = "A"
	b := workload.TeraSort(5 * units.GB)
	b.Name = "B"
	flow := &dag.Workflow{Name: "chain", Jobs: []dag.Job{
		{ID: "A", Profile: a},
		{ID: "B", Profile: b, Deps: []string{"A"}},
	}}
	plan := estimate(t, flow, Options{})
	aEnd := plan.StageOf("A", workload.Reduce).End
	bStart := plan.StageOf("B", workload.Map).Start
	if bStart < aEnd {
		t.Errorf("B map starts %v before A ends %v", bStart, aEnd)
	}
	if gap := bStart - aEnd; gap < 1900*time.Millisecond {
		t.Errorf("submit overhead gap %v, want ≈ 2s", gap)
	}
}

func TestExpectedMaxNormal(t *testing.T) {
	mean := 10 * time.Second
	std := 2 * time.Second
	if got := ExpectedMaxNormal(mean, std, 1); got != mean {
		t.Errorf("n=1: %v, want mean", got)
	}
	if got := ExpectedMaxNormal(mean, 0, 50); got != mean {
		t.Errorf("σ=0: %v, want mean", got)
	}
	// Known constants: E[max of 2] = μ + 0.5642σ.
	want := mean + time.Duration(0.5642*float64(std))
	if got := ExpectedMaxNormal(mean, std, 2); got < want-time.Millisecond || got > want+time.Millisecond {
		t.Errorf("n=2: %v, want %v", got, want)
	}
	// Monotone in n.
	prev := time.Duration(0)
	for _, n := range []int{1, 2, 3, 4, 8, 16, 64, 256} {
		got := ExpectedMaxNormal(mean, std, n)
		if got < prev {
			t.Errorf("ExpectedMaxNormal not monotone at n=%d: %v < %v", n, got, prev)
		}
		prev = got
	}
	// Roughly √(2 ln n) growth: for n=100, ≈ μ + 2.5σ.
	got := ExpectedMaxNormal(mean, std, 100)
	if got < mean+2*std || got > mean+3*std {
		t.Errorf("n=100: %v, want within [μ+2σ, μ+3σ]", got)
	}
}

func TestSkewModeStrings(t *testing.T) {
	want := map[SkewMode]string{
		MeanMode:   "Alg1-Mean",
		MedianMode: "Alg1-Mid",
		NormalMode: "Alg2-Normal",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
	if len(Modes()) != 3 {
		t.Errorf("Modes() has %d entries", len(Modes()))
	}
}

func TestParseSkewMode(t *testing.T) {
	for _, c := range []struct {
		name string
		want SkewMode
		err  string
	}{
		{name: "", want: MeanMode},
		{name: "mean", want: MeanMode},
		{name: "median", want: MedianMode},
		{name: "mid", want: MedianMode},
		{name: "normal", want: NormalMode},
		{name: "empirical", err: `unknown skew mode "empirical" (mean | median | normal)`},
		{name: "Mean", err: `unknown skew mode "Mean" (mean | median | normal)`},
	} {
		got, err := ParseSkewMode(c.name)
		switch {
		case c.err != "":
			if err == nil || err.Error() != c.err {
				t.Errorf("ParseSkewMode(%q) error = %v, want %q", c.name, err, c.err)
			}
		case err != nil || got != c.want:
			t.Errorf("ParseSkewMode(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
}

func TestTaskTimeDistByMode(t *testing.T) {
	d := TaskTimeDist{Mean: 10 * time.Second, Median: 8 * time.Second, Std: time.Second}
	if d.ByMode(MeanMode) != 10*time.Second {
		t.Error("mean mode wrong")
	}
	if d.ByMode(MedianMode) != 8*time.Second {
		t.Error("median mode wrong")
	}
	if d.ByMode(NormalMode) != 10*time.Second {
		t.Error("normal mode should use the mean")
	}
}

func TestProfileTimerFallback(t *testing.T) {
	p := workload.WordCount(5 * units.GB)
	groups := []boe.TaskGroup{{Profile: p, Stage: workload.Map, SubStage: boe.AggregateSubStage, Parallelism: 10}}

	empty := &ProfileTimer{Profiles: &profile.Set{}}
	if d := empty.TaskDist("WC", groups, 0); d.Mean != 0 {
		t.Errorf("no profile, no fallback: dist = %+v, want zero", d)
	}
	withFallback := &ProfileTimer{Profiles: &profile.Set{}, Fallback: boeTimer()}
	if d := withFallback.TaskDist("WC", groups, 0); d.Mean <= 0 {
		t.Error("fallback not consulted")
	}
}

func TestPendingTasksHoldsWaveContainers(t *testing.T) {
	j := &estJob{profile: workload.WordCount(100 * units.GB), stage: workload.Reduce}
	j.tasksLeft = 33 // half a 66-task wave drained fluidly
	j.lastDelta = 66
	if got := j.pendingTasks(); got != 66 {
		t.Errorf("pendingTasks = %d, want 66 (running containers still held)", got)
	}
	j.lastDelta = 0
	if got := j.pendingTasks(); got != 33 {
		t.Errorf("pendingTasks = %d, want 33", got)
	}
	j.tasksLeft = 0.2
	if got := j.pendingTasks(); got != 1 {
		t.Errorf("pendingTasks = %d, want minimum 1", got)
	}
}

func TestEstimationIsFast(t *testing.T) {
	flow := dag.Parallel("big",
		dag.Single(workload.WordCount(100*units.GB)),
		dag.Single(workload.TeraSort(100*units.GB)))
	start := time.Now()
	estimate(t, flow, Options{})
	if d := time.Since(start); d > time.Second {
		t.Errorf("estimation took %v, paper requires < 1s", d)
	}
}

func TestEstimateRemainingDirect(t *testing.T) {
	flow := dag.Parallel("WC+TS",
		dag.Single(workload.WordCount(20*units.GB)),
		dag.Single(workload.TeraSort(20*units.GB)))
	est := New(spec(), boeTimer(), Options{})
	full, err := est.Estimate(flow)
	if err != nil {
		t.Fatal(err)
	}

	// Half of WC's maps done and a wave in flight; TS untouched.
	snap := Snapshot{Jobs: map[string]JobSnapshot{
		"WC/WC": {Phase: JobMapping, TasksDone: 80, TasksRunning: 40, RunningProgress: 0.5},
	}}
	left, plan, err := est.EstimateRemainingWith(nil, flow, snap)
	if err != nil {
		t.Fatal(err)
	}
	if left <= 0 || left >= full.Makespan {
		t.Errorf("remaining %v should be positive and below the full %v", left, full.Makespan)
	}
	if plan.StageOf("TS/TS", workload.Map) == nil {
		t.Error("pending job missing from the remaining plan")
	}

	// All finished → zero.
	done := Snapshot{Jobs: map[string]JobSnapshot{
		"WC/WC": {Phase: JobFinished},
		"TS/TS": {Phase: JobFinished},
	}}
	left, _, err = est.EstimateRemainingWith(nil, flow, done)
	if err != nil {
		t.Fatal(err)
	}
	if left != 0 {
		t.Errorf("remaining after completion = %v", left)
	}

	// Reducing phase snapshot.
	reducing := Snapshot{Jobs: map[string]JobSnapshot{
		"WC/WC": {Phase: JobFinished},
		"TS/TS": {Phase: JobReducing, TasksDone: 10, TasksRunning: 56},
	}}
	left2, _, err := est.EstimateRemainingWith(nil, flow, reducing)
	if err != nil {
		t.Fatal(err)
	}
	if left2 <= 0 || left2 >= left+full.Makespan {
		t.Errorf("reducing-phase remaining = %v", left2)
	}

	// Impossible snapshot rejected.
	bad := Snapshot{Jobs: map[string]JobSnapshot{
		"WC/WC": {Phase: JobMapping, TasksDone: 1 << 20},
	}}
	if _, _, err := est.EstimateRemainingWith(nil, flow, bad); err == nil {
		t.Error("over-done snapshot accepted")
	}
	if _, _, err := est.EstimateRemainingWith(nil, &dag.Workflow{Name: "x"}, Snapshot{}); err == nil {
		t.Error("invalid workflow accepted")
	}
}

func TestEmpiricalModeUsesSample(t *testing.T) {
	flow := dag.Single(workload.TeraSort(20 * units.GB))
	res := simulate(t, flow)
	timer := &ProfileTimer{Profiles: profile.Capture(res)}

	emp, err := New(spec(), timer, Options{Mode: EmpiricalMode}).Estimate(flow)
	if err != nil {
		t.Fatal(err)
	}
	acc := metrics.Accuracy(emp.Makespan, res.Makespan)
	if acc < 0.7 {
		t.Errorf("empirical-mode accuracy %.2f (est %v, actual %v)", acc, emp.Makespan, res.Makespan)
	}

	// Without a sample the mode degrades to the normal fit and still works.
	noSample, err := New(spec(), boeTimer(), Options{Mode: EmpiricalMode}).Estimate(flow)
	if err != nil {
		t.Fatal(err)
	}
	if noSample.Makespan <= 0 {
		t.Error("sample-less empirical estimate empty")
	}
}

func TestAllModesAndStrings(t *testing.T) {
	all := AllModes()
	if len(all) != 4 || all[3] != EmpiricalMode {
		t.Errorf("AllModes = %v", all)
	}
	if EmpiricalMode.String() != "Ext-Empirical" {
		t.Errorf("empirical mode string = %q", EmpiricalMode.String())
	}
	if s := SkewMode(99).String(); s != "SkewMode(?)" {
		t.Errorf("unknown mode string = %q", s)
	}
	if s := JobPhase(99).String(); s != "phase(?)" {
		t.Errorf("unknown phase string = %q", s)
	}
}

func TestStateEstimateDuration(t *testing.T) {
	st := StateEstimate{Start: 2 * time.Second, End: 5 * time.Second}
	if st.Duration() != 3*time.Second {
		t.Errorf("Duration = %v", st.Duration())
	}
}

func TestFailureCorrectionInflatesEstimate(t *testing.T) {
	flow := dag.Single(workload.WordCount(20 * units.GB))
	clean, err := New(spec(), boeTimer(), Options{}).Estimate(flow)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := New(spec(), boeTimer(), Options{TaskFailureProb: 0.4}).Estimate(flow)
	if err != nil {
		t.Fatal(err)
	}
	ratio := faulty.Makespan.Seconds() / clean.Makespan.Seconds()
	if ratio < 1.1 || ratio > 1.3 {
		t.Errorf("retry inflation ratio = %.2f, want ≈ 1.2 (1 + p/2)", ratio)
	}
}
