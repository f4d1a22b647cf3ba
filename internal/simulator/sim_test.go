package simulator

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"boedag/internal/cluster"
	"boedag/internal/dag"
	"boedag/internal/units"
	"boedag/internal/workload"
)

func spec() cluster.Spec { return cluster.PaperCluster() }

func wcFlow(gb int) *dag.Workflow {
	return dag.Single(workload.WordCount(units.Bytes(gb) * units.GB))
}

func run(t *testing.T, flow *dag.Workflow, opt Options) *Result {
	t.Helper()
	res, err := New(spec(), opt).Run(flow)
	if err != nil {
		t.Fatalf("Run(%s): %v", flow.Name, err)
	}
	return res
}

func TestRejectsInvalidWorkflow(t *testing.T) {
	_, err := New(spec(), Options{}).Run(&dag.Workflow{Name: "empty"})
	if err == nil {
		t.Fatal("empty workflow accepted")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := run(t, wcFlow(5), Options{Seed: 7})
	b := run(t, wcFlow(5), Options{Seed: 7})
	if a.Makespan != b.Makespan {
		t.Errorf("same seed, different makespans: %v vs %v", a.Makespan, b.Makespan)
	}
	if !reflect.DeepEqual(a.Tasks, b.Tasks) {
		t.Error("same seed, different task records")
	}
	c := run(t, wcFlow(5), Options{Seed: 8})
	if reflect.DeepEqual(a.Tasks, c.Tasks) {
		t.Error("different seeds produced identical skew")
	}
}

func TestTaskCountsMatchProfile(t *testing.T) {
	p := workload.WordCount(5 * units.GB)
	res := run(t, dag.Single(p), Options{})
	if got := len(res.TasksOf(p.Name, workload.Map)); got != p.MapTasks() {
		t.Errorf("map tasks = %d, want %d", got, p.MapTasks())
	}
	if got := len(res.TasksOf(p.Name, workload.Reduce)); got != p.ReduceTasks {
		t.Errorf("reduce tasks = %d, want %d", got, p.ReduceTasks)
	}
}

func TestTaskRecordInvariants(t *testing.T) {
	res := run(t, wcFlow(5), Options{})
	overhead := time.Second // default TaskStartOverhead
	for _, task := range res.Tasks {
		if task.End <= task.Start {
			t.Fatalf("task %s/%d: End %v <= Start %v", task.Job, task.Index, task.End, task.Start)
		}
		var sub time.Duration
		for _, d := range task.SubStages {
			if d < 0 {
				t.Fatalf("task %s/%d: negative sub-stage %v", task.Job, task.Index, d)
			}
			sub += d
		}
		total := task.Duration()
		if diff := total - overhead - sub; diff < -time.Millisecond || diff > time.Millisecond {
			t.Fatalf("task %s/%d: sub-stages (%v) + overhead != duration (%v)",
				task.Job, task.Index, sub, total)
		}
		if task.SizeFactor <= 0 {
			t.Fatalf("task %s/%d: size factor %v", task.Job, task.Index, task.SizeFactor)
		}
	}
}

func TestReduceStartsAfterAllMaps(t *testing.T) {
	p := workload.WordCount(5 * units.GB)
	res := run(t, dag.Single(p), Options{})
	mapEnd := time.Duration(0)
	for _, task := range res.TasksOf(p.Name, workload.Map) {
		if task.End > mapEnd {
			mapEnd = task.End
		}
	}
	for _, task := range res.TasksOf(p.Name, workload.Reduce) {
		if task.Start < mapEnd {
			t.Fatalf("reduce task %d started %v before last map ended %v",
				task.Index, task.Start, mapEnd)
		}
	}
}

func TestDependenciesRespected(t *testing.T) {
	a := workload.WordCount(2 * units.GB)
	a.Name = "A"
	b := workload.TeraSort(2 * units.GB)
	b.Name = "B"
	flow := &dag.Workflow{Name: "chain", Jobs: []dag.Job{
		{ID: "A", Profile: a},
		{ID: "B", Profile: b, Deps: []string{"A"}},
	}}
	res := run(t, flow, Options{})
	aReduce, bMap := res.StageOf("A", workload.Reduce), res.StageOf("B", workload.Map)
	if aReduce == nil || bMap == nil {
		t.Fatalf("stages missing: A reduce %v, B map %v", aReduce, bMap)
	}
	aEnd, bStart := aReduce.End, bMap.Start
	if bStart < aEnd {
		t.Errorf("B started at %v before A finished at %v", bStart, aEnd)
	}
	// The submit overhead must separate them.
	if gap := bStart - aEnd; gap < 1900*time.Millisecond {
		t.Errorf("A→B gap %v, want ≥ job submit overhead (2s)", gap)
	}
}

func TestParallelismCapRespected(t *testing.T) {
	p := workload.WordCount(10 * units.GB)
	res := run(t, dag.Single(p), Options{
		ParallelismCaps: map[string]int{p.Name: 9},
	})
	s := res.StageOf(p.Name, workload.Map)
	if s == nil {
		t.Fatal("no map stage")
	}
	if s.MaxParallelism > 9 {
		t.Errorf("peak parallelism %d exceeds cap 9", s.MaxParallelism)
	}
}

func TestSlotLimitRespected(t *testing.T) {
	res := run(t, wcFlow(10), Options{SlotLimit: 11})
	for _, s := range res.Stages {
		if s.MaxParallelism > 11 {
			t.Errorf("stage %s/%s peak %d exceeds slot limit 11", s.Job, s.Stage, s.MaxParallelism)
		}
	}
}

func TestDisableSkewEvensTasks(t *testing.T) {
	res := run(t, wcFlow(5), Options{DisableSkew: true})
	for _, task := range res.Tasks {
		if math.Abs(task.SizeFactor-1) > 1e-9 {
			t.Fatalf("task %s/%d size factor %v with skew disabled", task.Job, task.Index, task.SizeFactor)
		}
	}
}

func TestMapOnlyJob(t *testing.T) {
	p := workload.WordCount(2 * units.GB)
	p.ReduceTasks = 0
	res := run(t, dag.Single(p), Options{})
	if s := res.StageOf(p.Name, workload.Reduce); s != nil {
		t.Error("map-only job produced a reduce stage")
	}
	if s := res.StageOf(p.Name, workload.Map); s == nil || s.Duration() <= 0 {
		t.Error("map stage missing or empty")
	}
}

func TestStatesPartitionTheRun(t *testing.T) {
	res := run(t, wcFlow(5), Options{})
	if len(res.States) == 0 {
		t.Fatal("no states recorded")
	}
	for i, st := range res.States {
		if st.Duration() <= 0 {
			t.Errorf("state %d has non-positive duration", st.Seq)
		}
		if st.Seq != i+1 {
			t.Errorf("state seq %d at index %d", st.Seq, i)
		}
		if i > 0 && st.Start < res.States[i-1].End {
			t.Errorf("state %d overlaps previous", st.Seq)
		}
		if len(st.Running) == 0 {
			t.Errorf("state %d has no running stages", st.Seq)
		}
	}
	last := res.States[len(res.States)-1]
	if last.End != res.Makespan {
		t.Errorf("last state ends at %v, makespan %v", last.End, res.Makespan)
	}
}

func TestStageRecordsConsistent(t *testing.T) {
	res := run(t, wcFlow(5), Options{})
	for _, s := range res.Stages {
		if s.End <= s.Start {
			t.Errorf("stage %s/%s: End %v <= Start %v", s.Job, s.Stage, s.End, s.Start)
		}
		if len(s.TaskTimes) == 0 {
			t.Errorf("stage %s/%s: no task times", s.Job, s.Stage)
		}
		if s.MaxParallelism <= 0 {
			t.Errorf("stage %s/%s: no parallelism recorded", s.Job, s.Stage)
		}
		if s.MedianTaskTime() <= 0 || s.MeanTaskTime() <= 0 {
			t.Errorf("stage %s/%s: degenerate task stats", s.Job, s.Stage)
		}
	}
}

func TestMakespanIsLastTaskEnd(t *testing.T) {
	res := run(t, wcFlow(5), Options{})
	var last time.Duration
	for _, task := range res.Tasks {
		if task.End > last {
			last = task.End
		}
	}
	if res.Makespan != last {
		t.Errorf("makespan %v != last task end %v", res.Makespan, last)
	}
}

func TestHigherParallelismNeverSlower(t *testing.T) {
	slow := run(t, wcFlow(10), Options{SlotLimit: 22, DisableSkew: true})
	fast := run(t, wcFlow(10), Options{SlotLimit: 132, DisableSkew: true})
	if fast.Makespan > slow.Makespan {
		t.Errorf("more slots made the job slower: %v (132) vs %v (22)", fast.Makespan, slow.Makespan)
	}
}

func TestLargerInputTakesLonger(t *testing.T) {
	small := run(t, wcFlow(2), Options{DisableSkew: true})
	big := run(t, wcFlow(8), Options{DisableSkew: true})
	if big.Makespan <= small.Makespan {
		t.Errorf("4x input not slower: %v vs %v", big.Makespan, small.Makespan)
	}
}

func TestParallelJobsShareFairly(t *testing.T) {
	flow := dag.Parallel("pair",
		dag.Single(workload.WordCount(20*units.GB)),
		dag.Single(workload.TeraSort(20*units.GB)))
	res := run(t, flow, Options{})
	// During the joint map phase both jobs should reach roughly half the
	// slots.
	for _, job := range []string{"WC/WC", "TS/TS"} {
		s := res.StageOf(job, workload.Map)
		if s == nil {
			t.Fatalf("missing map stage for %s", job)
		}
		if s.MaxParallelism < 60 || s.MaxParallelism > 90 {
			t.Errorf("%s map peaked at %d, want ≈ 66 (fair split of 132)", job, s.MaxParallelism)
		}
	}
}

func TestResultStringMentionsEverything(t *testing.T) {
	res := run(t, wcFlow(2), Options{})
	s := res.String()
	if s == "" || res.Workflow != "WC" {
		t.Errorf("String() = %q", s)
	}
}

// Property: for any input size and seed, the simulator's per-stage task
// durations are positive, the stage windows nest inside the makespan, and
// total simulated time is finite.
func TestSimulationSanityProperty(t *testing.T) {
	f := func(gb, seed uint8) bool {
		p := workload.TeraSort(units.Bytes(gb%8+1) * units.GB)
		res, err := New(spec(), Options{Seed: int64(seed)}).Run(dag.Single(p))
		if err != nil {
			return false
		}
		for _, s := range res.Stages {
			if s.Start < 0 || s.End > res.Makespan {
				return false
			}
			for _, tt := range s.TaskTimes {
				if tt <= 0 {
					return false
				}
			}
		}
		return res.Makespan > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSizeFactors(t *testing.T) {
	fs := sizeFactors(100, 0.2, 42)
	sum := 0.0
	for _, f := range fs {
		if f < 0.2 || f > 3 {
			t.Fatalf("factor %v outside truncation bounds", f)
		}
		sum += f
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("factors sum to %v, want 100 (mass preserved)", sum)
	}
	flat := sizeFactors(10, 0, 42)
	for _, f := range flat {
		if f != 1 {
			t.Errorf("cv=0 factor %v, want 1", f)
		}
	}
	if got := sizeFactors(0, 0.5, 1); len(got) != 0 {
		t.Errorf("n=0 returned %v", got)
	}
}

func TestHashSeedStable(t *testing.T) {
	a := hashSeed(1, "job/map")
	b := hashSeed(1, "job/map")
	c := hashSeed(1, "job/reduce")
	d := hashSeed(2, "job/map")
	if a != b {
		t.Error("hashSeed not deterministic")
	}
	if a == c || a == d {
		t.Error("hashSeed collisions across labels/seeds")
	}
	if a < 0 {
		t.Error("hashSeed returned negative")
	}
}

func TestFailureInjection(t *testing.T) {
	clean := run(t, wcFlow(5), Options{Seed: 3})
	faulty := run(t, wcFlow(5), Options{Seed: 3, TaskFailureProb: 0.3})
	if clean.TotalRetries() != 0 {
		t.Errorf("clean run has %d retries", clean.TotalRetries())
	}
	if faulty.TotalRetries() == 0 {
		t.Fatal("30%% failure probability produced no retries")
	}
	if faulty.Makespan <= clean.Makespan {
		t.Errorf("failures did not slow the run: %v vs %v", faulty.Makespan, clean.Makespan)
	}
	// Roughly 30% of tasks should have retried (one attempt each).
	frac := float64(faulty.TotalRetries()) / float64(len(faulty.Tasks))
	if frac < 0.15 || frac > 0.45 {
		t.Errorf("retry fraction %.2f, want ≈ 0.3", frac)
	}
	// Determinism under failures.
	again := run(t, wcFlow(5), Options{Seed: 3, TaskFailureProb: 0.3})
	if again.Makespan != faulty.Makespan || again.TotalRetries() != faulty.TotalRetries() {
		t.Error("failure injection not deterministic")
	}
}

func TestFailureInjectionAllStagesComplete(t *testing.T) {
	p := workload.TeraSort(3 * units.GB)
	res := run(t, dag.Single(p), Options{Seed: 5, TaskFailureProb: 0.5})
	if got := len(res.TasksOf(p.Name, workload.Map)); got != p.MapTasks() {
		t.Errorf("map tasks completed = %d, want %d despite failures", got, p.MapTasks())
	}
	if got := len(res.TasksOf(p.Name, workload.Reduce)); got != p.ReduceTasks {
		t.Errorf("reduce tasks completed = %d, want %d despite failures", got, p.ReduceTasks)
	}
}

func TestNodeAwareMode(t *testing.T) {
	agg := run(t, wcFlow(10), Options{Seed: 2})
	node := run(t, wcFlow(10), Options{Seed: 2, NodeAware: true})
	if node.Makespan <= 0 {
		t.Fatal("node-aware run produced nothing")
	}
	// Same workload, same physics in aggregate: the two modes should land
	// within ~25% of each other (placement imbalance is the difference).
	ratio := node.Makespan.Seconds() / agg.Makespan.Seconds()
	if ratio < 0.75 || ratio > 1.35 {
		t.Errorf("node-aware makespan %v vs aggregate %v (ratio %.2f)",
			node.Makespan, agg.Makespan, ratio)
	}
	if got := len(node.Tasks); got != len(agg.Tasks) {
		t.Errorf("task counts differ: %d vs %d", got, len(agg.Tasks))
	}
	// Determinism.
	again := run(t, wcFlow(10), Options{Seed: 2, NodeAware: true})
	if again.Makespan != node.Makespan {
		t.Error("node-aware mode not deterministic")
	}
}

func TestLeastLoaded(t *testing.T) {
	if got := leastLoaded([]int{3, 1, 2}); got != 1 {
		t.Errorf("leastLoaded = %d, want 1", got)
	}
	if got := leastLoaded([]int{2, 2, 2}); got != 0 {
		t.Errorf("tie leastLoaded = %d, want 0", got)
	}
}

func TestStateUtilizationRecorded(t *testing.T) {
	res := run(t, wcFlow(10), Options{})
	if len(res.States) == 0 {
		t.Fatal("no states")
	}
	mapState := res.States[0]
	// The WC map phase saturates CPU on the oversubscribed cluster.
	if got := mapState.Utilization[cluster.CPU]; got < 0.8 {
		t.Errorf("map-state CPU utilization %.2f, want ≥ 0.8", got)
	}
	if mapState.DominantResource() != cluster.CPU {
		t.Errorf("map-state dominant resource = %s, want cpu", mapState.DominantResource())
	}
	for _, st := range res.States {
		for _, r := range cluster.Resources() {
			if u := st.Utilization[r]; u < 0 || u > 1.000001 {
				t.Errorf("state %d %s utilization %v out of range", st.Seq, r, u)
			}
		}
	}
}
