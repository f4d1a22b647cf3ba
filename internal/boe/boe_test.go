package boe

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"boedag/internal/cluster"
	"boedag/internal/fairshare"
	"boedag/internal/units"
	"boedag/internal/workload"
)

// figure4Profile builds a map-only job matching the paper's Figure 4
// worked example: 10 million 100-byte records (≈ 10000 MB) processed in a
// pipeline of disk read, network transfer, and unit-cost compute. The
// network leg is emulated with three replicas of a selectivity-0.5
// output… rather than contort a MapReduce profile, tests drive the model
// through a hand-built sub-stage via a custom profile.
func paperModel() *Model {
	return New(cluster.SingleNode(cluster.ExampleNode()))
}

// TestFigure4ViaTaskTime drives the BOE model end to end on a pure-scan
// profile shaped after Figure 4: at Δ=1 the task is CPU-bound; raising Δ
// to 5 moves the bottleneck to the shared pool.
func TestFigure4ViaTaskTime(t *testing.T) {
	m := paperModel()
	p := workload.JobProfile{
		Name:           "fig4",
		InputBytes:     10000 * units.MB,
		SplitBytes:     10000 * units.MB, // one task holds the whole input
		MapSelectivity: 0,                // no output: read + compute only
		MapCPUCost:     1,
		Replicas:       1,
	}
	one := m.TaskTime(p, workload.Map, 1)
	// CPU-bound: 10000 MB / 50 MB/s = 200 s.
	if math.Abs(one.Duration.Seconds()-200) > 1 {
		t.Errorf("Δ=1 task time = %.1fs, want 200s", one.Duration.Seconds())
	}
	if bn := one.SubStages[0].Bottleneck; bn != cluster.CPU {
		t.Errorf("Δ=1 bottleneck = %s, want cpu", bn)
	}
}

func TestTaskTimeMonotonicInParallelism(t *testing.T) {
	m := New(cluster.PaperCluster())
	p := workload.WordCount(100 * units.GB)
	prev := time.Duration(0)
	for _, d := range []int{1, 6, 12, 33, 66, 132} {
		est := m.TaskTime(p, workload.Map, d)
		if est.Duration < prev {
			t.Errorf("task time decreased at Δ=%d: %v < %v", d, est.Duration, prev)
		}
		prev = est.Duration
	}
}

func TestWordCountMapIsCPUBound(t *testing.T) {
	m := New(cluster.PaperCluster())
	est := m.TaskTime(workload.WordCount(100*units.GB), workload.Map, 132)
	if bn := est.SubStages[0].Bottleneck; bn != cluster.CPU {
		t.Errorf("WC map bottleneck = %s, want cpu (Table I)", bn)
	}
}

func TestTeraSortShuffleIsNetworkBound(t *testing.T) {
	m := New(cluster.PaperCluster())
	est := m.TaskTime(workload.TeraSort(100*units.GB), workload.Reduce, 66)
	if len(est.SubStages) < 2 {
		t.Fatalf("TS reduce has %d sub-stages, want 2", len(est.SubStages))
	}
	if bn := est.SubStages[0].Bottleneck; bn != cluster.Network {
		t.Errorf("TS shuffle bottleneck = %s, want network (Table I)", bn)
	}
}

func TestTeraSort3RReduceIsNetworkBound(t *testing.T) {
	m := New(cluster.PaperCluster())
	est := m.TaskTime(workload.TeraSort3R(100*units.GB), workload.Reduce, 66)
	last := est.SubStages[len(est.SubStages)-1]
	if last.Bottleneck != cluster.Network {
		t.Errorf("TS3R reduce bottleneck = %s, want network (3-replica HDFS write)", last.Bottleneck)
	}
}

// TestFigure1Phenomenon verifies the paper's opening observation: a
// CPU-bound job's map tasks speed up when a co-running job leaves CPU for
// the network (its shuffle), and further when the co-runner finishes.
func TestFigure1Phenomenon(t *testing.T) {
	m := New(cluster.PaperCluster())
	wc := workload.WordCount(100 * units.GB)
	ts := workload.TeraSort(100 * units.GB)

	// State A: both jobs in their map stages (66 tasks each).
	bothMaps := m.TaskTimeWith(wc, workload.Map, 66, []TaskGroup{
		{Profile: ts, Stage: workload.Map, SubStage: AggregateSubStage, Parallelism: 66},
	})
	// State B: TS moved to its shuffle sub-stage — network-bound and
	// CPU-light ("the system bottleneck becomes network I/O due to the
	// shuffle operation", §I).
	tsShuffling := m.TaskTimeWith(wc, workload.Map, 66, []TaskGroup{
		{Profile: ts, Stage: workload.Reduce, SubStage: 0, Parallelism: 66},
	})
	// State C: TS finished; WC alone.
	alone := m.TaskTime(wc, workload.Map, 66)

	if !(bothMaps.Duration >= tsShuffling.Duration && tsShuffling.Duration >= alone.Duration) {
		t.Errorf("Figure 1 ordering violated: both=%v shuffle=%v alone=%v",
			bothMaps.Duration, tsShuffling.Duration, alone.Duration)
	}
	if bothMaps.Duration <= alone.Duration {
		t.Error("co-running TS maps should slow WC maps at all")
	}
}

func TestTaskTimeWithReportsUtilization(t *testing.T) {
	m := New(cluster.PaperCluster())
	wc := workload.WordCount(100 * units.GB)
	est := m.TaskTimeWith(wc, workload.Map, 132, nil)
	if len(est.SubStages) == 0 {
		t.Fatal("no sub-stage estimates")
	}
	ss := est.SubStages[0]
	if u := ss.Utilization[cluster.CPU]; u < 0.95 {
		t.Errorf("CPU utilization = %.2f, want ≈ 1 at Δ=132 (oversubscribed)", u)
	}
	if ss.Duration <= 0 {
		t.Error("zero sub-stage duration")
	}
	if len(ss.Ops) == 0 {
		t.Error("no op estimates")
	}
}

// A group past its last sub-stage has finished: it demands nothing, so
// it leaves the target's task time exactly as if it were absent.
func TestTaskTimeWithIgnoresDoneGroup(t *testing.T) {
	m := New(cluster.PaperCluster())
	wc := workload.WordCount(units.GB)
	ts := TaskGroup{Profile: workload.TeraSort(units.GB), Stage: workload.Map, Parallelism: 66}
	alone := m.TaskTime(wc, workload.Map, 66)
	if busy := m.TaskTimeWith(wc, workload.Map, 66, []TaskGroup{ts}); busy.Duration <= alone.Duration {
		t.Fatalf("an active group should slow the target: %v vs %v alone", busy.Duration, alone.Duration)
	}
	ts.SubStage = 99
	if done := m.TaskTimeWith(wc, workload.Map, 66, []TaskGroup{ts}); done.Duration != alone.Duration {
		t.Errorf("done environment group moved the task time: %v, want %v", done.Duration, alone.Duration)
	}
}

func TestAggregateSubStageSumsDemands(t *testing.T) {
	p := workload.TeraSort(10 * units.GB)
	spec := cluster.PaperCluster()
	subs := p.ReduceSubStages(spec)
	agg := aggregate(subs)
	for _, r := range cluster.Resources() {
		want := workload.TotalDemand(subs, r)
		if got := agg.Demand(r); math.Abs(float64(got-want)) > 1 {
			t.Errorf("aggregate demand(%s) = %v, want %v", r, got, want)
		}
	}
}

func TestEqualSplitAblationDiffers(t *testing.T) {
	// A CPU-light network-heavy group next to a CPU-heavy group: the
	// equal-split model punishes the light group; max-min does not.
	spec := cluster.PaperCluster()
	heavyCPU := workload.WordCount(100 * units.GB)
	netty := workload.TeraSort(100 * units.GB)

	fair := New(spec)
	naive := &Model{Spec: spec, EqualSplit: true}

	env := []TaskGroup{{Profile: heavyCPU, Stage: workload.Map, SubStage: AggregateSubStage, Parallelism: 100}}
	f := fair.TaskTimeWith(netty, workload.Reduce, 32, env)
	n := naive.TaskTimeWith(netty, workload.Reduce, 32, env)
	if n.Duration <= f.Duration {
		t.Errorf("equal-split (%v) should over-estimate vs max-min (%v) for the CPU-light job",
			n.Duration, f.Duration)
	}
}

func TestBottlenecksDeduplicated(t *testing.T) {
	est := TaskEstimate{
		SubStages: []SubStageEstimate{
			{Bottleneck: cluster.Network},
			{Bottleneck: cluster.CPU},
			{Bottleneck: cluster.Network},
		},
	}
	got := est.Bottlenecks()
	if len(got) != 2 || got[0] != cluster.Network || got[1] != cluster.CPU {
		t.Errorf("Bottlenecks = %v", got)
	}
}

func TestTaskEstimateString(t *testing.T) {
	est := TaskEstimate{
		Stage:    workload.Reduce,
		Duration: 42 * time.Second,
		SubStages: []SubStageEstimate{
			{Bottleneck: cluster.Network},
		},
	}
	s := est.String()
	for _, want := range []string{"reduce", "42.0s", "network"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

// Property: the op-level times in a sub-stage estimate never exceed the
// sub-stage duration (pipelined ops overlap inside the bottleneck's
// window), and the bottleneck's time equals the duration.
func TestOpTimesBounded(t *testing.T) {
	m := New(cluster.PaperCluster())
	f := func(gb uint8, par uint8) bool {
		p := workload.TeraSort(units.Bytes(gb%50+1) * units.GB)
		d := int(par%132) + 1
		for _, st := range []workload.Stage{workload.Map, workload.Reduce} {
			est := m.TaskTime(p, st, d)
			for _, ss := range est.SubStages {
				maxOp := time.Duration(0)
				for _, op := range ss.Ops {
					if op.Time > ss.Duration+time.Millisecond {
						return false
					}
					if op.Time > maxOp {
						maxOp = op.Time
					}
				}
				if len(ss.Ops) > 0 && maxOp < ss.Duration-time.Duration(float64(ss.Duration)*0.01) {
					return false // bottleneck op should fill the sub-stage
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: adding a contending group never speeds up the target task.
func TestContentionNeverHelps(t *testing.T) {
	m := New(cluster.PaperCluster())
	f := func(par uint8) bool {
		d := int(par%66) + 1
		wc := workload.WordCount(50 * units.GB)
		ts := workload.TeraSort(50 * units.GB)
		alone := m.TaskTime(wc, workload.Map, d).Duration
		crowded := m.TaskTimeWith(wc, workload.Map, d, []TaskGroup{
			{Profile: ts, Stage: workload.Map, SubStage: AggregateSubStage, Parallelism: 66},
		}).Duration
		return crowded >= alone-time.Millisecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestTaskTimeAtMatchesTaskTimeWith pins the hot-path entry point: for
// any position of the target group, TaskTimeAt must reproduce exactly
// what TaskTimeWith computes when handed the same environment with the
// target removed — the two build the identical group sequence, so every
// float matches bitwise.
func TestTaskTimeAtMatchesTaskTimeWith(t *testing.T) {
	m := New(cluster.PaperCluster())
	groups := []TaskGroup{
		{Profile: workload.WordCount(40 * units.GB), Stage: workload.Map, SubStage: AggregateSubStage, Parallelism: 66},
		{Profile: workload.TeraSort(20 * units.GB), Stage: workload.Reduce, SubStage: AggregateSubStage, Parallelism: 33},
		{Profile: workload.WordCount(10 * units.GB), Stage: workload.Map, SubStage: AggregateSubStage, Parallelism: 12},
	}
	for self := range groups {
		env := make([]TaskGroup, 0, len(groups)-1)
		env = append(env, groups[:self]...)
		env = append(env, groups[self+1:]...)
		g := groups[self]
		want := m.TaskTimeWith(g.Profile, g.Stage, g.Parallelism, env)
		got := m.TaskTimeAt(groups, self)
		if len(got.SubStages) != len(want.SubStages) || got.Duration != want.Duration {
			t.Fatalf("self=%d: TaskTimeAt %v over %d sub-stages, TaskTimeWith %v over %d",
				self, got.Duration, len(got.SubStages), want.Duration, len(want.SubStages))
		}
		for k := range want.SubStages {
			w, g := want.SubStages[k], got.SubStages[k]
			if w.Duration != g.Duration || w.Bottleneck != g.Bottleneck || w.Utilization != g.Utilization {
				t.Errorf("self=%d sub-stage %d: got %+v, want %+v", self, k, g, w)
			}
		}
	}
	// TaskTimeAt must not mutate the caller's groups (it copies the self
	// group before sweeping its sub-stage).
	if groups[1].SubStage != AggregateSubStage {
		t.Error("TaskTimeAt mutated the caller's group sequence")
	}
}

// TestTaskTimeAtOnHeldSolver: taskTimeAtOn on a solver held across
// solves answers exactly as the pooled path does, and its counts start
// from zero when it is taken and cover every fair-share solve made on
// it — a repeated task time is answered from the memo.
func TestTaskTimeAtOnHeldSolver(t *testing.T) {
	m := New(cluster.PaperCluster())
	groups := []TaskGroup{
		{Profile: workload.TeraSort(20 * units.GB), Stage: workload.Reduce, SubStage: AggregateSubStage, Parallelism: 33},
		{Profile: workload.WordCount(10 * units.GB), Stage: workload.Map, SubStage: AggregateSubStage, Parallelism: 12},
	}
	sv := GetSolver()
	defer PutSolver(sv)
	if st := sv.Stats(); st.Solves != 0 {
		t.Fatalf("fresh solver reports %d solves", st.Solves)
	}
	for round := 0; round < 2; round++ {
		got, want := m.taskTimeAtOn(sv, groups, 0), m.TaskTimeAt(groups, 0)
		if got.Duration != want.Duration || len(got.SubStages) != len(want.SubStages) {
			t.Fatalf("round %d: held solver %v, pooled %v", round, got.Duration, want.Duration)
		}
	}
	subs := int64(len(m.TaskTimeAt(groups, 0).SubStages))
	if st := sv.Stats(); st.Solves != 2*subs || st.MemoHits != subs {
		t.Errorf("stats %+v after two task times of %d sub-stages each, want %d solves and %d memo hits", st, subs, 2*subs, subs)
	}
}

// TestTaskTimeAtIsLean: the hot path skips the per-operation report
// that TaskTimeWith renders.
func TestTaskTimeAtIsLean(t *testing.T) {
	m := New(cluster.PaperCluster())
	groups := []TaskGroup{
		{Profile: workload.TeraSort(20 * units.GB), Stage: workload.Reduce, SubStage: AggregateSubStage, Parallelism: 33},
		{Profile: workload.WordCount(10 * units.GB), Stage: workload.Map, SubStage: AggregateSubStage, Parallelism: 12},
	}
	full := m.TaskTimeWith(groups[0].Profile, groups[0].Stage, groups[0].Parallelism, groups[1:])
	if len(full.SubStages) == 0 || len(full.SubStages[0].Ops) == 0 {
		t.Fatal("TaskTimeWith rendered no operations")
	}
	for k, ss := range m.TaskTimeAt(groups, 0).SubStages {
		if ss.Ops != nil {
			t.Errorf("sub-stage %d: TaskTimeAt rendered %d operations", k, len(ss.Ops))
		}
	}
}

// TestTaskTimeInStateReusesItsBuffer: on a warm solver the state path
// allocates nothing, since its SubStages live in a buffer of the
// solver's, while TaskTimeAt hands every caller a slice of its own.
func TestTaskTimeInStateReusesItsBuffer(t *testing.T) {
	m := New(cluster.PaperCluster())
	groups := []TaskGroup{
		{Profile: workload.TeraSort(20 * units.GB), Stage: workload.Reduce, SubStage: AggregateSubStage, Parallelism: 33},
		{Profile: workload.WordCount(10 * units.GB), Stage: workload.Map, Parallelism: 12},
	}
	sv := GetSolver()
	defer PutSolver(sv)
	m.BeginState(sv, groups, nil)
	solve := func() {
		for self := range groups {
			m.TaskTimeInState(sv, self)
		}
	}
	solve()
	if n := testing.AllocsPerRun(50, solve); n != 0 {
		t.Errorf("TaskTimeInState allocated %v times per state on a warm solver", n)
	}
	a, b := m.TaskTimeAt(groups, 0), m.TaskTimeAt(groups, 1)
	if &a.SubStages[0] == &b.SubStages[0] {
		t.Error("two TaskTimeAt estimates share their SubStages")
	}
}

// TestStatePathMatchesTaskTimeAtOn: one BeginState serving every group
// of a state, solved in random order with some stages resolved up front,
// answers bit for bit what taskTimeAtOn answers for each group alone,
// and what a fresh arena solves on rows built directly from the
// profiles (self first, then the others in state order). The states are
// seeded random group sets with aggregate, in-range and done sub-stages,
// compressed and replicated profiles, and duplicate groups.
func TestStatePathMatchesTaskTimeAtOn(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		checkStatePath(t, seed)
	}
}

// FuzzStatePathMatchesTaskTimeAtOn runs the state-path comparison on
// the random state a seed generates.
func FuzzStatePathMatchesTaskTimeAtOn(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkStatePath)
}

var stateModel = New(cluster.PaperCluster())

// checkStatePath generates the random state of one seed and holds the
// state path to taskTimeAtOn and to directly built rows on it.
func checkStatePath(t *testing.T, seed int64) {
	m, r := stateModel, rand.New(rand.NewSource(seed))
	profiles := []workload.JobProfile{
		workload.WordCount(10 * units.GB), workload.WordCount(40 * units.GB),
		workload.TeraSort(20 * units.GB), workload.TeraSortCompressed(8 * units.GB),
		workload.TeraSort3R(5 * units.GB),
	}
	groups := make([]TaskGroup, 1+r.Intn(12))
	for i := range groups {
		if i > 0 && r.Intn(4) == 0 {
			groups[i] = groups[r.Intn(i)]
			continue
		}
		g := TaskGroup{
			Profile:     profiles[r.Intn(len(profiles))],
			Stage:       workload.Stage(r.Intn(2)),
			SubStage:    AggregateSubStage,
			Parallelism: 1 + r.Intn(66),
		}
		if r.Intn(3) == 0 {
			g.SubStage = r.Intn(6) - 1 // in range, or done past the end
		}
		groups[i] = g
	}
	infos := make([]*StageInfo, len(groups))
	for i := range infos {
		if r.Intn(2) == 0 {
			infos[i] = m.stageOf(groups[i].Profile, groups[i].Stage)
		}
	}
	sv, alone := GetSolver(), GetSolver()
	defer PutSolver(sv)
	defer PutSolver(alone)
	m.BeginState(sv, groups, infos)
	for _, self := range r.Perm(len(groups)) {
		got := m.TaskTimeInState(sv, self)
		if want := m.taskTimeAtOn(alone, groups, self); !sameEstimate(got, want) {
			t.Fatalf("seed %d self %d: state path %+v, taskTimeAtOn %+v", seed, self, got, want)
		}
		if ref := directTaskTime(m, groups, self); !sameEstimate(got, ref) {
			t.Fatalf("seed %d self %d: state path %+v, direct rows %+v", seed, self, got, ref)
		}
	}
	for i, si := range infos {
		if si != m.stageOf(groups[i].Profile, groups[i].Stage) {
			t.Fatalf("seed %d: group %d's stage was not resolved into infos", seed, i)
		}
	}
}

// sameEstimate compares two lean task estimates bit for bit.
func sameEstimate(a, b TaskEstimate) bool {
	if a.Stage != b.Stage || a.Duration != b.Duration || len(a.SubStages) != len(b.SubStages) {
		return false
	}
	for k := range a.SubStages {
		x, y := a.SubStages[k], b.SubStages[k]
		if x.Name != y.Name || x.Duration != y.Duration || x.Bottleneck != y.Bottleneck || x.Utilization != y.Utilization {
			return false
		}
	}
	return true
}

// directTaskTime solves groups[self]'s task time on a fresh arena, its
// rows derived straight from the profiles: self's sub-stage first, then
// every other group's current sub-stage in order.
func directTaskTime(m *Model, groups []TaskGroup, self int) TaskEstimate {
	var arena fairshare.Arena
	view := func(g TaskGroup) workload.SubStage {
		subs := g.Profile.SubStages(g.Stage, m.Spec)
		switch {
		case g.SubStage == AggregateSubStage:
			return aggregate(subs)
		case g.SubStage < 0 || g.SubStage >= len(subs):
			return workload.SubStage{Name: "done"}
		}
		return subs[g.SubStage]
	}
	g := groups[self]
	est := TaskEstimate{Stage: g.Stage}
	for _, sub := range g.Profile.SubStages(g.Stage, m.Spec) {
		rows := []fairshare.Consumer{fairshare.TaskConsumer(m.Spec.Node, sub.Ops, g.Parallelism)}
		for i, o := range groups {
			if i != self {
				rows = append(rows, fairshare.TaskConsumer(m.Spec.Node, view(o).Ops, o.Parallelism))
			}
		}
		res := arena.Allocate(m.capacities(), rows)
		ss := SubStageEstimate{Name: sub.Name, Bottleneck: res.Bottleneck[0], Utilization: res.Utilization}
		if res.Rate[0] > 0 && len(sub.Ops) > 0 {
			ss.Duration = units.Seconds(1 / res.Rate[0])
		}
		est.SubStages = append(est.SubStages, ss)
		est.Duration += ss.Duration
	}
	return est
}
