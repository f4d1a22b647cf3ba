// Package boe implements the Bottleneck Oriented Estimation model of the
// paper (§III): task-level execution time estimation for data-parallel
// jobs. A task is a sequence of pipelined sub-stages; the sub-stage time
// is the time of its bottleneck operation,
//
//	t_σ = max_X  D_X / (μ_X(Δ)·θ_X)
//
// where D_X is the bytes operation X moves, θ_X the aggregate resource
// throughput and μ_X(Δ) the per-task share at degree of parallelism Δ.
// The share is computed by progressive-filling max-min fairness (package
// fairshare), which also yields the actual usage p_X < 1 of non-bottleneck
// resources. For parallel jobs the model takes every concurrently running
// task group into account, so a job's task time changes when a neighbour
// job's bottleneck moves — the Figure 1 phenomenon (27 s → 24 s → 20 s).
package boe

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"boedag/internal/cluster"
	"boedag/internal/fairshare"
	"boedag/internal/units"
	"boedag/internal/workload"
)

// Model estimates task execution times on a given cluster.
type Model struct {
	// Spec is the cluster the jobs run on.
	Spec cluster.Spec
	// EqualSplit switches the μ(Δ) allocation from progressive-filling
	// max-min fairness to the naive 1/Δ split (ablation; see DESIGN.md §5).
	EqualSplit bool

	// stages memoizes the pure (profile, stage) → sub-stage derivation;
	// see stageInfoFor.
	mu     sync.RWMutex
	stages map[stageKey]*stageInfo
}

// New returns a Model for the cluster.
func New(spec cluster.Spec) *Model { return &Model{Spec: spec} }

// AggregateSubStage selects the steady-state view of a task group: its
// tasks are spread across sub-stages in proportion to sub-stage length,
// so the group's aggregate demand is the sum over sub-stages. This is the
// right environment model for a neighbouring job mid-stage, where waves of
// tasks pipeline through sub-stages continuously.
const AggregateSubStage = -1

// TaskGroup describes Δ identical tasks of one job stage running
// concurrently, currently executing the sub-stage with index SubStage
// (or AggregateSubStage for the steady-state mixture).
type TaskGroup struct {
	Profile     workload.JobProfile
	Stage       workload.Stage
	SubStage    int
	Parallelism int
}

// OpEstimate is the model's view of one pipelined operation: the bytes it
// moves, the per-task rate the allocation grants it, and the resulting
// non-overlapped time. The operation with the largest time is the
// sub-stage bottleneck.
type OpEstimate struct {
	Resource cluster.Resource
	Bytes    units.Bytes
	Rate     units.Rate
	Time     time.Duration
}

// SubStageEstimate is the model's output for one sub-stage of one group.
type SubStageEstimate struct {
	Name       string
	Duration   time.Duration
	Bottleneck cluster.Resource
	Ops        []OpEstimate
	// Utilization[r] is the estimated cluster-wide utilization of resource
	// r during this sub-stage (shared across all concurrent groups).
	Utilization [cluster.NumResources]float64
}

// TaskEstimate is the model's output for a complete task: the sequence of
// its sub-stage estimates and the total duration.
type TaskEstimate struct {
	Stage     workload.Stage
	SubStages []SubStageEstimate
	Duration  time.Duration
}

// Bottlenecks returns the distinct bottleneck resources across the task's
// sub-stages, in execution order.
func (t TaskEstimate) Bottlenecks() []cluster.Resource {
	var out []cluster.Resource
	seen := make(map[cluster.Resource]bool)
	for _, ss := range t.SubStages {
		if !seen[ss.Bottleneck] {
			seen[ss.Bottleneck] = true
			out = append(out, ss.Bottleneck)
		}
	}
	return out
}

// String renders a compact summary, e.g. "map 27.3s [cpu]".
func (t TaskEstimate) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %.1fs [", t.Stage, t.Duration.Seconds())
	for i, r := range t.Bottlenecks() {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(r.String())
	}
	b.WriteString("]")
	return b.String()
}

// capacities returns the cluster-aggregate throughput θ_X per resource.
func (m *Model) capacities() [cluster.NumResources]units.Rate {
	var caps [cluster.NumResources]units.Rate
	for _, r := range cluster.Resources() {
		caps[r] = m.Spec.TotalCapacity(r)
	}
	return caps
}

// stageKey identifies one pure sub-stage derivation: JobProfile is a
// flat value type, so the key is comparable and collision-free.
type stageKey struct {
	p workload.JobProfile
	s workload.Stage
}

// stageInfo caches what a (profile, stage) pair contributes to every
// solve: its sub-stage list and the aggregate steady-state demand.
type stageInfo struct {
	subs []workload.SubStage
	agg  workload.SubStage
}

// stageCacheMax bounds the derivation cache. Long-lived models serve
// arbitrary caller-supplied profiles (the prediction service), so the
// cache clears wholesale at the cap instead of growing without bound.
const stageCacheMax = 1 << 12

// stageInfoFor memoizes p.SubStages(s, m.Spec) and its aggregate. Both
// are pure functions of the key and the model's spec (fixed after
// construction), so a hit returns the identical value a fresh
// derivation would.
func (m *Model) stageInfoFor(p workload.JobProfile, s workload.Stage) *stageInfo {
	k := stageKey{p, s}
	m.mu.RLock()
	si := m.stages[k]
	m.mu.RUnlock()
	if si != nil {
		return si
	}
	subs := p.SubStages(s, m.Spec)
	si = &stageInfo{subs: subs, agg: aggregate(subs)}
	m.mu.Lock()
	if m.stages == nil || len(m.stages) >= stageCacheMax {
		m.stages = make(map[stageKey]*stageInfo, 64)
	}
	m.stages[k] = si
	m.mu.Unlock()
	return si
}

// Solver holds the working buffers of BOE solves and the fair-share
// arena they run on, whose memo carries across the solves made on it.
// Pooled because the workflow estimator performs hundreds of thousands
// of solves on large DAGs, and the per-solve garbage was the dominant
// cost at 10k jobs. Model methods draw a solver from the pool per call;
// a caller making a run of solves holds one for the run instead (see
// GetSolver and TaskTimeAtOn). A Solver is not safe for concurrent use.
type Solver struct {
	subs      []workload.SubStage
	consumers []fairshare.Consumer
	groups    []TaskGroup
	arena     fairshare.Arena
}

var evalPool = sync.Pool{New: func() any { return new(Solver) }}

// GetSolver takes a solver from the pool with its memo emptied and its
// counts zeroed, so its Stats depend only on the solves made on it from
// here on. Hand it back with PutSolver.
func GetSolver() *Solver {
	sv := evalPool.Get().(*Solver)
	sv.arena.Reset()
	return sv
}

// PutSolver returns a solver from GetSolver to the pool.
func PutSolver(sv *Solver) { evalPool.Put(sv) }

// Stats reports the fair-share work of the solves made on sv.
func (sv *Solver) Stats() fairshare.Stats { return sv.arena.Stats() }

// growRows sizes the scratch sub-stage and consumer rows for n groups.
func (sc *Solver) growRows(n int) {
	if cap(sc.subs) < n {
		sc.subs = make([]workload.SubStage, n)
		sc.consumers = make([]fairshare.Consumer, n)
	}
	sc.subs = sc.subs[:n]
	sc.consumers = sc.consumers[:n]
}

// fillRow derives group g's current sub-stage and consumer into row i.
func (m *Model) fillRow(sc *Solver, i int, g TaskGroup) {
	si := m.stageInfoFor(g.Profile, g.Stage)
	switch {
	case g.SubStage == AggregateSubStage:
		sc.subs[i] = si.agg
	case g.SubStage < 0 || g.SubStage >= len(si.subs):
		sc.subs[i] = workload.SubStage{Name: "done"}
	default:
		sc.subs[i] = si.subs[g.SubStage]
	}
	sc.consumers[i] = fairshare.TaskConsumer(m.Spec.Node, sc.subs[i].Ops, g.Parallelism)
}

// allocateRows runs the allocation over the filled consumer rows. The
// result aliases the scratch and is valid until the next allocation on it.
func (m *Model) allocateRows(sc *Solver) *fairshare.Result {
	if m.EqualSplit {
		return sc.arena.EqualSplit(m.capacities(), sc.consumers)
	}
	return sc.arena.Allocate(m.capacities(), sc.consumers)
}

// solve derives sub-stages and consumers for the groups and runs the
// allocation, all on scratch buffers.
func (m *Model) solve(sc *Solver, groups []TaskGroup) *fairshare.Result {
	sc.growRows(len(groups))
	for i, g := range groups {
		m.fillRow(sc, i, g)
	}
	return m.allocateRows(sc)
}

// usersOf counts the tasks demanding each resource, for the equal-share
// μ_X(Δ) = 1/Δ_X view the paper's per-operation times use.
func usersOf(sc *Solver, groups []TaskGroup) (users [cluster.NumResources]int) {
	for i, c := range sc.consumers {
		for r := 0; r < cluster.NumResources; r++ {
			if c.Demand[r] > 0 {
				users[r] += groups[i].Parallelism
			}
		}
	}
	return users
}

// render materializes the estimate of group i from a solve. With nil
// users it leaves Ops empty (the lean task-time path).
func (m *Model) render(sc *Solver, alloc *fairshare.Result, users *[cluster.NumResources]int, i int) SubStageEstimate {
	est := SubStageEstimate{
		Name:        sc.subs[i].Name,
		Bottleneck:  alloc.Bottleneck[i],
		Utilization: alloc.Utilization,
	}
	rate := alloc.Rate[i]
	if rate > 0 && len(sc.subs[i].Ops) > 0 {
		est.Duration = units.Seconds(1 / rate)
		if users == nil {
			return est
		}
		for _, op := range sc.subs[i].Ops {
			// The paper's t_X = D_X/(μ_X(Δ)·θ_X): the op's time at its
			// equal share of resource X among the Δ_X tasks demanding
			// it, capped by what a single task can drive. For a lone
			// group the largest of these equals the sub-stage duration;
			// their ratios are the Headroom report.
			share := m.Spec.TotalCapacity(op.Resource).PerTask(users[op.Resource])
			share = share.Min(m.Spec.Node.PerTaskCap(op.Resource))
			est.Ops = append(est.Ops, OpEstimate{
				Resource: op.Resource,
				Bytes:    op.Bytes,
				Rate:     share,
				Time:     units.Div(op.Bytes, share),
			})
		}
	}
	return est
}

// EstimateState estimates, for every group, the duration of its *current*
// sub-stage under contention from all the other groups. This is the
// primitive the state-based workflow model calls once per workflow state.
func (m *Model) EstimateState(groups []TaskGroup) []SubStageEstimate {
	sc := evalPool.Get().(*Solver)
	defer evalPool.Put(sc)
	alloc := m.solve(sc, groups)
	users := usersOf(sc, groups)
	out := make([]SubStageEstimate, len(groups))
	for i := range groups {
		out[i] = m.render(sc, alloc, &users, i)
	}
	return out
}

// TaskTime estimates the full execution time of one task of (profile,
// stage) when Δ = parallelism sibling tasks run concurrently and no other
// job contends — the single-job setting of the paper's Figure 6. The task
// time is the sum of its sub-stage times, each estimated at parallelism Δ.
func (m *Model) TaskTime(p workload.JobProfile, s workload.Stage, parallelism int) TaskEstimate {
	return m.TaskTimeWith(p, s, parallelism, nil)
}

// TaskTimeWith estimates the task time of (p, s) at the given parallelism
// while the environment groups run alongside — the parallel-job setting of
// Table II. Each sub-stage of the target task is estimated against the
// environment held at its own current sub-stage.
func (m *Model) TaskTimeWith(p workload.JobProfile, s workload.Stage, parallelism int, env []TaskGroup) TaskEstimate {
	sc := evalPool.Get().(*Solver)
	defer evalPool.Put(sc)
	g := append(sc.groups[:0], TaskGroup{Profile: p, Stage: s, Parallelism: parallelism})
	g = append(g, env...)
	sc.groups = g
	return m.taskTime(sc, g, true)
}

// TaskTimeAt estimates the task time of groups[self] under contention
// from the other groups — equivalent to TaskTimeWith with the self group
// removed from the environment, without materializing that intermediate
// slice. This is the estimator's hot path, so it skips the per-operation
// report: every sub-stage's Ops is left empty (Duration, Bottleneck and
// Utilization are exactly TaskTimeWith's).
func (m *Model) TaskTimeAt(groups []TaskGroup, self int) TaskEstimate {
	sc := evalPool.Get().(*Solver)
	defer evalPool.Put(sc)
	return m.TaskTimeAtOn(sc, groups, self)
}

// TaskTimeAtOn is TaskTimeAt solving on the caller's solver.
func (m *Model) TaskTimeAtOn(sc *Solver, groups []TaskGroup, self int) TaskEstimate {
	g := append(sc.groups[:0], groups[self])
	g = append(g, groups[:self]...)
	g = append(g, groups[self+1:]...)
	sc.groups = g
	return m.taskTime(sc, g, false)
}

// taskTime sums the sub-stage estimates of g[0] against the g[1:]
// environment, varying g[0]'s current sub-stage; withOps renders each
// sub-stage's per-operation report. The environment rows are identical
// across the sub-stage sweep, so they are derived once and only row 0
// is refilled per iteration.
func (m *Model) taskTime(sc *Solver, g []TaskGroup, withOps bool) TaskEstimate {
	si := m.stageInfoFor(g[0].Profile, g[0].Stage)
	sc.growRows(len(g))
	for i := 1; i < len(g); i++ {
		m.fillRow(sc, i, g[i])
	}
	est := TaskEstimate{Stage: g[0].Stage}
	for k := range si.subs {
		g[0].SubStage = k
		sc.subs[0] = si.subs[k]
		sc.consumers[0] = fairshare.TaskConsumer(m.Spec.Node, si.subs[k].Ops, g[0].Parallelism)
		alloc := m.allocateRows(sc)
		var ss SubStageEstimate
		if withOps {
			users := usersOf(sc, g)
			ss = m.render(sc, alloc, &users, 0)
		} else {
			ss = m.render(sc, alloc, nil, 0)
		}
		est.SubStages = append(est.SubStages, ss)
		est.Duration += ss.Duration
	}
	return est
}

// aggregate folds a task's sub-stages into one demand vector summed per
// resource (see AggregateSubStage).
func aggregate(subs []workload.SubStage) workload.SubStage {
	var total [cluster.NumResources]units.Bytes
	for _, ss := range subs {
		for _, op := range ss.Ops {
			total[op.Resource] += op.Bytes
		}
	}
	out := workload.SubStage{Name: "aggregate"}
	for _, r := range cluster.Resources() {
		if total[r] > 0 {
			out.Ops = append(out.Ops, workload.OpDemand{Resource: r, Bytes: total[r]})
		}
	}
	return out
}

// StageTime estimates the wall-clock duration of an entire job stage run
// alone at the given parallelism: the tasks execute in ⌈N/Δ⌉ waves of
// TaskTime each (the discrete wave model; see DESIGN.md §5 for the fluid
// ablation).
func (m *Model) StageTime(p workload.JobProfile, s workload.Stage, parallelism int) time.Duration {
	n := p.Tasks(s)
	if n == 0 || parallelism <= 0 {
		return 0
	}
	task := m.TaskTime(p, s, min(parallelism, n))
	waves := (n + parallelism - 1) / parallelism
	return time.Duration(waves) * task.Duration
}

// Headroom reports how decisively the sub-stage's bottleneck wins: the
// ratio of the bottleneck operation's time to the runner-up's. A headroom
// of 1.6 means speeding the bottleneck resource up by more than 1.6×
// (hardware upgrade, compression, fewer replicas) moves the bottleneck
// elsewhere and further spending stops paying — the what-if question
// capacity planners ask. Sub-stages with fewer than two operations return
// +Inf (nothing to shift to).
func (ss SubStageEstimate) Headroom() float64 {
	if len(ss.Ops) < 2 {
		return math.Inf(1)
	}
	var first, second time.Duration
	for _, op := range ss.Ops {
		switch {
		case op.Time > first:
			second = first
			first = op.Time
		case op.Time > second:
			second = op.Time
		}
	}
	if second <= 0 {
		return math.Inf(1)
	}
	return first.Seconds() / second.Seconds()
}
