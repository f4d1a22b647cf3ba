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
	// see stageOf.
	mu     sync.RWMutex
	stages map[stageKey]*StageInfo
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

// StageInfo is one resolved (profile, stage) derivation: the stage's
// sub-stage list and their aggregate steady-state demand. It is
// immutable, so a caller that solves the same job stage in many states
// keeps the one a state's solve resolved (see BeginState) and hands it
// to every later state.
type StageInfo struct {
	subs []workload.SubStage
	agg  workload.SubStage
}

// view is the sub-stage a group at index sub runs: the aggregate, one
// of the stage's sub-stages, or an empty "done" sub-stage out of range.
func (si *StageInfo) view(sub int) workload.SubStage {
	switch {
	case sub == AggregateSubStage:
		return si.agg
	case sub < 0 || sub >= len(si.subs):
		return workload.SubStage{Name: "done"}
	default:
		return si.subs[sub]
	}
}

// stageCacheMax bounds the derivation cache. Long-lived models serve
// arbitrary caller-supplied profiles (the prediction service), so the
// cache clears wholesale at the cap instead of growing without bound.
const stageCacheMax = 1 << 12

// stageOf memoizes p.SubStages(s, m.Spec) and its aggregate. Both are
// pure functions of the key and the model's spec (fixed after
// construction), so a hit returns the identical value a fresh
// derivation would.
func (m *Model) stageOf(p workload.JobProfile, s workload.Stage) *StageInfo {
	k := stageKey{p, s}
	m.mu.RLock()
	si := m.stages[k]
	m.mu.RUnlock()
	if si != nil {
		return si
	}
	subs := p.SubStages(s, m.Spec)
	si = &StageInfo{subs: subs, agg: aggregate(subs)}
	m.mu.Lock()
	if m.stages == nil || len(m.stages) >= stageCacheMax {
		m.stages = make(map[stageKey]*StageInfo, 64)
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
// GetSolver, BeginState and TaskTimeInState). A Solver is not safe for
// concurrent use.
type Solver struct {
	// consumers are one solve's rows: the solved group first, then the
	// state's other groups in their order.
	consumers []fairshare.Consumer
	groups    []TaskGroup
	arena     fairshare.Arena

	// The state begun by BeginState: its groups, their resolved stages
	// (the caller's slice, or own when the caller passed none) and, once
	// the state's first solve built them, every group's environment row.
	state []TaskGroup
	infos []*StageInfo
	own   []*StageInfo
	rows  []fairshare.Consumer
	built bool
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

// BeginState hands sv the groups running in one workflow state, so
// every task-time solve of the state (TaskTimeInState) shares one
// derivation of each group's environment row: Algorithm 1 holds Δ and
// the contention environment fixed for the whole state. infos, when
// non-nil, holds each group's resolved stage index for index; the
// state's first solve resolves the nil entries and stores them there,
// so a caller that keeps them resolves each job stage once. groups and
// infos must stay unchanged until the state's last solve; the state
// lasts until the next BeginState on sv.
func (m *Model) BeginState(sv *Solver, groups []TaskGroup, infos []*StageInfo) {
	sv.state, sv.infos = groups, infos
	sv.built = false
}

// buildRows resolves the state's stages and derives every group's
// environment row: its current sub-stage as a fair-share consumer.
func (m *Model) buildRows(sv *Solver) {
	if sv.infos == nil {
		sv.own = append(sv.own[:0], make([]*StageInfo, len(sv.state))...)
		sv.infos = sv.own
	}
	sv.rows = sv.rows[:0]
	for i, g := range sv.state {
		si := sv.infos[i]
		if si == nil {
			si = m.stageOf(g.Profile, g.Stage)
			sv.infos[i] = si
		}
		sv.rows = append(sv.rows, fairshare.TaskConsumer(m.Spec.Node, si.view(g.SubStage).Ops, g.Parallelism))
	}
	sv.built = true
}

// allocateRows runs the allocation over the filled consumer rows. The
// result aliases the scratch and is valid until the next allocation on it.
func (m *Model) allocateRows(sc *Solver) *fairshare.Result {
	if m.EqualSplit {
		return sc.arena.EqualSplit(m.capacities(), sc.consumers)
	}
	return sc.arena.Allocate(m.capacities(), sc.consumers)
}

// usersOf counts the tasks demanding each resource, for the equal-share
// μ_X(Δ) = 1/Δ_X view the paper's per-operation times use.
func usersOf(consumers []fairshare.Consumer) (users [cluster.NumResources]int) {
	for _, c := range consumers {
		for r := 0; r < cluster.NumResources; r++ {
			if c.Demand[r] > 0 {
				users[r] += c.Count
			}
		}
	}
	return users
}

// render materializes the estimate of sub-stage sub, solved as row 0.
// With nil users it leaves Ops empty (the lean task-time path).
func (m *Model) render(sub workload.SubStage, alloc *fairshare.Result, users *[cluster.NumResources]int) SubStageEstimate {
	est := SubStageEstimate{
		Name:        sub.Name,
		Bottleneck:  alloc.Bottleneck[0],
		Utilization: alloc.Utilization,
	}
	rate := alloc.Rate[0]
	if rate > 0 && len(sub.Ops) > 0 {
		est.Duration = units.Seconds(1 / rate)
		if users == nil {
			return est
		}
		for _, op := range sub.Ops {
			// The paper's t_X = D_X/(μ_X(Δ)·θ_X): the op's time at its
			// equal share of resource X among the Δ_X tasks demanding
			// it, capped by what a single task can drive. For a lone
			// group the largest of these equals the sub-stage duration.
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
	m.BeginState(sc, g, nil)
	return m.taskTime(sc, 0, true)
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

// TaskTimeAtOn is TaskTimeAt solving on the caller's solver. It begins
// a state of its own on sv.
func (m *Model) TaskTimeAtOn(sc *Solver, groups []TaskGroup, self int) TaskEstimate {
	m.BeginState(sc, groups, nil)
	return m.taskTime(sc, self, false)
}

// TaskTimeInState is TaskTimeAt of the state begun on sv by BeginState:
// the same answer, with the other groups' rows taken from the state
// instead of derived again.
func (m *Model) TaskTimeInState(sv *Solver, self int) TaskEstimate {
	return m.taskTime(sv, self, false)
}

// taskTime sums the sub-stage estimates of the state's group self
// against the state's other groups, varying self's current sub-stage;
// withOps renders each sub-stage's per-operation report. The rows are
// self first, then the others in state order (the fill's tie order
// depends on it); only row 0 changes across the sub-stage sweep.
func (m *Model) taskTime(sv *Solver, self int, withOps bool) TaskEstimate {
	if !sv.built {
		m.buildRows(sv)
	}
	g, si := sv.state[self], sv.infos[self]
	sv.consumers = append(sv.consumers[:0], fairshare.Consumer{})
	sv.consumers = append(sv.consumers, sv.rows[:self]...)
	sv.consumers = append(sv.consumers, sv.rows[self+1:]...)
	est := TaskEstimate{Stage: g.Stage}
	for _, sub := range si.subs {
		sv.consumers[0] = fairshare.TaskConsumer(m.Spec.Node, sub.Ops, g.Parallelism)
		alloc := m.allocateRows(sv)
		var ss SubStageEstimate
		if withOps {
			users := usersOf(sv.consumers)
			ss = m.render(sub, alloc, &users)
		} else {
			ss = m.render(sub, alloc, nil)
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
