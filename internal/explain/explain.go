// Package explain turns a point estimate into an explained estimate: from
// a single run of the state-based estimator it reconstructs the predicted
// state timeline and derives
//
//   - the critical path — the chain of submit/stage intervals whose
//     durations sum exactly to the makespan, each tagged with the dominant
//     resource (cpu / disk-read / disk-write / network / slots) binding it;
//   - bottleneck attribution — makespan time attributed to each resource
//     class and to each job, covering 100% of the makespan, plus the
//     time-weighted utilization of every predicted state;
//   - θ-sensitivity — finite-difference ∂makespan/∂θ_X for every cluster
//     throughput parameter, obtained by re-running the estimator with each
//     rate perturbed by ε, flagging the parameter whose improvement buys
//     the most.
//
// The critical path is exact by construction: it is built backward from
// the latest-ending stage as a contiguous chain of intervals over shared
// boundaries — a reduce starts where its map ends, a map's submit gap
// starts where its latest dependency ends, a root's submit gap starts at
// zero — so the interval durations telescope to the makespan in integer
// time.Duration arithmetic, with no float residue.
package explain

import (
	"context"
	"sort"
	"time"

	"boedag/internal/cluster"
	"boedag/internal/dag"
	"boedag/internal/evalpool"
	"boedag/internal/statemodel"
	"boedag/internal/workload"
)

// A state is considered slot-bound when essentially every task slot is
// granted yet the dominant resource still has headroom: the workflow is
// limited by admission (parallelism), not by any throughput θ_X.
const (
	slotBoundShare = 0.999
	slotBoundUtil  = 0.95
)

// ResourceSlots and ResourceSubmit are the two interval tags beyond the
// cluster resource classes: slot-bound execution and job submit overhead.
const (
	ResourceSlots  = "slots"
	ResourceSubmit = "submit"
)

// Interval is one link of the critical path: a span of the makespan
// attributed to one job (or its submit overhead) under one dominant
// resource. Start and End are exact model-time offsets; consecutive
// intervals share boundaries, so durations sum exactly to the makespan.
type Interval struct {
	// Job is the job the interval belongs to (submit gaps carry the
	// waiting job).
	Job string `json:"job"`
	// Stage is "map", "reduce", or "submit" for the submit-overhead gap
	// before a job's first stage.
	Stage string `json:"stage"`
	// Start and End are exact offsets from workflow submission.
	Start time.Duration `json:"-"`
	End   time.Duration `json:"-"`
	// StartS, EndS and DurationS are the wire form, in seconds.
	StartS    float64 `json:"start_s"`
	EndS      float64 `json:"end_s"`
	DurationS float64 `json:"duration_s"`
	// Resource is the dominant resource binding the interval: a cluster
	// resource class name, "slots" when the span is parallelism-bound, or
	// "submit" for submit-overhead gaps.
	Resource string `json:"resource"`
}

// Duration is the interval's exact span.
func (iv Interval) Duration() time.Duration { return iv.End - iv.Start }

// ResourceShare attributes part of the makespan to one resource tag.
type ResourceShare struct {
	Resource string `json:"resource"`
	// Dur is the exact attributed time; Seconds/Fraction are the wire form.
	Dur      time.Duration `json:"-"`
	Seconds  float64       `json:"seconds"`
	Fraction float64       `json:"fraction"`
}

// JobShare attributes part of the critical path to one job (its stage
// time plus its submit gaps).
type JobShare struct {
	Job      string        `json:"job"`
	Dur      time.Duration `json:"-"`
	Seconds  float64       `json:"seconds"`
	Fraction float64       `json:"fraction"`
}

// StateUtil is one predicted state's resource view: the time-weighted
// utilization of every resource class, the dominant tag, and the slot
// share.
type StateUtil struct {
	Seq       int     `json:"seq"`
	StartS    float64 `json:"start_s"`
	EndS      float64 `json:"end_s"`
	DurationS float64 `json:"duration_s"`
	// Dominant is the state's resource tag: the highest-utilization
	// resource class, or "slots" when the state is slot-bound.
	Dominant string `json:"dominant"`
	// Utilization maps resource class name to predicted cluster-wide
	// utilization during the state.
	Utilization map[string]float64 `json:"utilization"`
	// SlotShare is the fraction of the scheduling pool's slots granted.
	SlotShare float64 `json:"slot_share"`
}

// Sensitivity is one row of the θ-sensitivity table: the makespan change
// from improving one cluster throughput parameter by ε.
type Sensitivity struct {
	// Parameter names the perturbed θ_X (a cluster resource class).
	Parameter string `json:"parameter"`
	// Epsilon is the relative throughput perturbation applied (+ε).
	Epsilon float64 `json:"epsilon"`
	// BaseS and PerturbedS are the makespans before and after.
	BaseS      float64 `json:"base_makespan_s"`
	PerturbedS float64 `json:"perturbed_makespan_s"`
	// DeltaS = base − perturbed: the seconds saved by the improvement.
	DeltaS float64 `json:"delta_s"`
	// GradientS ≈ ∂makespan/∂(θ_X/θ_X⁰) = (perturbed − base)/ε, in
	// seconds per unit of relative throughput (negative when the
	// parameter pays).
	GradientS float64 `json:"gradient_s"`
	// Best marks the parameter whose improvement buys the most.
	Best bool `json:"best,omitempty"`
}

// Explanation is the full explained estimate. Its JSON form is the wire
// contract of POST /v1/explain (field order fixed, maps marshalled in
// sorted-key order), byte-deterministic for deterministic inputs.
type Explanation struct {
	Workflow string `json:"workflow"`
	// Makespan is the exact estimated makespan; MakespanS the wire form.
	Makespan  time.Duration `json:"-"`
	MakespanS float64       `json:"makespan_s"`
	// CriticalPath is the chain of intervals summing to the makespan.
	CriticalPath []Interval `json:"critical_path"`
	// Resources attributes 100% of the makespan across resource tags
	// (fixed order: cpu, disk-read, disk-write, network, slots, submit).
	Resources []ResourceShare `json:"resources"`
	// Jobs attributes the critical path across jobs, largest share first.
	Jobs []JobShare `json:"jobs"`
	// States is the per-state utilization breakdown.
	States []StateUtil `json:"states"`
	// Sensitivity is the θ-sensitivity table (empty when the estimator's
	// timer is not the BOE model — profiles carry no θ to perturb).
	Sensitivity []Sensitivity `json:"sensitivity,omitempty"`
}

// Options tune an explanation.
type Options struct {
	// Epsilon is the relative throughput perturbation of the
	// θ-sensitivity runs (default 0.10).
	Epsilon float64
	// Workers bounds the perturbed re-runs' fan-out (default: one worker
	// per cluster resource class). Results are order-deterministic at any
	// value.
	Workers int
	// Cache, when set, memoizes the base and perturbed plans across
	// calls through the single-flight plan cache, so repeated
	// explanations of the same scenario re-run nothing. The prediction
	// daemon passes none: its response cache answers a repeat, and
	// distinct explanations share no plan.
	Cache *evalpool.PlanCache
}

func (o Options) withDefaults() Options {
	if o.Epsilon <= 0 {
		o.Epsilon = 0.10
	}
	if o.Workers < 1 {
		o.Workers = cluster.NumResources
	}
	return o
}

// Explain runs the estimator once and explains the resulting plan.
func Explain(ctx context.Context, est *statemodel.Estimator, flow *dag.Workflow, opt Options) (*Explanation, error) {
	opt = opt.withDefaults()
	var plan *statemodel.Plan
	var err error
	if opt.Cache != nil {
		plan, err = opt.Cache.Estimate(est, flow)
	} else {
		plan, err = est.Estimate(flow)
	}
	if err != nil {
		return nil, err
	}
	return ExplainPlan(ctx, est, flow, plan, opt)
}

// ExplainPlan explains an already-computed plan of (est, flow) without
// re-running the base estimate. The θ-sensitivity runs still execute,
// with each cluster rate perturbed by ε.
func ExplainPlan(ctx context.Context, est *statemodel.Estimator, flow *dag.Workflow, plan *statemodel.Plan, opt Options) (*Explanation, error) {
	opt = opt.withDefaults()
	e := &Explanation{
		Workflow:  plan.Workflow,
		Makespan:  plan.Makespan,
		MakespanS: plan.Makespan.Seconds(),
	}
	e.CriticalPath = criticalPath(plan, flow)
	e.Resources = resourceShares(plan)
	e.Jobs = jobShares(plan.Makespan, e.CriticalPath)
	e.States = stateUtils(plan)
	sens, err := sensitivity(ctx, est, flow, plan, opt)
	if err != nil {
		return nil, err
	}
	e.Sensitivity = sens
	return e, nil
}

// finalStage returns the last stage a job runs: its reduce when it has
// one, its map otherwise.
func finalStage(plan *statemodel.Plan, job string) *statemodel.StageEstimate {
	if se := plan.StageOf(job, workload.Reduce); se != nil {
		return se
	}
	return plan.StageOf(job, workload.Map)
}

// criticalPath walks backward from the latest-ending stage, chaining each
// stage to what released it: a reduce to its own map (they share a
// boundary), a map to its latest-ending dependency across a submit gap,
// and a root map to time zero across its submit gap. All boundaries are
// shared between consecutive intervals, so the durations telescope
// exactly to the makespan. Stage intervals are then split at state
// boundaries and tagged with the job's per-state dominant resource
// (adjacent same-resource pieces merged back).
func criticalPath(plan *statemodel.Plan, flow *dag.Workflow) []Interval {
	if len(plan.Stages) == 0 {
		return nil
	}
	deps := make(map[string][]string, len(flow.Jobs))
	for _, j := range flow.Jobs {
		deps[j.ID] = j.Deps
	}
	// Latest-ending stage anchors the path (first winner on ties: the
	// stage slice is in deterministic job order).
	cur := &plan.Stages[0]
	for i := range plan.Stages[1:] {
		if s := &plan.Stages[i+1]; s.End > cur.End {
			cur = s
		}
	}
	// Backward walk over (stage, upper-boundary) links plus submit gaps.
	type link struct {
		stage        *statemodel.StageEstimate
		lower, upper time.Duration
		submit       bool
		job          string
	}
	upper := plan.Makespan
	if cur.End > upper {
		upper = cur.End // defensive: the makespan is the latest stage end
	}
	var rev []link
	for {
		lower := cur.Start
		if lower > upper {
			lower = upper
		}
		rev = append(rev, link{stage: cur, lower: lower, upper: upper})
		upper = lower
		if cur.Stage == workload.Reduce {
			if m := plan.StageOf(cur.Job, workload.Map); m != nil {
				cur = m
				continue
			}
		}
		// A map stage (or an orphan reduce): cross the submit gap to the
		// latest-ending dependency, or to time zero for a root.
		var prev *statemodel.StageEstimate
		for _, d := range deps[cur.Job] {
			if f := finalStage(plan, d); f != nil && (prev == nil || f.End > prev.End) {
				prev = f
			}
		}
		lower = 0
		if prev != nil {
			lower = prev.End
		}
		if lower > upper {
			lower = upper
		}
		rev = append(rev, link{submit: true, job: cur.Job, lower: lower, upper: upper})
		if prev == nil {
			break
		}
		upper = lower
		cur = prev
	}
	// Expand forward: submit gaps become one interval, stage runs split
	// at state boundaries with per-state resource tags.
	var out []Interval
	for i := len(rev) - 1; i >= 0; i-- {
		l := rev[i]
		if l.upper <= l.lower {
			continue // zero-length link (e.g. zero submit overhead)
		}
		if l.submit {
			out = append(out, Interval{
				Job: l.job, Stage: ResourceSubmit,
				Start: l.lower, End: l.upper,
				Resource: ResourceSubmit,
			})
			continue
		}
		out = append(out, splitByStates(plan, l.stage, l.lower, l.upper)...)
	}
	for i := range out {
		out[i].StartS = out[i].Start.Seconds()
		out[i].EndS = out[i].End.Seconds()
		out[i].DurationS = out[i].Duration().Seconds()
	}
	return out
}

// splitByStates cuts a stage's critical-path span at the predicted state
// boundaries falling inside it, tags each piece with the job's dominant
// resource during the covering state, and merges adjacent pieces sharing
// a tag. The cuts are interior boundaries, so the pieces tile
// [lower, upper] exactly.
func splitByStates(plan *statemodel.Plan, se *statemodel.StageEstimate, lower, upper time.Duration) []Interval {
	cuts := []time.Duration{lower}
	for i := range plan.States {
		if end := plan.States[i].End; end > lower && end < upper {
			cuts = append(cuts, end)
		}
	}
	cuts = append(cuts, upper)
	var out []Interval
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if b <= a {
			continue
		}
		res := resourceAt(plan, se, a+(b-a)/2)
		if n := len(out); n > 0 && out[n-1].Resource == res {
			out[n-1].End = b
			continue
		}
		out = append(out, Interval{
			Job: se.Job, Stage: se.Stage.String(),
			Start: a, End: b, Resource: res,
		})
	}
	return out
}

// resourceAt resolves the dominant resource binding a job at instant t:
// the job's per-state task bottleneck, overridden to "slots" when the
// covering state is slot-bound with headroom on that resource. Falls back
// to the stage's overall bottleneck outside any state.
func resourceAt(plan *statemodel.Plan, se *statemodel.StageEstimate, t time.Duration) string {
	for i := range plan.States {
		st := &plan.States[i]
		if t < st.Start || t >= st.End {
			continue
		}
		r, ok := st.Bottleneck[se.Job]
		if !ok {
			break
		}
		if st.SlotShare >= slotBoundShare && st.Utilization[r] < slotBoundUtil {
			return ResourceSlots
		}
		return r.String()
	}
	return se.Bottleneck.String()
}

// stateTag is the state's resource tag: its highest-utilization resource
// class (ties to the lowest index), or "slots" when the state is
// slot-bound with resource headroom.
func stateTag(st *statemodel.StateEstimate) string {
	dom := cluster.CPU
	for _, r := range cluster.Resources() {
		if st.Utilization[r] > st.Utilization[dom] {
			dom = r
		}
	}
	if st.SlotShare >= slotBoundShare && st.Utilization[dom] < slotBoundUtil {
		return ResourceSlots
	}
	return dom.String()
}

// resourceTags lists every attribution tag in fixed order: the cluster
// resource classes, then slots, then submit.
func resourceTags() []string {
	tags := make([]string, 0, cluster.NumResources+2)
	for _, r := range cluster.Resources() {
		tags = append(tags, r.String())
	}
	return append(tags, ResourceSlots, ResourceSubmit)
}

// resourceShares attributes the whole makespan across resource tags from
// the state timeline: each state's span goes to its dominant tag, the gap
// before the first state (the root submit overhead) and any residue after
// the last state go to "submit". States tile [firstStart, makespan]
// contiguously, so the shares telescope exactly to the makespan.
func resourceShares(plan *statemodel.Plan) []ResourceShare {
	acc := make(map[string]time.Duration, cluster.NumResources+2)
	switch {
	case len(plan.States) == 0:
		acc[ResourceSubmit] = plan.Makespan
	default:
		acc[ResourceSubmit] = plan.States[0].Start
		for i := range plan.States {
			st := &plan.States[i]
			end := st.End
			if i == len(plan.States)-1 {
				end = plan.Makespan // shared boundary: last state closes at makespan
			}
			acc[stateTag(st)] += end - st.Start
		}
	}
	out := make([]ResourceShare, 0, cluster.NumResources+2)
	for _, tag := range resourceTags() {
		d := acc[tag]
		share := ResourceShare{Resource: tag, Dur: d, Seconds: d.Seconds()}
		if plan.Makespan > 0 {
			share.Fraction = float64(d) / float64(plan.Makespan)
		}
		out = append(out, share)
	}
	return out
}

// jobShares attributes the critical path across jobs (submit gaps count
// toward the waiting job), largest share first, ties by name.
func jobShares(makespan time.Duration, path []Interval) []JobShare {
	acc := make(map[string]time.Duration)
	order := make([]string, 0, 4)
	for _, iv := range path {
		if _, ok := acc[iv.Job]; !ok {
			order = append(order, iv.Job)
		}
		acc[iv.Job] += iv.Duration()
	}
	sort.SliceStable(order, func(a, b int) bool {
		if acc[order[a]] != acc[order[b]] {
			return acc[order[a]] > acc[order[b]]
		}
		return order[a] < order[b]
	})
	out := make([]JobShare, 0, len(order))
	for _, j := range order {
		share := JobShare{Job: j, Dur: acc[j], Seconds: acc[j].Seconds()}
		if makespan > 0 {
			share.Fraction = float64(acc[j]) / float64(makespan)
		}
		out = append(out, share)
	}
	return out
}

// stateUtils renders the per-state utilization table.
func stateUtils(plan *statemodel.Plan) []StateUtil {
	out := make([]StateUtil, 0, len(plan.States))
	for i := range plan.States {
		st := &plan.States[i]
		u := make(map[string]float64, cluster.NumResources)
		for _, r := range cluster.Resources() {
			u[r.String()] = st.Utilization[r]
		}
		out = append(out, StateUtil{
			Seq:         st.Seq,
			StartS:      st.Start.Seconds(),
			EndS:        st.End.Seconds(),
			DurationS:   st.Duration().Seconds(),
			Dominant:    stateTag(st),
			Utilization: u,
			SlotShare:   st.SlotShare,
		})
	}
	return out
}
