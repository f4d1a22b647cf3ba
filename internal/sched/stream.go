package sched

import (
	"fmt"
	"math"
	"sort"
)

// This file simulates a multi-tenant *stream* of workflows arriving at a
// shared cluster — the fleet-level view one level above the per-state
// container allocator. Each job is malleable (the paper's model: a DAG
// workflow's rate scales with the containers it holds, up to its maximal
// degree of parallelism), so the scheduler re-divides the pool at every
// arrival and completion and each job progresses at the rate of its
// grant. Work is measured in slot-seconds, derived from an estimator
// plan (Σ over states of Δ·duration); Predicted is the estimator's
// standalone makespan. That is what "estimator-in-the-loop" means here:
// the predictive policies consume numbers the BOE estimator produced,
// and both the admission test and the reclaim order are driven by them.

// StreamJob is one workflow in the arrival stream.
type StreamJob struct {
	// ID identifies the job (unique per stream).
	ID string
	// Submit is the arrival time in seconds.
	Submit float64
	// Work is the total demand in slot-seconds (estimator: Σ Δ·duration).
	Work float64
	// MaxParallelism caps the slots the job can use at once (estimator:
	// max over states of Δ).
	MaxParallelism int
	// MemoryMB and VCores are the per-container shape (DRF's axes).
	MemoryMB int
	VCores   int
	// Predicted is the estimator's standalone makespan in seconds; the
	// predictive policies order and admit by it. Zero = no prediction.
	Predicted float64
	// Deadline is the absolute SLO completion time in seconds (0 = none).
	Deadline float64
	// Queue names the job's hierarchy queue ("" = root).
	Queue string
}

// Admission reason codes, 503-style: the deadline-aware policy rejects
// up front — with a machine-readable reason — rather than admitting work
// it predicts will miss its SLO.
const (
	// ReasonSLOInfeasible rejects a job whose predicted completion —
	// given the backlog already admitted — exceeds its deadline.
	ReasonSLOInfeasible = "slo-infeasible"
	// ReasonNeverFits rejects a job whose container shape can never be
	// granted even on an idle cluster.
	ReasonNeverFits = "never-fits"
)

// Rejection records one refused admission.
type Rejection struct {
	JobID string
	// Code is the HTTP-style status the service layer maps this to
	// (always 503: the cluster cannot serve the job its SLO).
	Code int
	// Reason is the machine-readable cause (ReasonSLOInfeasible, …).
	Reason string
	// Detail is the human-readable explanation with the numbers.
	Detail string
}

// StreamOptions selects the fleet policy.
type StreamOptions struct {
	// Policy orders the per-event slot grants (FIFO/DRF/Fair/SPJF).
	Policy Policy
	// DeadlineAdmission enables the predictive admission test: jobs whose
	// predicted completion misses their deadline are rejected at submit
	// with a 503-style reason instead of admitted to miss.
	DeadlineAdmission bool
	// Hierarchy enables hierarchical allocation with preemptive reclaim:
	// grants flow through AllocateHierarchy with the previous event's
	// allocation as held, so quota-starved queues preempt over-quota work
	// — victims ordered by predicted remaining time.
	Hierarchy *Hierarchy
}

// StreamJobResult is one job's fate.
type StreamJobResult struct {
	ID     string
	Submit float64
	// Finish is the completion time (math.Inf(1) if the job never ran to
	// completion — starved with no future capacity).
	Finish float64
	// Standalone is the job's runtime alone on the cluster: Work divided
	// by the slots it could use. Slowdown = response time / standalone.
	Standalone float64
	Slowdown   float64
	// Rejected marks deadline-admission refusals (Reason/Detail say why).
	Rejected bool
	Reason   string
	Detail   string
	// Missed marks admitted jobs that finished after their deadline.
	Missed bool
	// Preemptions counts slots revoked from this job while it still had
	// work left (grant decreases between events + hierarchy evictions).
	Preemptions int
}

// StreamResult aggregates one run of the stream.
type StreamResult struct {
	Jobs []StreamJobResult
	// Makespan is the last completion time across admitted jobs.
	Makespan float64
	// P95Slowdown is the 95th-percentile slowdown over admitted jobs.
	P95Slowdown float64
	// MeanSlowdown is the arithmetic mean slowdown over admitted jobs.
	MeanSlowdown float64
	// SLOMissRate is missed deadlines / jobs with deadlines (admitted
	// or rejected: a rejection of a job that would have missed anyway
	// does not count as a miss, which is the point of admission control).
	SLOMissRate float64
	Admitted    int
	Rejected    int
	Missed      int
	Preemptions int
	Rejections  []Rejection
}

// RunStream simulates the arrival stream under the chosen policy. It is
// a pure deterministic function of its inputs: same jobs, same pool,
// same options — same result, byte for byte.
func RunStream(pool Pool, jobs []StreamJob, opt StreamOptions) StreamResult {
	ordered := append([]StreamJob(nil), jobs...)
	sort.SliceStable(ordered, func(a, b int) bool {
		if ordered[a].Submit != ordered[b].Submit {
			return ordered[a].Submit < ordered[b].Submit
		}
		return ordered[a].ID < ordered[b].ID
	})

	res := StreamResult{Jobs: make([]StreamJobResult, len(ordered))}
	results := make(map[string]*StreamJobResult, len(ordered))
	for i, j := range ordered {
		res.Jobs[i] = StreamJobResult{ID: j.ID, Submit: j.Submit, Finish: math.Inf(1)}
		results[j.ID] = &res.Jobs[i]
	}

	type active struct {
		job       StreamJob
		remaining float64 // slot-seconds left
		order     int     // admission sequence (FIFO key)
		slots     int     // current grant
	}
	var running []*active
	admitted := 0
	now := 0.0
	next := 0 // next arrival index
	prevGrant := Allocation{}

	maxSlots := func(j StreamJob) int {
		m := j.MaxParallelism
		if m <= 0 || (pool.Slots > 0 && m > pool.Slots) {
			m = pool.Slots
		}
		if m <= 0 {
			m = 1
		}
		return m
	}
	standalone := func(j StreamJob) float64 {
		s := float64(maxSlots(j))
		if s <= 0 {
			s = 1
		}
		t := j.Work / s
		if t <= 0 {
			t = 1e-9
		}
		return t
	}

	// backlog is the total admitted-but-unfinished work in slot-seconds.
	backlog := func() float64 {
		w := 0.0
		for _, a := range running {
			w += a.remaining
		}
		return w
	}

	admit := func(j StreamJob) (ok bool, rej Rejection) {
		if pool.MemoryMB > 0 && j.MemoryMB > pool.MemoryMB ||
			pool.VCores > 0 && j.VCores > pool.VCores {
			return false, Rejection{JobID: j.ID, Code: 503, Reason: ReasonNeverFits,
				Detail: fmt.Sprintf("container %dMB/%dvc exceeds pool %dMB/%dvc",
					j.MemoryMB, j.VCores, pool.MemoryMB, pool.VCores)}
		}
		if !opt.DeadlineAdmission || j.Deadline <= 0 {
			return true, Rejection{}
		}
		// Predicted completion, two lower bounds: the job alone at its
		// maximal parallelism (the estimator's standalone makespan when
		// provided), and work conservation over the admitted backlog —
		// nothing finishes before (backlog+work)/slots drains.
		alone := standalone(j)
		if j.Predicted > alone {
			alone = j.Predicted
		}
		slots := float64(pool.Slots)
		if slots <= 0 {
			slots = 1
		}
		drain := (backlog() + j.Work) / slots
		bound := alone
		if drain > bound {
			bound = drain
		}
		if now+bound > j.Deadline {
			return false, Rejection{JobID: j.ID, Code: 503, Reason: ReasonSLOInfeasible,
				Detail: fmt.Sprintf("predicted completion %.1fs exceeds deadline %.1fs (now %.1fs, backlog %.0f slot-s)",
					now+bound, j.Deadline, now, backlog())}
		}
		return true, Rejection{}
	}

	// allocate re-divides the pool among running jobs under the policy.
	allocate := func() {
		reqs := make([]Request, len(running))
		for i, a := range running {
			pred := a.job.Predicted
			if opt.Hierarchy != nil && pred > 0 && a.job.Work > 0 {
				// The reclaim victim order wants predicted *remaining* time —
				// what EstimateRemainingWith returns at workflow granularity —
				// so scale the standalone prediction by the fraction left.
				// The flat SPJF ordering keeps the static job-level
				// prediction: equal predictions must degrade to FIFO exactly.
				pred *= a.remaining / a.job.Work
			}
			reqs[i] = Request{
				JobID:     a.job.ID,
				MemoryMB:  a.job.MemoryMB,
				VCores:    a.job.VCores,
				Pending:   maxSlots(a.job),
				Cap:       maxSlots(a.job),
				Order:     a.order,
				Queue:     a.job.Queue,
				Predicted: pred,
			}
		}
		var grant Allocation
		if opt.Hierarchy != nil {
			hr := AllocateHierarchy(pool, opt.Hierarchy, reqs, prevGrant)
			grant = make(Allocation, len(reqs))
			for _, r := range reqs {
				g := hr.Grants[r.JobID] + prevGrant[r.JobID] - hr.Evict[r.JobID]
				if g < 0 {
					g = 0
				}
				grant[r.JobID] = g
				if ev := hr.Evict[r.JobID]; ev > 0 {
					results[r.JobID].Preemptions += ev
					res.Preemptions += ev
				}
			}
		} else {
			grant = Grant(opt.Policy, pool, reqs, nil)
			for _, r := range reqs {
				if d := prevGrant[r.JobID] - grant[r.JobID]; d > 0 {
					results[r.JobID].Preemptions += d
					res.Preemptions += d
				}
			}
		}
		prevGrant = grant
		for _, a := range running {
			a.slots = grant[a.job.ID]
		}
	}

	finishJob := func(a *active) {
		r := results[a.job.ID]
		r.Finish = now
		r.Standalone = standalone(a.job)
		r.Slowdown = (now - a.job.Submit) / r.Standalone
		if r.Slowdown < 1 {
			r.Slowdown = 1 // float dust: response time ≥ standalone by construction
		}
		if a.job.Deadline > 0 && now > a.job.Deadline {
			r.Missed = true
			res.Missed++
		}
		if now > res.Makespan {
			res.Makespan = now
		}
		delete(prevGrant, a.job.ID)
	}

	for next < len(ordered) || len(running) > 0 {
		// Admit every arrival at the current time.
		if len(running) == 0 && next < len(ordered) && ordered[next].Submit > now {
			now = ordered[next].Submit
		}
		for next < len(ordered) && ordered[next].Submit <= now {
			j := ordered[next]
			next++
			ok, rej := admit(j)
			r := results[j.ID]
			if !ok {
				r.Rejected = true
				r.Reason = rej.Reason
				r.Detail = rej.Detail
				r.Finish = now
				res.Rejected++
				res.Rejections = append(res.Rejections, rej)
				continue
			}
			running = append(running, &active{job: j, remaining: j.Work, order: admitted})
			admitted++
		}

		if len(running) == 0 {
			continue
		}
		allocate()

		// Advance to the next event: the earliest completion at current
		// rates, or the next arrival, whichever comes first.
		dt := math.Inf(1)
		if next < len(ordered) {
			dt = ordered[next].Submit - now
		}
		progress := false
		for _, a := range running {
			if a.slots > 0 {
				progress = true
				if t := a.remaining / float64(a.slots); t < dt {
					dt = t
				}
			}
		}
		if !progress && next >= len(ordered) {
			// Starved forever: no job can hold a slot and nothing else will
			// arrive to change that. Mark survivors unfinished and stop.
			break
		}
		if math.IsInf(dt, 1) {
			break
		}
		now += dt
		live := running[:0]
		for _, a := range running {
			a.remaining -= float64(a.slots) * dt
			if a.remaining <= 1e-9 {
				finishJob(a)
			} else {
				live = append(live, a)
			}
		}
		running = live
	}

	// Aggregate over admitted jobs.
	var slowdowns []float64
	deadlines := 0
	for i := range res.Jobs {
		r := &res.Jobs[i]
		if r.Rejected {
			continue
		}
		res.Admitted++
		if !math.IsInf(r.Finish, 1) {
			slowdowns = append(slowdowns, r.Slowdown)
		}
	}
	for _, j := range jobs {
		if j.Deadline > 0 {
			deadlines++
		}
	}
	if deadlines > 0 {
		res.SLOMissRate = float64(res.Missed) / float64(deadlines)
	}
	if len(slowdowns) > 0 {
		sort.Float64s(slowdowns)
		sum := 0.0
		for _, s := range slowdowns {
			sum += s
		}
		res.MeanSlowdown = sum / float64(len(slowdowns))
		res.P95Slowdown = percentile(slowdowns, 0.95)
	}
	return res
}

// percentile reads the q-quantile from a sorted slice (nearest-rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
