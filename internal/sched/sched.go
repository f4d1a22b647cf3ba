// Package sched models the YARN resource manager's Dominant Resource
// Fairness (DRF) allocation of containers among parallel jobs (paper
// §II-B). Both the ground-truth simulator and the state-based estimator
// call it to answer the same question: with this set of jobs wanting
// containers of these sizes, how many tasks does each job get to run
// simultaneously — its degree of parallelism Δ_i?
package sched

import (
	"boedag/internal/cluster"
)

// Request describes one job's appetite during a workflow state.
type Request struct {
	// JobID identifies the job (unique per call).
	JobID string
	// MemoryMB and VCores are the per-container resource requests of the
	// stage the job is currently running.
	MemoryMB int
	VCores   int
	// Pending is the number of tasks still wanting containers.
	Pending int
	// Cap optionally limits the containers granted to this job (0 = no
	// cap); used to sweep the degree of parallelism in experiments.
	Cap int
	// Order is the job's submission sequence number, consumed by the FIFO
	// policy (lower is earlier); DRF and Fair ignore it.
	Order int
	// Queue names the job's leaf queue in the hierarchy ("" = root/flat).
	// Only AllocateHierarchy consults it.
	Queue string
	// Gang is the all-or-nothing minimum: a job holding fewer than Gang
	// containers after allocation holds none (0 = no gang constraint).
	// Only AllocateHierarchy enforces it.
	Gang int
	// Predicted is the estimator's predicted (remaining) runtime in
	// seconds, consumed by PolicySPJF ordering and the hierarchical
	// reclaim victim order. Zero means "no prediction".
	Predicted float64
}

// Pool is the cluster-aggregate capacity DRF divides.
type Pool struct {
	MemoryMB int
	VCores   int
	Slots    int
}

// PoolOf derives the allocation pool from a cluster spec. The vcore pool
// follows the configured task slots, not the physical cores: YARN's
// yarn.nodemanager.resource.cpu-vcores is an operator setting that
// clusters routinely set above the hardware to over-subscribe CPU (the
// paper's sweeps reach 12 tasks per 6-core node). Physical cores still
// bind in the resource model — an over-subscribed CPU slows every task —
// just not in admission.
func PoolOf(spec cluster.Spec) Pool {
	return Pool{
		MemoryMB: spec.TotalMemoryMB(),
		VCores:   spec.TotalSlots(),
		Slots:    spec.TotalSlots(),
	}
}

// WithSlotLimit returns a copy of the pool with both the slot and vcore
// admission scaled to the override — the knob experiments use to sweep
// the degree of parallelism.
func (p Pool) WithSlotLimit(slots int) Pool {
	if slots <= 0 {
		return p
	}
	p.Slots = slots
	p.VCores = slots
	return p
}

// Allocation maps JobID to the number of containers granted.
type Allocation map[string]int

// Total returns the number of containers granted across all jobs.
func (a Allocation) Total() int {
	n := 0
	for _, v := range a {
		n += v
	}
	return n
}

// DRF grants containers one at a time, always to the job with the lowest
// dominant share (its maximum share across memory and vcores), until
// capacity, slots, caps, or demand is exhausted. Held is the set of
// containers jobs already hold (e.g. running tasks in the simulator);
// held containers count toward shares and consume pool capacity but are
// not re-granted, and a holder's entry is present (possibly zero) in the
// result. Ties break deterministically by JobID. Container shapes must
// be non-negative (see progressiveFill). The grants keyed below the
// highest level that fits are made in one pass (levelGrant); the heap
// makes the rest, one at a time.
func DRF(pool Pool, reqs []Request, held Allocation) Allocation {
	f := newFlatFill(pool, reqs, held)
	f.levelGrant()
	progressiveFill(f.heap, len(reqs), f.drfKey, f.eligible, f.grantOne)
	return f.allocation(true)
}

// Parallelism answers the estimator's question directly: the steady-state
// degree of parallelism per job in a state where the given jobs have
// effectively unbounded pending tasks (a stage mid-flight). It is DRF
// with each job's Pending set high enough not to bind.
func Parallelism(pool Pool, reqs []Request) Allocation {
	boosted := make([]Request, len(reqs))
	for i, r := range reqs {
		boosted[i] = r
		if maxSlots := pool.Slots; maxSlots > 0 && (r.Pending == 0 || r.Pending > maxSlots) {
			boosted[i].Pending = maxSlots
		}
	}
	return DRF(pool, boosted, nil)
}
