package sched

import (
	"fmt"
	"sort"
)

// Policy selects the scheduler's allocation discipline. The paper
// evaluates under YARN's DRF (§II-B); FIFO and slot-fair are the other
// two schedulers Hadoop ships, provided here so the models can be
// validated under every discipline a deployment might run (DESIGN.md §5
// lists the scheduler as an ablation axis).
type Policy int

const (
	// PolicyDRF is Dominant Resource Fairness (the default, as the paper).
	PolicyDRF Policy = iota
	// PolicyFIFO grants everything to the earliest-submitted job first —
	// Hadoop's original scheduler.
	PolicyFIFO
	// PolicyFair splits slots evenly across jobs regardless of container
	// sizes — the Fair Scheduler's slot view.
	PolicyFair
	// PolicySPJF is shortest-predicted-job-first: FIFO's drain discipline
	// ordered by Request.Predicted (the estimator-in-the-loop policy).
	// With equal predictions it degrades to exactly FIFO — the metamorphic
	// contract the policy suite enforces.
	PolicySPJF
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyDRF:
		return "drf"
	case PolicyFIFO:
		return "fifo"
	case PolicyFair:
		return "fair"
	case PolicySPJF:
		return "spjf"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Policies lists all scheduling disciplines.
func Policies() []Policy { return []Policy{PolicyDRF, PolicyFIFO, PolicyFair, PolicySPJF} }

// ParsePolicy resolves a policy name as printed by String.
func ParsePolicy(name string) (Policy, error) {
	for _, p := range Policies() {
		if p.String() == name {
			return p, nil
		}
	}
	return PolicyDRF, fmt.Errorf("sched: unknown policy %q", name)
}

// Grant allocates containers under the chosen policy. Request.Order
// carries submission order for FIFO (lower is earlier; ties break by
// JobID). DRF and Fair ignore Order.
func Grant(policy Policy, pool Pool, reqs []Request, held Allocation) Allocation {
	switch policy {
	case PolicyFIFO:
		return fifo(pool, reqs, held)
	case PolicyFair:
		return fair(pool, reqs, held)
	case PolicySPJF:
		return spjf(pool, reqs, held)
	default:
		return DRF(pool, reqs, held)
	}
}

// fifo drains the pool into jobs in submission order.
func fifo(pool Pool, reqs []Request, held Allocation) Allocation {
	ordered := append([]Request(nil), reqs...)
	sort.Slice(ordered, func(a, b int) bool {
		if ordered[a].Order != ordered[b].Order {
			return ordered[a].Order < ordered[b].Order
		}
		return ordered[a].JobID < ordered[b].JobID
	})
	return drain(pool, ordered, reqs, held)
}

// spjf drains the pool shortest-predicted-job-first: FIFO's discipline
// with Predicted as the primary key, so equal predictions reproduce
// FIFO exactly (Order, then JobID, break ties).
func spjf(pool Pool, reqs []Request, held Allocation) Allocation {
	ordered := append([]Request(nil), reqs...)
	sort.Slice(ordered, func(a, b int) bool {
		if ordered[a].Predicted != ordered[b].Predicted {
			return ordered[a].Predicted < ordered[b].Predicted
		}
		if ordered[a].Order != ordered[b].Order {
			return ordered[a].Order < ordered[b].Order
		}
		return ordered[a].JobID < ordered[b].JobID
	})
	return drain(pool, ordered, reqs, held)
}

// drain gives each job, in the given priority order, every container it
// can take before moving to the next.
func drain(pool Pool, ordered, reqs []Request, held Allocation) Allocation {
	grant := make(Allocation, len(reqs))
	memUsed, cpuUsed, slotsUsed := heldUsage(reqs, held)
	for _, r := range ordered {
		for {
			have := grant[r.JobID] + held[r.JobID]
			if grant[r.JobID] >= r.Pending {
				break
			}
			if r.Cap > 0 && have >= r.Cap {
				break
			}
			if !fits(pool, memUsed+r.MemoryMB, cpuUsed+r.VCores, slotsUsed+1) {
				break
			}
			grant[r.JobID]++
			memUsed += r.MemoryMB
			cpuUsed += r.VCores
			slotsUsed++
		}
	}
	return grant
}

// fair hands out slots round-robin, one at a time, to every job that can
// still take one — equal slot counts regardless of container sizes: the
// progressive fill keyed by holdings.
func fair(pool Pool, reqs []Request, held Allocation) Allocation {
	f := fairFill(pool, reqs, held)
	return f.allocation(false)
}

// fairFill runs the slot-fair fill and returns its working set.
func fairFill(pool Pool, reqs []Request, held Allocation) flatFill {
	f := newFlatFill(pool, reqs, held)
	progressiveFill(f.heap, len(reqs), func(k int) float64 {
		return float64(f.have(k))
	}, f.eligible, f.grantOne)
	return f
}

func heldUsage(reqs []Request, held Allocation) (mem, cpu, slots int) {
	for _, r := range reqs {
		h := held[r.JobID]
		mem += h * r.MemoryMB
		cpu += h * r.VCores
		slots += h
	}
	return mem, cpu, slots
}

func fits(pool Pool, mem, cpu, slots int) bool {
	if pool.MemoryMB > 0 && mem > pool.MemoryMB {
		return false
	}
	if pool.VCores > 0 && cpu > pool.VCores {
		return false
	}
	if pool.Slots > 0 && slots > pool.Slots {
		return false
	}
	return true
}
