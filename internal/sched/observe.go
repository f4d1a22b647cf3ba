package sched

import (
	"slices"

	"boedag/internal/obs"
)

// GrantObserved is Grant with observability attached: allocation
// decisions are emitted as EvAllocGrant events (one per job that
// received containers, at model time now) and counted in the metrics
// registry. With observability disabled it is exactly Grant — the guard
// keeps the hot path allocation-free.
func GrantObserved(policy Policy, pool Pool, reqs []Request, held Allocation, o obs.Options, now float64) Allocation {
	grants := Grant(policy, pool, reqs, held)
	if o.TracerOn() || o.MetricsOn() {
		observeGrants(policy, reqs, func(i int) int { return grants[reqs[i].JobID] }, grants.Total(), o, now)
	}
	return grants
}

// GrantCounts is GrantObserved for a caller that holds no containers and
// whose requests have distinct JobIDs, answered by request index: it
// returns counts, reusing the slice passed in, with counts[i] the
// containers granted to reqs[i]. The DRF and slot-fair fills build no
// Allocation map for it.
func GrantCounts(counts []int, policy Policy, pool Pool, reqs []Request, o obs.Options, now float64) []int {
	counts = slices.Grow(counts[:0], len(reqs))[:len(reqs)]
	switch policy {
	case PolicyDRF, PolicyFair:
		var f flatFill
		if policy == PolicyDRF {
			f = drfFill(pool, reqs, nil)
		} else {
			f = fairFill(pool, reqs, nil)
		}
		for k, i := range f.order {
			counts[i] = f.grant[k]
		}
	default:
		grants := Grant(policy, pool, reqs, nil)
		for i, r := range reqs {
			counts[i] = grants[r.JobID]
		}
	}
	if o.TracerOn() || o.MetricsOn() {
		total := 0
		for _, c := range counts {
			total += c
		}
		observeGrants(policy, reqs, func(i int) int { return counts[i] }, total, o, now)
	}
	return counts
}

// observeGrants emits and counts the grants: grant(i) is reqs[i]'s, and
// total their sum over distinct jobs.
func observeGrants(policy Policy, reqs []Request, grant func(i int) int, total int, o obs.Options, now float64) {
	if o.TracerOn() {
		for i, r := range reqs {
			g := grant(i)
			if g <= 0 {
				continue
			}
			o.Tracer.Emit(obs.Event{
				Type:   obs.EvAllocGrant,
				Time:   now,
				Job:    r.JobID,
				Task:   -1,
				Value:  float64(g),
				Detail: policy.String(),
			})
		}
	}
	if o.MetricsOn() {
		if total > 0 {
			o.Metrics.Counter("sched_containers_granted").Add(int64(total))
		}
		o.Metrics.Counter("sched_grant_rounds").Inc()
	}
}
