package sched

import "boedag/internal/obs"

// GrantObserved is Grant with observability attached: allocation
// decisions are emitted as EvAllocGrant events (one per job that
// received containers, at model time now) and counted in the metrics
// registry. With observability disabled it is exactly Grant — the guard
// keeps the hot path allocation-free.
func GrantObserved(policy Policy, pool Pool, reqs []Request, held Allocation, o obs.Options, now float64) Allocation {
	grants := Grant(policy, pool, reqs, held)
	if o.TracerOn() {
		for _, r := range reqs {
			g := grants[r.JobID]
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
		if total := grants.Total(); total > 0 {
			o.Metrics.Counter("sched_containers_granted").Add(int64(total))
		}
		o.Metrics.Counter("sched_grant_rounds").Inc()
	}
	return grants
}
