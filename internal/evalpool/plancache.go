package evalpool

import (
	"boedag/internal/cluster"
	"boedag/internal/dag"
	"boedag/internal/obs"
	"boedag/internal/simulator"
	"boedag/internal/statemodel"
)

// PlanCache memoizes estimator plans by the canonical PlanKey. Consumers
// must treat returned plans as immutable — they are shared.
type PlanCache struct {
	c *Cache[*statemodel.Plan]
}

// NewPlanCache returns an empty plan cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{c: NewCache[*statemodel.Plan]()}
}

// WithMetrics exports plan_cache_hits / plan_cache_misses counters.
func (pc *PlanCache) WithMetrics(reg *obs.Registry) *PlanCache {
	pc.c.WithMetrics(reg, "plan_cache")
	return pc
}

// Estimate returns the (possibly cached) plan for the workflow under the
// given estimator. Estimators with opaque timers bypass the cache.
func (pc *PlanCache) Estimate(est *statemodel.Estimator, w *dag.Workflow) (*statemodel.Plan, error) {
	key, ok := PlanKey(est, w)
	if !ok {
		return est.Estimate(w)
	}
	return pc.c.Do(key, func() (*statemodel.Plan, error) { return est.Estimate(w) })
}

// Stats returns hit/miss counts.
func (pc *PlanCache) Stats() (hits, misses int64) { return pc.c.Stats() }

// ResultCache memoizes simulation results by the canonical ResultKey —
// sweeps that re-measure a shared baseline configuration (Figure 6's
// profiling run, FailureStudy's clean run) simulate it once. Consumers
// must treat returned results as immutable — they are shared.
type ResultCache struct {
	c *Cache[*simulator.Result]
}

// NewResultCache returns an empty result cache.
func NewResultCache() *ResultCache {
	return &ResultCache{c: NewCache[*simulator.Result]()}
}

// WithMetrics exports sim_cache_hits / sim_cache_misses counters.
func (rc *ResultCache) WithMetrics(reg *obs.Registry) *ResultCache {
	rc.c.WithMetrics(reg, "sim_cache")
	return rc
}

// Run returns the (possibly cached) simulation result for the workflow
// on the cluster under the given options.
func (rc *ResultCache) Run(spec cluster.Spec, opt simulator.Options, w *dag.Workflow) (*simulator.Result, error) {
	key := ResultKey(spec, opt, w)
	return rc.c.Do(key, func() (*simulator.Result, error) {
		return simulator.New(spec, opt).Run(w)
	})
}

// Stats returns hit/miss counts.
func (rc *ResultCache) Stats() (hits, misses int64) { return rc.c.Stats() }

// Len reports how many distinct results are cached.
func (rc *ResultCache) Len() int { return rc.c.Len() }
