package explain

import (
	"context"
	"time"

	"boedag/internal/boe"
	"boedag/internal/cluster"
	"boedag/internal/dag"
	"boedag/internal/evalpool"
	"boedag/internal/obs"
	"boedag/internal/statemodel"
	"boedag/internal/units"
)

// scaleRate multiplies one node throughput parameter θ_X by f, leaving
// everything else (core/disk counts, memory, slots) untouched.
func scaleRate(spec cluster.Spec, r cluster.Resource, f float64) cluster.Spec {
	switch r {
	case cluster.CPU:
		spec.Node.CoreThroughput = units.Rate(float64(spec.Node.CoreThroughput) * f)
	case cluster.DiskRead:
		spec.Node.DiskReadRate = units.Rate(float64(spec.Node.DiskReadRate) * f)
	case cluster.DiskWrite:
		spec.Node.DiskWriteRate = units.Rate(float64(spec.Node.DiskWriteRate) * f)
	case cluster.Network:
		spec.Node.NetworkRate = units.Rate(float64(spec.Node.NetworkRate) * f)
	}
	return spec
}

// sensitivity re-runs the estimator once per cluster throughput
// parameter with that rate improved by ε and reports the finite
// difference against the base makespan. Only BOE-backed estimators have
// a θ to perturb; profile-backed timers return an empty table. The
// perturbed runs fan out through evalpool (input-ordered, so the table
// is deterministic at any worker count) and, when Options.Cache is set,
// memoize through the single-flight plan cache so repeated explanations
// of the same scenario re-run nothing. Without a cache (the daemon's
// case) the perturbed plans are dropped once their makespans are read.
func sensitivity(ctx context.Context, est *statemodel.Estimator, flow *dag.Workflow, plan *statemodel.Plan, opt Options) ([]Sensitivity, error) {
	bt, ok := est.Timer.(*statemodel.BOETimer)
	if !ok {
		return nil, nil
	}
	resources := cluster.Resources()
	jobs := make([]func() (time.Duration, error), len(resources))
	for i, r := range resources {
		r := r
		jobs[i] = func() (time.Duration, error) {
			model := boe.New(scaleRate(bt.Model.Spec, r, 1+opt.Epsilon))
			model.EqualSplit = bt.Model.EqualSplit
			o := est.Opt
			o.Observe = obs.Options{} // perturbed runs are silent
			perturbed := statemodel.New(
				scaleRate(est.Spec, r, 1+opt.Epsilon),
				&statemodel.BOETimer{Model: model, TaskStartOverhead: bt.TaskStartOverhead},
				o,
			)
			var p *statemodel.Plan
			var err error
			if opt.Cache != nil {
				p, err = opt.Cache.Estimate(perturbed, flow)
			} else {
				p, err = perturbed.Estimate(flow)
			}
			if err != nil {
				return 0, err
			}
			return p.Makespan, nil
		}
	}
	makespans, err := evalpool.Run(ctx, jobs, opt.Workers)
	if err != nil {
		return nil, err
	}
	out := make([]Sensitivity, len(resources))
	best := -1
	for i, r := range resources {
		base := plan.Makespan.Seconds()
		pert := makespans[i].Seconds()
		out[i] = Sensitivity{
			Parameter:  r.String(),
			Epsilon:    opt.Epsilon,
			BaseS:      base,
			PerturbedS: pert,
			DeltaS:     base - pert,
			GradientS:  (pert - base) / opt.Epsilon,
		}
		if out[i].DeltaS > 0 && (best < 0 || out[i].DeltaS > out[best].DeltaS) {
			best = i
		}
	}
	if best >= 0 {
		out[best].Best = true
	}
	return out, nil
}
