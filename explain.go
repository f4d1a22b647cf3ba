package boedag

import (
	"boedag/internal/evalpool"
	"boedag/internal/explain"
)

// Estimate explainability. A single estimator run can be unfolded into an
// explained estimate: the critical path through the predicted plan (a
// chain of intervals whose durations sum exactly to the makespan, each
// tagged with its dominant resource), per-resource and per-job bottleneck
// attribution, the time-weighted utilization of every predicted state,
// and a θ-sensitivity table answering "which cluster parameter should we
// upgrade first".
type (
	// Explanation is a fully explained estimate; its JSON form is the
	// wire contract of the prediction service's POST /v1/explain.
	Explanation = explain.Explanation
	// ExplainOptions tune an explanation (ε, worker fan-out, plan cache).
	ExplainOptions = explain.Options
	// CriticalInterval is one link of the critical path.
	CriticalInterval = explain.Interval
	// ExplainResourceShare attributes part of the makespan to a resource.
	ExplainResourceShare = explain.ResourceShare
	// ExplainJobShare attributes part of the critical path to a job.
	ExplainJobShare = explain.JobShare
	// ExplainStateUtil is one predicted state's utilization view.
	ExplainStateUtil = explain.StateUtil
	// ThetaSensitivity is one row of the θ-sensitivity table.
	ThetaSensitivity = explain.Sensitivity
)

// Interval tags beyond the cluster resource classes.
const (
	// ExplainResourceSlots tags parallelism-bound (slot-bound) intervals.
	ExplainResourceSlots = explain.ResourceSlots
	// ExplainResourceSubmit tags job-submit-overhead gaps.
	ExplainResourceSubmit = explain.ResourceSubmit
)

// Explain runs the estimator once and explains the resulting plan.
var Explain = explain.Explain

// PlanCache memoizes estimator plans by canonical workflow signature;
// set it as ExplainOptions.Cache to make repeated explanations of the
// same scenario free.
type PlanCache = evalpool.PlanCache

// NewPlanCache returns an empty estimator-plan cache.
var NewPlanCache = evalpool.NewPlanCache
