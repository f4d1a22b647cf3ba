package boedag

import (
	"io"

	"boedag/internal/calibrate"
	"boedag/internal/dag"
	"boedag/internal/progress"
	"boedag/internal/sched"
	"boedag/internal/simulator"
	"boedag/internal/spark"
	"boedag/internal/statemodel"
)

// This file exports the extensions beyond the paper's evaluation: the
// skew-aware empirical estimator mode (the paper's first named follow-up),
// an online progress indicator, alternative scheduler policies, the Spark
// lineage adapter backing the paper's generality claim, and cluster
// calibration.

// EmpiricalMode is the skew-aware extension of the three paper modes:
// stage durations come from list-scheduling the measured task-time sample
// (distribution-free straggler handling).
const EmpiricalMode = statemodel.EmpiricalMode

// Scheduling policies.
type SchedPolicy = sched.Policy

// The scheduler disciplines the simulator and estimator can model.
const (
	PolicyDRF  = sched.PolicyDRF
	PolicyFIFO = sched.PolicyFIFO
	PolicyFair = sched.PolicyFair
)

// Progress estimation (the ParaTimer-style application).
type (
	// ProgressIndicator re-estimates remaining time from snapshots.
	ProgressIndicator = progress.Indicator
	// ProgressPoint is one sample of a progress curve.
	ProgressPoint = progress.Point
	// WorkflowSnapshot captures a workflow mid-flight.
	WorkflowSnapshot = statemodel.Snapshot
	// JobSnapshot is one job's observed progress.
	JobSnapshot = statemodel.JobSnapshot
	// JobPhase is a job's phase within a snapshot.
	JobPhase = statemodel.JobPhase
)

// Snapshot phases.
const (
	JobPending  = statemodel.JobPending
	JobMapping  = statemodel.JobMapping
	JobReducing = statemodel.JobReducing
	JobFinished = statemodel.JobFinished
)

// ProgressCurve evaluates a progress indicator against the simulated
// truth at the given completion fractions.
func ProgressCurve(in *ProgressIndicator, res *simulator.Result, fractions []float64) ([]ProgressPoint, error) {
	return progress.Curve(in, res, fractions)
}

// Online progress estimation over a live event stream.
type (
	// LiveProgressPoint is one (elapsed, predicted-remaining) sample.
	LiveProgressPoint = progress.LivePoint
	// LiveProgressOptions tune the online tracker.
	LiveProgressOptions = progress.LiveOptions
)

// FollowProgress subscribes to a trace stream and emits one
// LiveProgressPoint per re-estimate while the observed run executes.
// The indicator's estimator must not emit into the same stream.
func FollowProgress(stream *TraceStream, in *ProgressIndicator, opt LiveProgressOptions) <-chan LiveProgressPoint {
	return progress.Follow(stream, in, opt)
}

// Spark lineage adapter.
type (
	// SparkLineage is a Spark job as a DAG of shuffle-bounded stages.
	SparkLineage = spark.Lineage
	// SparkStage is one fused pipeline between shuffles.
	SparkStage = spark.Stage
	// SparkStageID names a stage.
	SparkStageID = spark.StageID
)

// TranslateSpark compiles a Spark lineage into a MapReduce workflow that
// runs on this repository's simulator and cost models.
func TranslateSpark(l *SparkLineage) (*dag.Workflow, error) { return spark.Translate(l) }

// SparkPageRank is a canonical example lineage: an edge scan followed by
// the given number of rank-update rounds.
var SparkPageRank = spark.PageRankLineage

// Cluster calibration (the profiling step before using the models on new
// hardware).
type (
	// CalibrationEstimate holds recovered cluster throughputs.
	CalibrationEstimate = calibrate.Estimate
	// CalibrationRunner executes probe jobs on the cluster under test.
	CalibrationRunner = calibrate.Runner
)

// CalibrateCluster probes a cluster and recovers the θ_X throughputs the
// BOE model consumes.
func CalibrateCluster(run CalibrationRunner, slots, nodes int) (*CalibrationEstimate, error) {
	return calibrate.Cluster(run, slots, nodes)
}

// Offline (trace-driven) calibration: recover θ_X from recorded Chrome
// traces of probe runs instead of a live cluster.
type (
	// TraceCalibration is an offline calibration result: the estimate
	// plus session facts and per-resource confidence.
	TraceCalibration = calibrate.Calibration
	// TraceSession is a parsed probe-session trace.
	TraceSession = calibrate.Session
)

// CalibrateFromTrace recovers cluster throughputs from one or more
// recorded Chrome trace files of a probe session (written by
// `dagsim -trace-out` or `calibrate -trace-out`).
func CalibrateFromTrace(paths ...string) (*TraceCalibration, error) {
	return calibrate.FromTraceFiles(paths...)
}

// ParseProbeTrace parses one Chrome trace_event JSON stream into a
// session that TraceCalibrationRunner or calibrate.FromSession consume.
func ParseProbeTrace(r io.Reader) (*TraceSession, error) {
	return calibrate.ParseChromeTrace(r)
}

// TraceCalibrationRunner serves a recorded session's measurements to the
// calibration arithmetic, so CalibrateCluster recovers θ_X offline.
func TraceCalibrationRunner(s *TraceSession) CalibrationRunner {
	return calibrate.TraceRunner(s)
}
