// Package boedag is a reproduction of "Performance Models of Data
// Parallel DAG Workflows for Large Scale Data Analytics" (Shi & Lu, ICDE
// 2021). It provides:
//
//   - the Bottleneck Oriented Estimation (BOE) task-level cost model,
//   - the state-based workflow-level estimator (Algorithm 1 of the paper)
//     with mean / median / normal-distribution skew handling,
//   - a discrete-event MapReduce cluster simulator that stands in for the
//     paper's eleven-node Hadoop testbed as ground truth,
//   - a DRF scheduler model, workload generators (Word Count, TeraSort
//     variants, HiBench KMeans and PageRank, TPC-H Q1–Q22), and
//     profile-replay baselines in the spirit of Starfish and MRTuner.
//
// The package re-exports the stable API; implementation lives under
// internal/. Start with Quickstart-style usage:
//
//	spec := boedag.PaperCluster()
//	model := boedag.NewBOE(spec)
//	est := model.TaskTime(boedag.WordCount(100*boedag.GB), boedag.Map, 12)
//
// and see examples/ for complete programs.
package boedag

import (
	"boedag/internal/boe"
	"boedag/internal/cluster"
	"boedag/internal/dag"
	"boedag/internal/sched"
	"boedag/internal/simulator"
	"boedag/internal/units"
	"boedag/internal/workload"
)

// Data sizes and rates.
type (
	// Bytes is a data size in bytes.
	Bytes = units.Bytes
	// Rate is a throughput in bytes per second.
	Rate = units.Rate
)

// Size constants.
const (
	KB = units.KB
	MB = units.MB
	GB = units.GB
	TB = units.TB
	// MBps is one megabyte per second.
	MBps = units.MBps
)

// Cluster description.
type (
	// ClusterSpec declares a homogeneous cluster.
	ClusterSpec = cluster.Spec
	// NodeSpec declares one server's capacities.
	NodeSpec = cluster.NodeSpec
	// Resource identifies a preemptable resource class.
	Resource = cluster.Resource
)

// Resource classes.
const (
	CPU       = cluster.CPU
	DiskRead  = cluster.DiskRead
	DiskWrite = cluster.DiskWrite
	Network   = cluster.Network
)

// PaperCluster returns the paper's evaluation cluster (§V-A).
func PaperCluster() ClusterSpec { return cluster.PaperCluster() }

// Workloads.
type (
	// JobProfile statically describes a MapReduce job.
	JobProfile = workload.JobProfile
	// Stage is Map or Reduce.
	Stage = workload.Stage
	// Compression configures map-output compression.
	Compression = workload.Compression
)

// Stages.
const (
	Map    = workload.Map
	Reduce = workload.Reduce
)

// Workload generators (Table I of the paper).
var (
	WordCount = workload.WordCount
	TeraSort  = workload.TeraSort
)

// DAG workflows.
type (
	// Workflow is a DAG of jobs (Definition 1 of the paper).
	Workflow = dag.Workflow
	// Job is one vertex of a workflow.
	Job = dag.Job
)

// Workflow constructors.
var (
	// Single wraps one job into a workflow.
	Single = dag.Single
	// Chain builds a linear workflow.
	Chain = dag.Chain
	// ParallelFlows merges workflows to run side by side.
	ParallelFlows = dag.Parallel
)

// BOE task-level model.
type (
	// BOEModel estimates task execution times (paper §III).
	BOEModel = boe.Model
	// TaskGroup is a set of identical concurrent tasks.
	TaskGroup = boe.TaskGroup
	// TaskEstimate is a task-level prediction.
	TaskEstimate = boe.TaskEstimate
	// SubStageEstimate is a sub-stage-level prediction.
	SubStageEstimate = boe.SubStageEstimate
)

// NewBOE returns a BOE model for the cluster.
func NewBOE(spec ClusterSpec) *BOEModel { return boe.New(spec) }

// Scheduling.
type (
	// SchedRequest is one job's container appetite.
	SchedRequest = sched.Request
	// SchedPool is the capacity DRF divides.
	SchedPool = sched.Pool
)

// DRFParallelism estimates each job's steady-state degree of parallelism.
func DRFParallelism(spec ClusterSpec, reqs []SchedRequest) map[string]int {
	return sched.Parallelism(sched.PoolOf(spec), reqs)
}

// Simulation (ground truth).
type (
	// Simulator executes workflows on a simulated cluster.
	Simulator = simulator.Simulator
	// SimOptions tune a simulation run.
	SimOptions = simulator.Options
	// SimResult carries a run's measurements.
	SimResult = simulator.Result
	// TaskRecord is one task's measured execution.
	TaskRecord = simulator.TaskRecord
	// StageRecord is one job stage's measured execution.
	StageRecord = simulator.StageRecord
	// StateRecord is one workflow state's measured span.
	StateRecord = simulator.StateRecord
)

// NewSimulator returns a simulator for the cluster.
func NewSimulator(spec ClusterSpec, opt SimOptions) *Simulator {
	return simulator.New(spec, opt)
}
