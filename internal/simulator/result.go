// Package simulator is the ground-truth substrate of this reproduction: a
// discrete-event simulator of a MapReduce cluster executing a DAG
// workflow. It stands in for the paper's eleven-node Hadoop testbed (see
// DESIGN.md §2). Tasks progress through pipelined sub-stages at rates set
// by progressive-filling max-min fair sharing of the cluster's disk,
// network and CPU pools; containers are granted by a DRF scheduler; task
// sizes carry configurable skew. Every model in this repository is
// evaluated against the task, stage and workflow times measured here.
package simulator

import (
	"fmt"
	"sort"
	"time"

	"boedag/internal/cluster"
	"boedag/internal/workload"
)

// TaskRecord is the measured execution of one task.
type TaskRecord struct {
	Job   string
	Stage workload.Stage
	// Index is the task's ordinal within its stage.
	Index int
	// Start and End are offsets from workflow submission.
	Start, End time.Duration
	// SubStages holds the measured duration of each pipelined sub-stage.
	SubStages []time.Duration
	// Bottleneck is the resource the task spent the most time bound by.
	Bottleneck cluster.Resource
	// SizeFactor is the skew multiplier applied to this task's data.
	SizeFactor float64
	// Retries counts failed attempts re-executed before this record's
	// successful run.
	Retries int
}

// Duration is the task's total execution time.
func (t TaskRecord) Duration() time.Duration { return t.End - t.Start }

// StageRecord aggregates the measured execution of one job stage.
type StageRecord struct {
	Job        string
	Stage      workload.Stage
	Start, End time.Duration
	// TaskTimes are the durations of the stage's tasks, in task order.
	TaskTimes []time.Duration
	// MaxParallelism is the peak number of this stage's tasks running at
	// once — the observed degree of parallelism.
	MaxParallelism int
	// Bottleneck is the stage's dominant task bottleneck.
	Bottleneck cluster.Resource
}

// Duration is the stage's wall-clock span.
func (s StageRecord) Duration() time.Duration { return s.End - s.Start }

// MedianTaskTime returns the median task duration (zero if no tasks).
func (s StageRecord) MedianTaskTime() time.Duration {
	n := len(s.TaskTimes)
	if n == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), s.TaskTimes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// MeanTaskTime returns the mean task duration (zero if no tasks).
func (s StageRecord) MeanTaskTime() time.Duration {
	if len(s.TaskTimes) == 0 {
		return 0
	}
	var sum time.Duration
	for _, t := range s.TaskTimes {
		sum += t
	}
	return sum / time.Duration(len(s.TaskTimes))
}

// StateRecord is one workflow state (paper §IV-A1): a maximal interval
// during which no job transitions between map and reduce stages, so every
// job's degree of parallelism is constant.
type StateRecord struct {
	// Seq numbers states from 1, as in the paper's figures.
	Seq        int
	Start, End time.Duration
	// Running lists "job/stage" labels active during the state, sorted.
	Running []string
	// Utilization is the time-averaged cluster utilization of each
	// resource class during the state.
	Utilization [cluster.NumResources]float64
}

// DominantResource is the resource class with the highest average
// utilization during the state — the state's system bottleneck in the
// paper's sense.
func (s StateRecord) DominantResource() cluster.Resource {
	best := cluster.CPU
	for _, r := range cluster.Resources() {
		if s.Utilization[r] > s.Utilization[best] {
			best = r
		}
	}
	return best
}

// Duration is the state's wall-clock span.
func (s StateRecord) Duration() time.Duration { return s.End - s.Start }

// Result is everything a simulation run measured.
type Result struct {
	Workflow string
	Makespan time.Duration
	Tasks    []TaskRecord
	Stages   []StageRecord
	States   []StateRecord
	// Preemptions counts running tasks evicted by the hierarchical
	// scheduler's reclaim phase (always zero under flat policies).
	Preemptions int
}

// TotalRetries sums failed attempts across all tasks.
func (r *Result) TotalRetries() int {
	n := 0
	for _, t := range r.Tasks {
		n += t.Retries
	}
	return n
}

// StageOf returns the record of (job, stage), or nil if the stage never
// ran (e.g. a map-only job's reduce).
func (r *Result) StageOf(job string, s workload.Stage) *StageRecord {
	for i := range r.Stages {
		if r.Stages[i].Job == job && r.Stages[i].Stage == s {
			return &r.Stages[i]
		}
	}
	return nil
}

// TasksOf returns the task records of (job, stage) in task order.
func (r *Result) TasksOf(job string, s workload.Stage) []TaskRecord {
	var out []TaskRecord
	for _, t := range r.Tasks {
		if t.Job == job && t.Stage == s {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// String summarizes the run.
func (r *Result) String() string {
	return fmt.Sprintf("%s: makespan %.1fs, %d tasks, %d stages, %d states",
		r.Workflow, r.Makespan.Seconds(), len(r.Tasks), len(r.Stages), len(r.States))
}
