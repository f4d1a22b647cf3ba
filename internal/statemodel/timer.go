// Package statemodel implements the workflow-level cost model of the
// paper (§IV): the state-based approach that breaks a DAG workflow into
// states at every map/reduce transition and iteratively estimates each
// state's duration (Algorithm 1). Task-level times come from a pluggable
// TaskTimer: the BOE model (contention-aware prediction from first
// principles) or measured profiles (the §V-C configuration that isolates
// the state-model's own error). Skew is handled by three interchangeable
// stage-duration rules: mean, median, and a fitted normal distribution
// with an expected-maximum straggler correction (the paper's Alg1-Mean,
// Alg1-Mid and Alg2-Normal variants).
package statemodel

import (
	"fmt"
	"math"
	"time"

	"boedag/internal/boe"
	"boedag/internal/cluster"
	"boedag/internal/profile"
	"boedag/internal/units"
	"boedag/internal/workload"
)

// SkewMode selects how a task-time distribution is collapsed into stage
// durations.
type SkewMode int

const (
	// MeanMode uses the mean task time (paper's Alg1-Mean).
	MeanMode SkewMode = iota
	// MedianMode uses the median task time (paper's Alg1-Mid).
	MedianMode
	// NormalMode fits a normal distribution and corrects the final wave by
	// the expected maximum of Δ draws (paper's Alg2-Normal).
	NormalMode
	// EmpiricalMode is this repository's extension of the paper's
	// skew-aware future work: stage durations come from list-scheduling
	// the measured task-time sample itself (package skew), which stays
	// correct where the normal fit of Alg2-Normal breaks down
	// (multimodal or heavy-tailed task times). It needs a TaskTimer that
	// supplies Sample — ProfileTimer does; BOETimer falls back to
	// NormalMode behaviour.
	EmpiricalMode
)

// String names the mode as the paper's tables do.
func (m SkewMode) String() string {
	switch m {
	case MeanMode:
		return "Alg1-Mean"
	case MedianMode:
		return "Alg1-Mid"
	case NormalMode:
		return "Alg2-Normal"
	case EmpiricalMode:
		return "Ext-Empirical"
	}
	return "SkewMode(?)"
}

// ParseSkewMode maps a mode name to its SkewMode: "" or "mean",
// "median" or "mid", and "normal". The empirical extension has no name
// here; it is selected in code.
func ParseSkewMode(name string) (SkewMode, error) {
	switch name {
	case "", "mean":
		return MeanMode, nil
	case "median", "mid":
		return MedianMode, nil
	case "normal":
		return NormalMode, nil
	}
	return 0, fmt.Errorf("unknown skew mode %q (mean | median | normal)", name)
}

// Modes lists the paper's three skew modes in Table III order.
func Modes() []SkewMode { return []SkewMode{MeanMode, MedianMode, NormalMode} }

// AllModes adds the repository's empirical extension to the paper's
// three.
func AllModes() []SkewMode { return append(Modes(), EmpiricalMode) }

// TaskTimeDist summarizes the predicted distribution of task times for
// one job stage in one workflow state.
type TaskTimeDist struct {
	Mean   time.Duration
	Median time.Duration
	Std    time.Duration
	// Sample optionally carries the raw task-time observations backing
	// the summary; EmpiricalMode consumes it.
	Sample []time.Duration
	// Bottleneck is the resource the predicted task spends the most time
	// bound by — the time-weighted dominant sub-stage bottleneck. Timers
	// without resource knowledge (bare profiles) leave it at the zero
	// value (CPU).
	Bottleneck cluster.Resource
	// Util[r] is the predicted cluster-wide utilization of resource r
	// while this task's state runs, time-weighted across sub-stages.
	// Zero for timers without resource knowledge.
	Util [cluster.NumResources]float64
}

// ByMode returns the representative task time for the skew mode.
func (d TaskTimeDist) ByMode(m SkewMode) time.Duration {
	switch m {
	case MedianMode:
		return d.Median
	default:
		return d.Mean
	}
}

// TaskTimer predicts the task-time distribution of one job's current
// stage given every concurrently running group (the contention
// environment). self is the index of the job's own group within groups.
type TaskTimer interface {
	TaskDist(jobID string, groups []boe.TaskGroup, self int) TaskTimeDist
}

// DistCacheable is implemented by TaskTimer implementations whose
// TaskDist is a pure function of its visible inputs (jobID, the group
// sequence, self) and the fingerprinted parameters. The estimator only
// memoizes task-time solves for timers that vouch for their purity this
// way; opaque timers are never cached (correctness over speed).
type DistCacheable interface {
	// DistFingerprint hashes every parameter the timer reads beyond the
	// TaskDist arguments. jobSensitive reports whether the result depends
	// on jobID (forcing per-job cache keys); ok=false disables caching.
	DistFingerprint() (fp uint64, jobSensitive, ok bool)
}

// BOETimer predicts task times with the BOE model, adding the per-task
// container-start overhead and deriving the spread from the workload's
// declared skew.
type BOETimer struct {
	Model *boe.Model
	// TaskStartOverhead is added to every task (container launch latency);
	// it must match the simulated system's overhead to compare fairly.
	TaskStartOverhead time.Duration
}

// solverTimer is a TaskTimer that can make its BOE solves on a solver
// the estimator holds for the whole run, so the run's fair-share memo
// and waterfill counts cover them. The estimator hands it each state's
// groups once (beginState, with the jobs' resolved stages, see
// boe.Model.BeginState); taskDistIn then answers TaskDist for one group
// of that state.
type solverTimer interface {
	beginState(sv *boe.Solver, groups []boe.TaskGroup, infos []*boe.StageInfo)
	taskDistIn(sv *boe.Solver, jobID string, groups []boe.TaskGroup, self int) TaskTimeDist
}

// TaskDist implements TaskTimer.
func (t *BOETimer) TaskDist(jobID string, groups []boe.TaskGroup, self int) TaskTimeDist {
	return t.dist(groups[self], t.Model.TaskTimeAt(groups, self))
}

func (t *BOETimer) beginState(sv *boe.Solver, groups []boe.TaskGroup, infos []*boe.StageInfo) {
	t.Model.BeginState(sv, groups, infos)
}

func (t *BOETimer) taskDistIn(sv *boe.Solver, jobID string, groups []boe.TaskGroup, self int) TaskTimeDist {
	return t.dist(groups[self], t.Model.TaskTimeInState(sv, self))
}

// dist turns group g's BOE task estimate into its task-time distribution.
func (t *BOETimer) dist(g boe.TaskGroup, est boe.TaskEstimate) TaskTimeDist {
	mean := est.Duration + t.TaskStartOverhead
	// The task-size skew translates linearly into task-time skew for
	// data-bound tasks.
	std := units.Seconds(est.Duration.Seconds() * g.Profile.SkewCV)
	dist := TaskTimeDist{Mean: mean, Median: mean, Std: std}
	dist.Bottleneck, dist.Util = resolveBottleneck(est)
	return dist
}

// DistFingerprint implements DistCacheable: the BOE model is a pure
// function of the cluster spec, the split discipline and the start
// overhead, and it never reads jobID.
func (t *BOETimer) DistFingerprint() (uint64, bool, bool) {
	s := t.Model.Spec
	h := mixStr(fnvOffset, "timer:boe")
	h = mix64(h, uint64(s.Nodes))
	h = mix64(h, uint64(s.SlotsPerNode))
	h = mix64(h, uint64(s.Node.Cores))
	h = mixFloat(h, float64(s.Node.CoreThroughput))
	h = mix64(h, uint64(s.Node.Disks))
	h = mixFloat(h, float64(s.Node.DiskReadRate))
	h = mixFloat(h, float64(s.Node.DiskWriteRate))
	h = mixFloat(h, float64(s.Node.NetworkRate))
	h = mix64(h, uint64(s.Node.MemoryMB))
	if t.Model.EqualSplit {
		h = mix64(h, 1)
	} else {
		h = mix64(h, 0)
	}
	h = mix64(h, uint64(t.TaskStartOverhead))
	return h, false, true
}

// resolveBottleneck folds a BOE task estimate into the task's dominant
// resource (the bottleneck holding the most sub-stage time, ties to the
// lowest resource index) and the time-weighted cluster utilization over
// the task's sub-stages.
func resolveBottleneck(est boe.TaskEstimate) (cluster.Resource, [cluster.NumResources]float64) {
	var busy [cluster.NumResources]float64
	var util [cluster.NumResources]float64
	total := 0.0
	for _, ss := range est.SubStages {
		d := ss.Duration.Seconds()
		if d <= 0 {
			continue
		}
		busy[ss.Bottleneck] += d
		total += d
		for r := 0; r < cluster.NumResources; r++ {
			util[r] += ss.Utilization[r] * d
		}
	}
	dominant := cluster.CPU
	for _, r := range cluster.Resources() {
		if busy[r] > busy[dominant] {
			dominant = r
		}
	}
	if total > 0 {
		for r := 0; r < cluster.NumResources; r++ {
			util[r] /= total
		}
	}
	return dominant, util
}

// ProfileTimer replays measured task-time distributions, ignoring the
// contention environment (the profiles were captured at the matching
// degree of parallelism, per §V-C). It deliberately does not implement
// DistCacheable: a profile lookup is already O(1), so memoizing it would
// only add key-hashing overhead to the hot loop.
type ProfileTimer struct {
	Profiles *profile.Set
	// Fallback, if non-nil, covers stages absent from the profiles.
	Fallback TaskTimer
}

// TaskDist implements TaskTimer.
func (t *ProfileTimer) TaskDist(jobID string, groups []boe.TaskGroup, self int) TaskTimeDist {
	return t.taskDistIn(nil, jobID, groups, self)
}

// beginState hands the state to a Fallback that can solve on the run's
// solver.
func (t *ProfileTimer) beginState(sv *boe.Solver, groups []boe.TaskGroup, infos []*boe.StageInfo) {
	if st, ok := t.Fallback.(solverTimer); ok {
		st.beginState(sv, groups, infos)
	}
}

// taskDistIn lets a Fallback that can solve on the run's solver do so,
// in the state begun on it; with a nil solver every fallback solves on
// its own.
func (t *ProfileTimer) taskDistIn(sv *boe.Solver, jobID string, groups []boe.TaskGroup, self int) TaskTimeDist {
	g := groups[self]
	if p, ok := t.Profiles.Stage(jobID, g.Stage); ok && len(p.TaskTimes) > 0 {
		return TaskTimeDist{
			Mean:   p.Mean(),
			Median: p.Median(),
			Std:    p.StdDev(),
			Sample: p.TaskTimes,
		}
	}
	if st, ok := t.Fallback.(solverTimer); ok && sv != nil {
		return st.taskDistIn(sv, jobID, groups, self)
	}
	if t.Fallback != nil {
		return t.Fallback.TaskDist(jobID, groups, self)
	}
	return TaskTimeDist{}
}

// ExpectedMaxNormal returns E[max of n i.i.d. N(mean, std) draws], using
// the asymptotic extreme-value expansion for n ≥ 5 and exact/tabulated
// constants for small n. It is the straggler correction of NormalMode:
// a stage's final wave ends when its slowest task does.
func ExpectedMaxNormal(mean, std time.Duration, n int) time.Duration {
	if n <= 1 || std <= 0 {
		return mean
	}
	return mean + time.Duration(expectedMaxStdNormal(n)*float64(std))
}

// expectedMaxStdNormal is E[max of n standard normal draws].
func expectedMaxStdNormal(n int) float64 {
	// Exact values for tiny n (Harter 1961).
	switch n {
	case 2:
		return 0.5642
	case 3:
		return 0.8463
	case 4:
		return 1.0294
	}
	ln := math.Log(float64(n))
	a := math.Sqrt(2 * ln)
	return a - (math.Log(ln)+math.Log(4*math.Pi))/(2*a) + 0.5772/a
}

// groupFor builds the boe.TaskGroup describing a running job stage with
// the steady-state aggregate sub-stage view.
func groupFor(p workload.JobProfile, st workload.Stage, parallelism int) boe.TaskGroup {
	return boe.TaskGroup{
		Profile:     p,
		Stage:       st,
		SubStage:    boe.AggregateSubStage,
		Parallelism: parallelism,
	}
}
