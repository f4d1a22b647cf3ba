// Package profile captures and persists job execution profiles: per-stage
// task-time distributions measured from a (simulated) run. Profiles are
// the historical knowledge P of the paper's problem statement — the
// state-based estimator of §V-C consumes them "to eliminate the error of
// task-level models", and the Starfish/MRTuner-style baselines replay
// them verbatim.
package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"boedag/internal/cluster"
	"boedag/internal/simulator"
	"boedag/internal/workload"
)

// StageProfile is the measured task-time distribution of one job stage.
type StageProfile struct {
	// Job and Stage identify the profiled stage.
	Job   string         `json:"job"`
	Stage workload.Stage `json:"stage"`
	// Parallelism is the degree of parallelism of the profiling run.
	Parallelism int `json:"parallelism"`
	// TaskTimes are the measured per-task durations.
	TaskTimes []time.Duration `json:"task_times"`
	// Bottleneck is the dominant resource observed during profiling.
	Bottleneck cluster.Resource `json:"bottleneck"`
}

// Median returns the median task time.
func (p StageProfile) Median() time.Duration { return quantile(p.TaskTimes, 0.5) }

// Mean returns the mean task time.
func (p StageProfile) Mean() time.Duration {
	if len(p.TaskTimes) == 0 {
		return 0
	}
	var sum time.Duration
	for _, t := range p.TaskTimes {
		sum += t
	}
	return sum / time.Duration(len(p.TaskTimes))
}

// StdDev returns the sample standard deviation of the task times.
func (p StageProfile) StdDev() time.Duration {
	n := len(p.TaskTimes)
	if n < 2 {
		return 0
	}
	mean := p.Mean().Seconds()
	var ss float64
	for _, t := range p.TaskTimes {
		d := t.Seconds() - mean
		ss += d * d
	}
	return time.Duration(math.Sqrt(ss/float64(n-1)) * float64(time.Second))
}

// Quantile returns the q-quantile task time, q in [0,1].
func (p StageProfile) Quantile(q float64) time.Duration { return quantile(p.TaskTimes, q) }

func quantile(ts []time.Duration, q float64) time.Duration {
	n := len(ts)
	if n == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + time.Duration(frac*float64(sorted[lo+1]-sorted[lo]))
}

// Set holds the profiles of every stage of every job in a workflow,
// keyed by job ID.
type Set struct {
	// Workflow names the run the profiles came from.
	Workflow string `json:"workflow"`
	// Stages maps "job" → stage profiles.
	Stages map[string][]StageProfile `json:"stages"`
}

// Capture extracts a profile set from a simulation result.
func Capture(res *simulator.Result) *Set {
	set := &Set{Workflow: res.Workflow, Stages: make(map[string][]StageProfile)}
	for _, s := range res.Stages {
		set.Stages[s.Job] = append(set.Stages[s.Job], StageProfile{
			Job:         s.Job,
			Stage:       s.Stage,
			Parallelism: s.MaxParallelism,
			TaskTimes:   append([]time.Duration(nil), s.TaskTimes...),
			Bottleneck:  s.Bottleneck,
		})
	}
	return set
}

// Stage returns the profile of (job, stage) and whether it exists.
func (s *Set) Stage(job string, st workload.Stage) (StageProfile, bool) {
	for _, p := range s.Stages[job] {
		if p.Stage == st {
			return p, true
		}
	}
	return StageProfile{}, false
}

// Save writes the set as indented JSON.
func (s *Set) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("profile: save %q: %w", s.Workflow, err)
	}
	return nil
}

// Load reads a set saved by Save.
func Load(r io.Reader) (*Set, error) {
	var s Set
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("profile: load: %w", err)
	}
	return &s, nil
}
