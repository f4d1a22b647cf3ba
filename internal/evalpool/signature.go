package evalpool

import (
	"math"
	"sort"
	"strconv"
	"time"

	"boedag/internal/cluster"
	"boedag/internal/dag"
	"boedag/internal/simulator"
	"boedag/internal/statemodel"
	"boedag/internal/workload"
)

// Hasher accumulates an FNV-1a 64-bit hash over typed fields. It exists
// so every cache key is built from the same canonical encoding: each
// field is hashed with a separator byte, so adjacent fields cannot alias
// ("ab","c" vs "a","bc") and a zero field still advances the state.
type Hasher struct{ h uint64 }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// NewHasher returns a Hasher at the FNV offset basis.
func NewHasher() *Hasher { return &Hasher{h: fnvOffset} }

func (h *Hasher) byte(b byte) {
	h.h = (h.h ^ uint64(b)) * fnvPrime
}

// Str hashes a string field.
func (h *Hasher) Str(s string) {
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
	h.byte(0xff) // field separator
}

// Uint hashes an unsigned integer field.
func (h *Hasher) Uint(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

// Int hashes a signed integer field.
func (h *Hasher) Int(v int64) { h.Uint(uint64(v)) }

// Float hashes a float field by its IEEE-754 bits.
func (h *Hasher) Float(v float64) { h.Uint(math.Float64bits(v)) }

// Bool hashes a boolean field.
func (h *Hasher) Bool(v bool) {
	if v {
		h.byte(1)
	} else {
		h.byte(0)
	}
	h.byte(0xff)
}

// Dur hashes a duration field.
func (h *Hasher) Dur(d time.Duration) { h.Int(int64(d)) }

// Key renders the accumulated hash as a compact cache key.
func (h *Hasher) Key() string { return strconv.FormatUint(h.h, 16) }

// Workflow folds a workflow's full identity into the hash: name, job IDs
// and dependencies in declaration order (declaration order is submission
// order under FIFO, so it is semantically significant), and every
// JobProfile field.
func (h *Hasher) Workflow(w *dag.Workflow) {
	h.Str(w.Name)
	h.Int(int64(len(w.Jobs)))
	for _, j := range w.Jobs {
		h.Str(j.ID)
		h.Int(int64(len(j.Deps)))
		for _, d := range j.Deps {
			h.Str(d)
		}
		h.Profile(j.Profile)
	}
}

// Profile folds every field of a job profile into the hash.
func (h *Hasher) Profile(p workload.JobProfile) {
	h.Str(p.Name)
	h.Int(int64(p.InputBytes))
	h.Int(int64(p.SplitBytes))
	h.Int(int64(p.ReduceTasks))
	h.Float(p.MapSelectivity)
	h.Float(p.ReduceSelectivity)
	h.Float(p.MapCPUCost)
	h.Float(p.ReduceCPUCost)
	h.Bool(p.Compression.Enabled)
	h.Float(p.Compression.Ratio)
	h.Float(p.Compression.CPUOverhead)
	h.Int(int64(p.Replicas))
	h.Int(int64(p.SortBufferBytes))
	h.Int(int64(p.MapMemoryMB))
	h.Int(int64(p.ReduceMemoryMB))
	h.Int(int64(p.MapVCores))
	h.Int(int64(p.ReduceVCores))
	h.Float(p.SkewCV)
}

// Spec folds a cluster specification into the hash.
func (h *Hasher) Spec(s cluster.Spec) {
	h.Int(int64(s.Nodes))
	h.Int(int64(s.SlotsPerNode))
	h.Int(int64(s.Node.Cores))
	h.Float(float64(s.Node.CoreThroughput))
	h.Int(int64(s.Node.Disks))
	h.Float(float64(s.Node.DiskReadRate))
	h.Float(float64(s.Node.DiskWriteRate))
	h.Float(float64(s.Node.NetworkRate))
	h.Int(int64(s.Node.MemoryMB))
}

// EstimatorOptions folds every semantically significant estimator option
// (Observe is excluded: sinks do not change the plan).
func (h *Hasher) EstimatorOptions(o statemodel.Options) {
	h.Int(int64(o.Mode))
	h.Dur(o.JobSubmitOverhead)
	h.Int(int64(o.SlotLimit))
	h.Int(int64(o.Policy))
	h.Float(o.TaskFailureProb)
	h.Bool(o.DiscreteWaves)
	// Incremental vs from-scratch plans are byte-identical by contract,
	// but the reference path must never share cache lines with the
	// default path — a shared entry would mask an equivalence divergence.
	h.Bool(o.DisableIncremental)
}

// SimulatorOptions folds every semantically significant simulator option
// — including the skew Seed, so two runs differing only in their skew
// draw never share a cache line (Observe is excluded).
func (h *Hasher) SimulatorOptions(o simulator.Options) {
	h.Int(o.Seed)
	h.Dur(o.TaskStartOverhead)
	h.Dur(o.JobSubmitOverhead)
	h.Int(int64(o.SlotLimit))
	h.Int(int64(o.Policy))
	h.Float(o.TaskFailureProb)
	h.Bool(o.NodeAware)
	h.Bool(o.DisableSkew)
}

// Timer folds a TaskTimer's identity into the hash. It understands the
// two timers this repository ships; unknown implementations report
// ok=false, which makes the enclosing key uncacheable (correctness over
// speed: an opaque timer may close over anything).
func (h *Hasher) Timer(t statemodel.TaskTimer) (ok bool) {
	switch tt := t.(type) {
	case nil:
		h.Str("timer:nil")
		return true
	case *statemodel.BOETimer:
		h.Str("timer:boe")
		h.Spec(tt.Model.Spec)
		h.Bool(tt.Model.EqualSplit)
		h.Dur(tt.TaskStartOverhead)
		return true
	case *statemodel.ProfileTimer:
		h.Str("timer:profile")
		h.Str(tt.Profiles.Workflow)
		jobs := make([]string, 0, len(tt.Profiles.Stages))
		for j := range tt.Profiles.Stages {
			jobs = append(jobs, j)
		}
		sort.Strings(jobs)
		for _, j := range jobs {
			h.Str(j)
			for _, sp := range tt.Profiles.Stages[j] {
				h.Int(int64(sp.Stage))
				h.Int(int64(sp.Parallelism))
				h.Int(int64(len(sp.TaskTimes)))
				for _, d := range sp.TaskTimes {
					h.Dur(d)
				}
			}
		}
		if tt.Fallback != nil {
			return h.Timer(tt.Fallback)
		}
		h.Str("fallback:none")
		return true
	default:
		return false
	}
}

// PlanKey builds the canonical cache key for one estimator invocation:
// cluster spec + options + timer identity + full workflow. ok is false
// when the estimator's timer is not canonically hashable, in which case
// the caller must compute without caching.
func PlanKey(est *statemodel.Estimator, w *dag.Workflow) (key string, ok bool) {
	h := NewHasher()
	h.Str("plan")
	h.Spec(est.Spec)
	h.EstimatorOptions(est.Opt)
	if !h.Timer(est.Timer) {
		return "", false
	}
	h.Workflow(w)
	return h.Key(), true
}

// ResultKey builds the canonical cache key for one simulation run:
// cluster spec + options (skew seed included) + full workflow.
func ResultKey(spec cluster.Spec, opt simulator.Options, w *dag.Workflow) string {
	h := NewHasher()
	h.Str("sim")
	h.Spec(spec)
	h.SimulatorOptions(opt)
	h.Workflow(w)
	return h.Key()
}
