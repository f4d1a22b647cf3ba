// Package skew implements the skew-aware extensions the paper's
// conclusion names as follow-up work: generators for realistically skewed
// partition-size distributions (Zipfian reduce keys, power-law graph
// degrees) and an empirical stage-duration predictor that replaces the
// fitted-normal straggler correction of Alg2-Normal with the measured
// task-time distribution itself.
//
// The central quantity is the makespan of N tasks executed by Δ parallel
// slots when task durations are drawn from a distribution F. The
// statemodel's NormalMode approximates it with E[max of Δ normal draws]
// on the final wave; EmpiricalStageDuration computes it directly by
// list-scheduling the drawn durations — exact for the simulator's
// greedy-slot execution model, and distribution-free.
package skew

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"boedag/internal/units"
)

// Zipf draws n partition weights following a Zipf(s) law over k distinct
// keys hashed into the n partitions, normalized to sum to n — the shape
// of reduce-side skew under power-law key popularity (the paper's future
// work names exactly this regime). Determinism follows the seed.
func Zipf(n int, s float64, keys int, seed int64) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("skew: need at least one partition, got %d", n)
	}
	if s < 0 {
		return nil, fmt.Errorf("skew: zipf exponent must be non-negative, got %g", s)
	}
	if keys < n {
		keys = n * 16 // enough keys that every partition gets some mass
	}
	rng := rand.New(rand.NewSource(seed))
	weights := make([]float64, n)
	// Key i (1-based) carries mass i^-s; keys land on partitions by a
	// pseudo-random hash.
	for i := 1; i <= keys; i++ {
		mass := math.Pow(float64(i), -s)
		weights[rng.Intn(n)] += mass
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("skew: degenerate zipf mass")
	}
	scale := float64(n) / total
	for i := range weights {
		weights[i] *= scale
	}
	return weights, nil
}

// CV returns the coefficient of variation of the weights (σ/μ) — the
// knob the simulator's SkewCV consumes, so Zipf output can calibrate a
// workload profile.
func CV(weights []float64) float64 {
	n := len(weights)
	if n < 2 {
		return 0
	}
	mean := 0.0
	for _, w := range weights {
		mean += w
	}
	mean /= float64(n)
	if mean == 0 {
		return 0
	}
	ss := 0.0
	for _, w := range weights {
		d := w - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(n-1)) / mean
}

// EmpiricalStageDuration computes the wall-clock duration of a stage with
// the given per-task durations executed by `slots` greedy parallel slots
// (each slot takes the next task as it frees — exactly the simulator's
// and YARN's behaviour). It is the distribution-free replacement for the
// wave arithmetic: correct for any skew, including multimodal ones where
// the normal fit of Alg2-Normal breaks down.
func EmpiricalStageDuration(tasks []time.Duration, slots int) time.Duration {
	if len(tasks) == 0 || slots <= 0 {
		return 0
	}
	if slots > len(tasks) {
		slots = len(tasks)
	}
	// Greedy list scheduling with a flat slot array: with slot counts in
	// the hundreds a linear min-scan beats heap bookkeeping.
	free := make([]float64, slots)
	for _, task := range tasks {
		minIdx := 0
		for i := 1; i < slots; i++ {
			if free[i] < free[minIdx] {
				minIdx = i
			}
		}
		free[minIdx] += task.Seconds()
	}
	makespan := 0.0
	for _, f := range free {
		if f > makespan {
			makespan = f
		}
	}
	return units.Seconds(makespan)
}

// Quantiles summarizes a set of task durations at the given fractions,
// interpolating between order statistics.
func Quantiles(tasks []time.Duration, qs []float64) []time.Duration {
	out := make([]time.Duration, len(qs))
	n := len(tasks)
	if n == 0 {
		return out
	}
	sorted := append([]time.Duration(nil), tasks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, q := range qs {
		switch {
		case q <= 0:
			out[i] = sorted[0]
		case q >= 1:
			out[i] = sorted[n-1]
		default:
			pos := q * float64(n-1)
			lo := int(pos)
			frac := pos - float64(lo)
			if lo+1 >= n {
				out[i] = sorted[n-1]
			} else {
				out[i] = sorted[lo] + time.Duration(frac*float64(sorted[lo+1]-sorted[lo]))
			}
		}
	}
	return out
}

// StragglerIndex is the ratio of the p99 to the median task duration — a
// one-number skew severity indicator for reports.
func StragglerIndex(tasks []time.Duration) float64 {
	if len(tasks) == 0 {
		return 0
	}
	qs := Quantiles(tasks, []float64{0.5, 0.99})
	if qs[0] <= 0 {
		return 0
	}
	return qs[1].Seconds() / qs[0].Seconds()
}
