// Package skew implements the skew-aware extension the paper's
// conclusion names as follow-up work: an empirical stage-duration
// predictor that replaces the fitted-normal straggler correction of
// Alg2-Normal with the measured task-time distribution itself.
//
// The central quantity is the makespan of N tasks executed by Δ parallel
// slots when task durations are drawn from a distribution F. The
// statemodel's NormalMode approximates it with E[max of Δ normal draws]
// on the final wave; EmpiricalStageDuration computes it directly by
// list-scheduling the drawn durations — exact for the simulator's
// greedy-slot execution model, and distribution-free.
package skew

import (
	"time"

	"boedag/internal/units"
)

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
