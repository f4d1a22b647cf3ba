package skew

import (
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEmpiricalStageDurationBasics(t *testing.T) {
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	tasks := []time.Duration{sec(4), sec(3), sec(2), sec(1)}
	if got := EmpiricalStageDuration(tasks, 1); got != sec(10) {
		t.Errorf("1 slot = %v, want 10s (serial)", got)
	}
	if got := EmpiricalStageDuration(tasks, 4); got != sec(4) {
		t.Errorf("4 slots = %v, want 4s (all parallel)", got)
	}
	if got := EmpiricalStageDuration(tasks, 100); got != sec(4) {
		t.Errorf("excess slots = %v, want 4s", got)
	}
	// 2 slots, list order 4,3,2,1: B frees at 3 and takes the 2 (→5),
	// A frees at 4 and takes the 1 (→5).
	if got := EmpiricalStageDuration(tasks, 2); got != sec(5) {
		t.Errorf("2 slots = %v, want 5s", got)
	}
	if got := EmpiricalStageDuration(nil, 3); got != 0 {
		t.Errorf("no tasks = %v", got)
	}
	if got := EmpiricalStageDuration(tasks, 0); got != 0 {
		t.Errorf("no slots = %v", got)
	}
}

// Property (Graham's bound): any greedy list schedule — arbitrary order
// or LPT — finishes within balanced-load + longest-task of the optimum's
// lower bound.
func TestListSchedulingGrahamBound(t *testing.T) {
	f := func(raw []uint16, slots8 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		slots := int(slots8%16) + 1
		tasks := make([]time.Duration, len(raw))
		var sum, longest time.Duration
		for i, r := range raw {
			tasks[i] = time.Duration(r+1) * time.Millisecond
			sum += tasks[i]
			if tasks[i] > longest {
				longest = tasks[i]
			}
		}
		bound := sum/time.Duration(slots) + longest + time.Microsecond
		return EmpiricalStageDuration(tasks, slots) <= bound &&
			EmpiricalStageDuration(longestFirst(tasks), slots) <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// On a classic straggler-at-the-end instance LPT strictly wins: many
// short tasks followed by one huge one.
func TestLPTBeatsWorstCaseOrder(t *testing.T) {
	tasks := make([]time.Duration, 9)
	for i := range tasks {
		tasks[i] = time.Second
	}
	tasks = append(tasks, 10*time.Second) // straggler listed last
	plain := EmpiricalStageDuration(tasks, 3)
	lpt := EmpiricalStageDuration(longestFirst(tasks), 3)
	if lpt >= plain {
		t.Errorf("LPT %v not better than tail-straggler order %v", lpt, plain)
	}
}

// longestFirst returns the tasks in longest-processing-time order, the
// lower envelope a skew-aware scheduler reaches by launching the largest
// partitions first.
func longestFirst(tasks []time.Duration) []time.Duration {
	sorted := append([]time.Duration(nil), tasks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	return sorted
}

// Property: the makespan is bounded below by both the critical task and
// the perfectly balanced division, and above by the serial sum.
func TestEmpiricalStageDurationBounds(t *testing.T) {
	f := func(raw []uint16, slots8 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		slots := int(slots8%32) + 1
		var tasks []time.Duration
		var sum, longest time.Duration
		for _, r := range raw {
			d := time.Duration(r+1) * time.Millisecond
			tasks = append(tasks, d)
			sum += d
			if d > longest {
				longest = d
			}
		}
		got := EmpiricalStageDuration(tasks, slots)
		lower := longest
		if balanced := sum / time.Duration(slots); balanced > lower {
			lower = balanced
		}
		return got >= lower-time.Microsecond && got <= sum+time.Microsecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
