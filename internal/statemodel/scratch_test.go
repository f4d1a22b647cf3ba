package statemodel

import (
	"math/rand"
	"testing"
	"time"

	"boedag/internal/dag"
	"boedag/internal/obs"
	"boedag/internal/synthdag"
	"boedag/internal/workload"
)

// TestSubmitHeapPopsTotalOrder drives the manual heap with randomized
// readyAt values (including ties) and checks pops come out in the
// deterministic (readyAt, order) total order.
func TestSubmitHeapPopsTotalOrder(t *testing.T) {
	s := NewScratch()
	s.reset(64)
	rng := rand.New(rand.NewSource(7))
	var want []*estJob
	for i := 0; i < 64; i++ {
		j := s.newJob(string(rune('a'+i%26))+string(rune('0'+i/26)), workload.JobProfile{}, 0)
		j.order = i
		j.readyAt = float64(rng.Intn(8)) // dense values force ties
		want = append(want, j)
		s.heapPush(j)
	}
	for i := 1; i < len(want); i++ {
		for k := i; k > 0 && submitsBefore(want[k], want[k-1]); k-- {
			want[k], want[k-1] = want[k-1], want[k]
		}
	}
	for i, w := range want {
		if len(s.heap) == 0 {
			t.Fatalf("heap empty after %d pops, want %d", i, len(want))
		}
		if got := s.heapPop(); got != w {
			t.Fatalf("pop %d: got order=%d ready=%v, want order=%d ready=%v",
				i, got.order, got.readyAt, w.order, w.readyAt)
		}
	}
	if len(s.heap) != 0 {
		t.Fatalf("%d jobs left on heap", len(s.heap))
	}
}

// TestInsertAndCompactRunningKeepSortedOrder checks the running-list
// index operations preserve the sorted-by-ID invariant that pins the
// float evaluation order.
func TestInsertAndCompactRunningKeepSortedOrder(t *testing.T) {
	s := NewScratch()
	s.reset(16)
	ids := []string{"j07", "j03", "j11", "j01", "j09", "j05"}
	for _, id := range ids {
		s.insertRunning(s.newJob(id, workload.JobProfile{}, 0))
	}
	assertSorted := func() {
		t.Helper()
		for i := 1; i < len(s.running); i++ {
			if s.running[i-1].id >= s.running[i].id {
				t.Fatalf("running list out of order at %d: %s ≥ %s",
					i, s.running[i-1].id, s.running[i].id)
			}
		}
	}
	assertSorted()
	s.running[1].phase = phaseDone
	s.running[4].phase = phaseDone
	s.compactRunning()
	if len(s.running) != 4 {
		t.Fatalf("%d running after compact, want 4", len(s.running))
	}
	assertSorted()
}

// TestDistCacheAgesAtCap fills one run's cache past the generation
// bound: young never grows past it, and the entries put before the aging
// are still found in old.
func TestDistCacheAgesAtCap(t *testing.T) {
	var c distCache
	d := TaskTimeDist{Mean: time.Second, Median: time.Second}
	for i := 0; i < distCacheMax+10; i++ {
		c.put(distKey{self: uint64(i)}, d)
		if len(c.young) > distCacheMax {
			t.Fatalf("young grew to %d entries, cap is %d", len(c.young), distCacheMax)
		}
	}
	if len(c.young) != 10 || len(c.old) != distCacheMax {
		t.Fatalf("generations hold %d and %d entries, want 10 and %d", len(c.young), len(c.old), distCacheMax)
	}
	for _, i := range []int{0, distCacheMax - 1, distCacheMax + 9} {
		if _, ok := c.get(distKey{self: uint64(i)}); !ok {
			t.Errorf("entry %d is missing", i)
		}
	}
}

// TestDistCacheAgesCarriedYoung: young ages at a solve once it holds
// distCacheFloor entries, some of them an earlier run's; never within
// the run that started it; and a hit in old moves the entry into young,
// so it outlives the next aging.
func TestDistCacheAgesCarriedYoung(t *testing.T) {
	var c distCache
	d := TaskTimeDist{Mean: time.Second}
	next := 0
	put := func(n int) {
		for ; n > 0; n-- {
			c.put(distKey{self: uint64(next)}, d)
			next++
		}
	}
	sizes := func(young, old int) {
		t.Helper()
		if len(c.young) != young || len(c.old) != old {
			t.Fatalf("generations hold %d and %d entries, want %d and %d", len(c.young), len(c.old), young, old)
		}
	}
	c.newRun()
	put(distCacheFloor + 5) // one run alone never ages
	sizes(distCacheFloor+5, 0)
	c.newRun()
	put(1)
	sizes(1, distCacheFloor+5)
	put(2 * distCacheFloor) // nor does the young that run started
	sizes(2*distCacheFloor+1, distCacheFloor+5)

	c.newRun()
	if _, ok := c.get(distKey{self: 0}); !ok {
		t.Fatal("an entry of the run before last is missing")
	}
	sizes(2*distCacheFloor+2, distCacheFloor+5)
	put(1)
	sizes(1, 2*distCacheFloor+2)
	if _, ok := c.get(distKey{self: 0}); !ok {
		t.Error("the entry read before the aging is missing after it")
	}
	if _, ok := c.get(distKey{self: 1}); ok {
		t.Error("an entry of the run before last that no run read survived two agings")
	}
}

// TestScratchHoldsTwoGenerations serves 1,000 distinct small workflows
// on one scratch, the shape of a pooled scratch in the prediction
// daemon. The cache never holds more than two generations, each below
// distCacheFloor plus two runs' lookups (a run puts at most one entry
// per lookup), while the runs solve far more states than that in all.
func TestScratchHoldsTwoGenerations(t *testing.T) {
	reg := obs.NewRegistry()
	est := New(spec(), boeTimer(), Options{Observe: obs.Options{Metrics: reg}})
	solves, reuse := reg.Counter("est_dist_solves"), reg.Counter("est_dist_reuse")
	s := NewScratch()
	var prev, most int64
	bound := 0
	for i := 0; i < 1000; i++ {
		flow := synthdag.Generate(synthdag.Config{Layers: 2 + i%3, Width: 3 + i%4, FanIn: 2, Seed: int64(i + 1)})
		if _, err := est.EstimateWith(s, flow); err != nil {
			t.Fatal(err)
		}
		n := solves.Value() + reuse.Value()
		most, prev = max(most, n-prev), n
		bound = 2 * (distCacheFloor + 2*int(most))
		if held := len(s.dc.young) + len(s.dc.old); held > bound {
			t.Fatalf("run %d: cache holds %d entries, bound %d", i, held, bound)
		}
	}
	if solves.Value() <= int64(bound) {
		t.Fatalf("the runs solved %d states, no more than the bound %d", solves.Value(), bound)
	}
}

// TestReestimateAfterUnrelatedRunSolvesNothing: estimating X, then an
// unrelated Y, then X again on one scratch solves nothing the third
// time, with X and Y each large enough to age a generation.
func TestReestimateAfterUnrelatedRunSolvesNothing(t *testing.T) {
	s := NewScratch()
	run := func(flow *dag.Workflow) int64 {
		reg := obs.NewRegistry()
		est := New(spec(), boeTimer(), Options{Mode: NormalMode, Observe: obs.Options{Metrics: reg}})
		if _, err := est.EstimateWith(s, flow); err != nil {
			t.Fatal(err)
		}
		return reg.Counter("est_dist_solves").Value()
	}
	x := synthdag.Generate(synthdag.Config{Layers: 12, Width: 25, FanIn: 3, Seed: 2})
	y := synthdag.Generate(synthdag.Config{Layers: 12, Width: 25, FanIn: 3, Seed: 3})
	if n := run(x); n < distCacheFloor {
		t.Fatalf("X solves %d states, fewer than the floor %d", n, distCacheFloor)
	}
	if n := run(y); n < distCacheFloor || s.dc.old == nil {
		t.Fatalf("Y solves %d states and aged no generation", n)
	}
	if n := run(x); n != 0 {
		t.Errorf("re-estimating X after Y solved %d states, want 0", n)
	}
}

// TestScratchResetPreservesDistCache is the incremental contract at the
// scratch level: reset clears per-run state but carries the dist cache.
func TestScratchResetPreservesDistCache(t *testing.T) {
	s := NewScratch()
	s.reset(4)
	s.newJob("a", workload.JobProfile{}, 0)
	s.dc.put(distKey{self: 42}, TaskTimeDist{Mean: time.Second})
	s.reset(4)
	if len(s.jobs) != 0 || len(s.ordered) != 0 || len(s.running) != 0 || len(s.heap) != 0 {
		t.Fatal("reset left per-run state behind")
	}
	if _, ok := s.dc.get(distKey{self: 42}); !ok {
		t.Error("reset dropped the dist cache")
	}
}
