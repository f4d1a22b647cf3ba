package evalpool

import (
	"testing"
	"time"

	"boedag/internal/boe"
	"boedag/internal/cluster"
	"boedag/internal/dag"
	"boedag/internal/simulator"
	"boedag/internal/statemodel"
	"boedag/internal/workload"
)

func sigFlow() *dag.Workflow {
	return dag.Parallel("sig",
		dag.Single(workload.WordCount(100*1024*1024*1024)),
		dag.Single(workload.TeraSort(100*1024*1024*1024)))
}

func TestResultKeyStableAndSensitive(t *testing.T) {
	spec := cluster.PaperCluster()
	base := simulator.Options{Seed: 1}
	k1 := ResultKey(spec, base, sigFlow())
	if k2 := ResultKey(spec, base, sigFlow()); k2 != k1 {
		t.Fatalf("identical inputs produced different keys: %s vs %s", k1, k2)
	}

	// Every semantically significant option must change the key — a
	// collision here would serve one configuration's result to another.
	variants := map[string]simulator.Options{
		"seed":      {Seed: 2},
		"slots":     {Seed: 1, SlotLimit: 44},
		"policy":    {Seed: 1, Policy: 1},
		"failures":  {Seed: 1, TaskFailureProb: 0.1},
		"nodeaware": {Seed: 1, NodeAware: true},
		"noskew":    {Seed: 1, DisableSkew: true},
		"overhead":  {Seed: 1, TaskStartOverhead: time.Second},
	}
	for name, opt := range variants {
		if k := ResultKey(spec, opt, sigFlow()); k == k1 {
			t.Errorf("%s variant collided with the base key", name)
		}
	}

	// Workflow identity matters too: a changed profile knob must miss.
	flow := sigFlow()
	flow.Jobs[0].Profile.ReduceTasks *= 2
	if k := ResultKey(spec, base, flow); k == k1 {
		t.Error("changed reduce-task count collided with the base key")
	}

	// A different cluster must miss.
	small := spec
	small.Nodes = 3
	if k := ResultKey(small, base, sigFlow()); k == k1 {
		t.Error("smaller cluster collided with the base key")
	}
}

func TestPlanKeySensitiveToEstimatorConfig(t *testing.T) {
	spec := cluster.PaperCluster()
	timer := &statemodel.BOETimer{Model: boe.New(spec), TaskStartOverhead: time.Second}
	est := statemodel.New(spec, timer, statemodel.Options{Mode: statemodel.NormalMode})

	k1, ok := PlanKey(est, sigFlow())
	if !ok {
		t.Fatal("BOE-timer estimator should be cacheable")
	}
	if k2, _ := PlanKey(est, sigFlow()); k2 != k1 {
		t.Fatal("identical inputs produced different keys")
	}

	other := statemodel.New(spec, timer, statemodel.Options{Mode: statemodel.MeanMode})
	if k, _ := PlanKey(other, sigFlow()); k == k1 {
		t.Error("different skew mode collided")
	}
	fifo := statemodel.New(spec, timer, statemodel.Options{Mode: statemodel.NormalMode, Policy: 1})
	if k, _ := PlanKey(fifo, sigFlow()); k == k1 {
		t.Error("different scheduling policy collided")
	}
	// The from-scratch reference path must not share cache lines with the
	// incremental default, or a cached plan could mask a divergence.
	ref := statemodel.New(spec, timer, statemodel.Options{Mode: statemodel.NormalMode, DisableIncremental: true})
	if k, _ := PlanKey(ref, sigFlow()); k == k1 {
		t.Error("from-scratch reference path collided with the incremental path")
	}
}

// TestHasherFieldSeparator checks that adjacent string fields cannot
// alias: ("ab", "c") and ("a", "bc") hash apart.
func TestHasherFieldSeparator(t *testing.T) {
	h1, h2 := NewHasher(), NewHasher()
	h1.Str("ab")
	h1.Str("c")
	h2.Str("a")
	h2.Str("bc")
	if h1.Key() == h2.Key() {
		t.Error("field separator failed: adjacent fields aliased")
	}
}

type opaqueTimer struct{}

func (opaqueTimer) TaskDist(string, []boe.TaskGroup, int) statemodel.TaskTimeDist {
	return statemodel.TaskTimeDist{Mean: time.Second, Median: time.Second}
}

func TestPlanKeyRefusesOpaqueTimer(t *testing.T) {
	est := statemodel.New(cluster.PaperCluster(), opaqueTimer{}, statemodel.Options{})
	if _, ok := PlanKey(est, sigFlow()); ok {
		t.Fatal("an unknown TaskTimer implementation must be uncacheable")
	}
}

func TestResultCacheMemoizesAndMissesAcrossSeeds(t *testing.T) {
	spec := cluster.PaperCluster()
	cache := NewResultCache()
	flow := dag.Single(workload.WordCount(1024 * 1024 * 1024))

	r1, err := cache.Run(spec, simulator.Options{Seed: 1}, flow)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cache.Run(spec, simulator.Options{Seed: 1}, flow)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("identical run was not served from the cache")
	}
	if hits, misses := cache.c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}

	// A different skew seed is a different experiment: must simulate anew.
	r3, err := cache.Run(spec, simulator.Options{Seed: 7}, flow)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Error("different seed was served the cached result")
	}
	if hits, misses := cache.c.Stats(); hits != 1 || misses != 2 {
		t.Errorf("stats after seed change = %d hits / %d misses, want 1/2", hits, misses)
	}
}

func TestPlanCacheBypassesOpaqueTimers(t *testing.T) {
	est := statemodel.New(cluster.PaperCluster(), opaqueTimer{}, statemodel.Options{})
	cache := NewPlanCache()
	flow := dag.Single(workload.WordCount(1024 * 1024 * 1024))
	if _, err := cache.Estimate(est, flow); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Estimate(est, flow); err != nil {
		t.Fatal(err)
	}
	if hits, misses := cache.Stats(); hits != 0 || misses != 0 {
		t.Errorf("opaque-timer plans must bypass the cache: %d/%d", hits, misses)
	}
}
