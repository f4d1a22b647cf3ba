package sched_test

// Metamorphic policy relations — equivalence goldens alongside the
// byte-identity suites: inputs on which every discipline must agree, and
// degenerations that must reproduce a simpler policy exactly.

import (
	"reflect"
	"testing"

	"boedag/internal/sched"
	"boedag/internal/sched/schedtest"
)

// TestMetamorphicSingleJob: with one job there is nothing to arbitrate —
// every policy grants exactly the same containers.
func TestMetamorphicSingleJob(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		r := schedtest.New(seed)
		s := r.Scenario()
		s.Requests = s.Requests[:1]
		held := sched.Allocation{}
		for id, h := range s.Held {
			if id == s.Requests[0].JobID {
				held[id] = h
			}
		}
		ref := sched.Grant(sched.PolicyDRF, s.Pool, s.Requests, held)
		for _, p := range sched.Policies() {
			got := sched.Grant(p, s.Pool, s.Requests, held)
			if !allocEqual(ref, got) {
				t.Fatalf("seed %d: %s diverged on a single job: %s vs %s",
					seed, p, schedtest.FormatAllocation(got), schedtest.FormatAllocation(ref))
			}
		}
		// The hierarchical allocator agrees too (single job, no contention
		// — whatever its queue, it absorbs what fits).
		if s.Requests[0].Queue == "" || s.Hierarchy == nil {
			res := sched.AllocateHierarchy(s.Pool, nil, s.Requests, held)
			if !allocEqual(ref, res.Grants) {
				t.Fatalf("seed %d: hierarchy diverged on a single flat job", seed)
			}
		}
	}
}

// TestMetamorphicInfiniteCapacity: with capacity beyond total demand,
// arbitration is irrelevant — every policy satisfies everyone.
func TestMetamorphicInfiniteCapacity(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		r := schedtest.New(seed)
		s := r.Scenario()
		mem, cpu, slots := 0, 0, 0
		for _, q := range s.Requests {
			n := q.Pending + s.Held[q.JobID]
			mem += n * q.MemoryMB
			cpu += n * q.VCores
			slots += n
		}
		pool := sched.Pool{MemoryMB: mem + 1, VCores: cpu + 1, Slots: slots + 1}
		ref := sched.Grant(sched.PolicyDRF, pool, s.Requests, s.Held)
		for _, p := range sched.Policies() {
			got := sched.Grant(p, pool, s.Requests, s.Held)
			if !allocEqual(ref, got) {
				t.Fatalf("seed %d: %s diverged under infinite capacity", seed, p)
			}
		}
		res := sched.AllocateHierarchy(pool, s.Hierarchy, stripQueues(s.Requests), s.Held)
		if !allocEqual(ref, res.Grants) {
			t.Fatalf("seed %d: hierarchy diverged under infinite capacity (root queues)", seed)
		}
	}
}

// TestMetamorphicSPJFDegradesToFIFO: with equal (or absent) predictions
// SPJF is FIFO, grant for grant.
func TestMetamorphicSPJFDegradesToFIFO(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		r := schedtest.New(seed)
		s := r.Scenario()
		for _, equal := range []float64{0, 42.5} {
			reqs := append([]sched.Request(nil), s.Requests...)
			for i := range reqs {
				reqs[i].Predicted = equal
			}
			fifo := sched.Grant(sched.PolicyFIFO, s.Pool, reqs, s.Held)
			spjf := sched.Grant(sched.PolicySPJF, s.Pool, reqs, s.Held)
			if !allocEqual(fifo, spjf) {
				t.Fatalf("seed %d: SPJF(pred=%g) != FIFO:\n  %s\n  %s", seed, equal,
					schedtest.FormatAllocation(spjf), schedtest.FormatAllocation(fifo))
			}
		}
	}
}

// TestMetamorphicHierarchyDegradesToDRF: a nil hierarchy, and a
// hierarchy whose queues declare no quotas, limits, or distinct weights,
// must reproduce flat DRF exactly.
func TestMetamorphicHierarchyDegradesToDRF(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		r := schedtest.New(seed)
		s := r.Scenario()
		ref := sched.DRF(s.Pool, s.Requests, s.Held)
		flat := sched.AllocateHierarchy(s.Pool, nil, s.Requests, s.Held)
		if flat.Evict != nil || !allocEqual(ref, flat.Grants) {
			t.Fatalf("seed %d: nil hierarchy != DRF", seed)
		}
		// Same queues, neutered: no quota, no limit, weight 1 everywhere.
		if len(s.Specs) == 0 {
			continue
		}
		specs := make([]sched.QueueSpec, len(s.Specs))
		for i, sp := range s.Specs {
			specs[i] = sched.QueueSpec{Name: sp.Name, Parent: sp.Parent, Weight: 1}
		}
		h, err := sched.NewHierarchy(specs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		neutered := sched.AllocateHierarchy(s.Pool, h, s.Requests, s.Held)
		if neutered.Evict != nil || !allocEqual(ref, neutered.Grants) {
			t.Fatalf("seed %d: neutered hierarchy != DRF:\n  %s\n  %s", seed,
				schedtest.FormatAllocation(neutered.Grants), schedtest.FormatAllocation(ref))
		}
	}
}

// TestMetamorphicStreamPoliciesAgree: stream-level relations — all
// policies agree on a single-job stream and on an uncontended cluster;
// deadline admission with no deadlines declared is plain SPJF; equal
// predictions collapse predictive ordering to FIFO.
func TestMetamorphicStreamPoliciesAgree(t *testing.T) {
	allOpts := []sched.StreamOptions{
		{Policy: sched.PolicyFIFO},
		{Policy: sched.PolicyDRF},
		{Policy: sched.PolicyFair},
		{Policy: sched.PolicySPJF},
		{Policy: sched.PolicySPJF, DeadlineAdmission: true},
	}
	for seed := int64(0); seed < 40; seed++ {
		r := schedtest.New(seed)
		pool := r.Pool()

		// Single job: identical fate under every policy.
		solo := r.Stream(1, pool)
		solo[0].Deadline = 0
		ref := sched.RunStream(pool, solo, allOpts[0])
		for _, opt := range allOpts[1:] {
			if got := sched.RunStream(pool, solo, opt); !reflect.DeepEqual(ref, got) {
				t.Fatalf("seed %d: %v diverged on single-job stream", seed, opt)
			}
		}

		// Uncontended: every job fits at max parallelism simultaneously →
		// every job runs standalone (slowdown 1) under every policy.
		jobs := r.Stream(6, pool)
		slots := 0
		for i := range jobs {
			jobs[i].MemoryMB = 1024
			jobs[i].VCores = 1
			jobs[i].Deadline = 0
			slots += jobs[i].MaxParallelism
		}
		big := sched.Pool{MemoryMB: slots * 2048, VCores: slots * 2, Slots: slots * 2}
		for _, opt := range allOpts {
			got := sched.RunStream(big, jobs, opt)
			for _, j := range got.Jobs {
				if j.Slowdown > 1.0001 {
					t.Fatalf("seed %d: %v slowdown %g on uncontended cluster", seed, opt, j.Slowdown)
				}
			}
			if got.Preemptions != 0 {
				t.Fatalf("seed %d: %v preempted on uncontended cluster", seed, opt)
			}
		}

		// No deadlines → admission control is inert.
		streak := r.Stream(10, pool)
		for i := range streak {
			streak[i].Deadline = 0
		}
		plain := sched.RunStream(pool, streak, sched.StreamOptions{Policy: sched.PolicySPJF})
		gated := sched.RunStream(pool, streak, sched.StreamOptions{Policy: sched.PolicySPJF, DeadlineAdmission: true})
		if !reflect.DeepEqual(plain, gated) {
			t.Fatalf("seed %d: deadline admission changed a deadline-free stream", seed)
		}

		// Equal predictions → SPJF stream == FIFO stream.
		flat := r.Stream(10, pool)
		for i := range flat {
			flat[i].Predicted = 100
			flat[i].Deadline = 0
		}
		f := sched.RunStream(pool, flat, sched.StreamOptions{Policy: sched.PolicyFIFO})
		sp := sched.RunStream(pool, flat, sched.StreamOptions{Policy: sched.PolicySPJF})
		if !reflect.DeepEqual(f, sp) {
			t.Fatalf("seed %d: SPJF stream != FIFO stream under equal predictions", seed)
		}
	}
}

func stripQueues(reqs []sched.Request) []sched.Request {
	out := make([]sched.Request, len(reqs))
	for i, r := range reqs {
		r.Queue = ""
		out[i] = r
	}
	return out
}
