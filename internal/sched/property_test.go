package sched_test

// The property-based invariant suite: seeded random scenarios from
// schedtest, shared Check* assertions from the same package. Every
// policy — current and future — runs through the same tables; a new
// policy inherits the whole contract by joining Policies().

import (
	"reflect"
	"testing"

	"boedag/internal/obs"
	"boedag/internal/sched"
	"boedag/internal/sched/schedtest"
)

const propertySeeds = 150

// TestPropertyFlatPolicies: every flat policy respects grants ≤ pending,
// caps, pool capacity — and leaves no fitting demand unmet (work
// conservation) — across the random scenario corpus.
func TestPropertyFlatPolicies(t *testing.T) {
	for _, p := range sched.Policies() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			for seed := int64(0); seed < propertySeeds; seed++ {
				r := schedtest.New(seed)
				s := r.Scenario()
				grant := sched.Grant(p, s.Pool, s.Requests, s.Held)
				if err := schedtest.CheckGrants(s.Pool, s.Requests, s.Held, grant); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := schedtest.CheckWorkConservation(s.Pool, s.Requests, s.Held, grant); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestPropertyHierarchyInvariants: the hierarchical allocator respects
// the full contract — basics net of evictions, evictions only from held,
// and chain hard limits — across random queue trees.
func TestPropertyHierarchyInvariants(t *testing.T) {
	for seed := int64(0); seed < propertySeeds*2; seed++ {
		r := schedtest.New(seed)
		s := r.Scenario()
		res := sched.AllocateHierarchy(s.Pool, s.Hierarchy, s.Requests, s.Held)
		if err := schedtest.CheckHierarchy(s, res); err != nil {
			t.Fatalf("seed %d (%d queues, %d jobs): %v", seed, len(s.Specs), len(s.Requests), err)
		}
	}
}

// TestPropertyQuotaSafeEviction: preemption never cuts into guaranteed
// work.
func TestPropertyQuotaSafeEviction(t *testing.T) {
	evictions := 0
	for seed := int64(0); seed < propertySeeds*2; seed++ {
		r := schedtest.New(seed)
		s := r.Scenario()
		res := sched.AllocateHierarchy(s.Pool, s.Hierarchy, s.Requests, s.Held)
		evictions += len(res.Evict)
		if err := schedtest.CheckQuotaSafeEviction(s, res); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if evictions == 0 {
		t.Fatal("corpus produced no evictions: the property is vacuous, tighten the generator")
	}
}

// TestPropertyWorkConservationHierarchy: with hard limits stripped, the
// hierarchical allocator leaves no fitting demand unmet (quotas
// are guarantees, not caps — they must never idle capacity).
func TestPropertyWorkConservationHierarchy(t *testing.T) {
	for seed := int64(0); seed < propertySeeds; seed++ {
		r := schedtest.New(seed)
		s := r.Scenario()
		for i := range s.Specs {
			s.Specs[i].Limit = sched.QueueLimit{}
		}
		if s.Specs != nil {
			h, err := sched.NewHierarchy(s.Specs)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			s.Hierarchy = h
		}
		res := sched.AllocateHierarchy(s.Pool, s.Hierarchy, s.Requests, s.Held)
		net := sched.Allocation{}
		for id, h := range s.Held {
			net[id] = h - res.Evict[id]
		}
		if err := schedtest.CheckWorkConservation(s.Pool, s.Requests, net, res.Grants); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestPropertyDRFOrdering: dominant-share ordering on identical-shape
// corpora — if a job still wants containers, no other job was granted
// more than one container past it (max-min fairness on holdings).
func TestPropertyDRFOrdering(t *testing.T) {
	for seed := int64(0); seed < propertySeeds; seed++ {
		r := schedtest.New(seed)
		s := r.Scenario()
		for i := range s.Requests {
			s.Requests[i].MemoryMB = 2048
			s.Requests[i].VCores = 1
		}
		grant := sched.DRF(s.Pool, s.Requests, s.Held)
		have := func(id string) int { return grant[id] + s.Held[id] }
		for _, a := range s.Requests {
			unsat := grant[a.JobID] < a.Pending && (a.Cap == 0 || have(a.JobID) < a.Cap)
			if !unsat {
				continue
			}
			for _, b := range s.Requests {
				if b.JobID == a.JobID || grant[b.JobID] == 0 {
					continue
				}
				if have(b.JobID) > have(a.JobID)+1 {
					t.Fatalf("seed %d: DRF ordering violated: %s has %d while unsatisfied %s has %d",
						seed, b.JobID, have(b.JobID), a.JobID, have(a.JobID))
				}
			}
		}
	}
}

// TestPropertyPermutationDeterminism: every allocator is invariant under
// permutation of its request list.
func TestPropertyPermutationDeterminism(t *testing.T) {
	for seed := int64(0); seed < propertySeeds; seed++ {
		r := schedtest.New(seed)
		s := r.Scenario()
		perm := r.Permute(s.Requests)
		for _, p := range sched.Policies() {
			a := sched.Grant(p, s.Pool, s.Requests, s.Held)
			b := sched.Grant(p, s.Pool, perm, s.Held)
			if !allocEqual(a, b) {
				t.Fatalf("seed %d policy %s: permutation changed grants:\n  %s\n  %s",
					seed, p, schedtest.FormatAllocation(a), schedtest.FormatAllocation(b))
			}
		}
		ha := sched.AllocateHierarchy(s.Pool, s.Hierarchy, s.Requests, s.Held)
		hb := sched.AllocateHierarchy(s.Pool, s.Hierarchy, perm, s.Held)
		if !allocEqual(ha.Grants, hb.Grants) || !allocEqual(ha.Evict, hb.Evict) {
			t.Fatalf("seed %d: permutation changed hierarchical result", seed)
		}
	}
}

// TestPropertyRepeatDeterminism: same inputs, byte-identical outputs —
// including the stream simulator end to end.
func TestPropertyRepeatDeterminism(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r1 := schedtest.New(seed)
		r2 := schedtest.New(seed)
		pool1 := r1.Pool()
		pool2 := r2.Pool()
		jobs1 := r1.Stream(30, pool1)
		jobs2 := r2.Stream(30, pool2)
		if !reflect.DeepEqual(jobs1, jobs2) {
			t.Fatalf("seed %d: generator not deterministic", seed)
		}
		for _, opt := range []sched.StreamOptions{
			{Policy: sched.PolicyFIFO},
			{Policy: sched.PolicySPJF, DeadlineAdmission: true},
		} {
			a := sched.RunStream(pool1, jobs1, opt)
			b := sched.RunStream(pool2, jobs2, opt)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d: RunStream not deterministic under %v", seed, opt)
			}
		}
	}
}

func allocEqual(a, b sched.Allocation) bool {
	for id, v := range a {
		if b[id] != v {
			return false
		}
	}
	for id, v := range b {
		if a[id] != v {
			return false
		}
	}
	return true
}

// TestGrantCountsMatchesGrantObserved: under every policy, GrantCounts
// answers each request with the grant GrantObserved maps its JobID to,
// emits the same events and counts the same metrics, reusing the slice
// it is handed.
func TestGrantCountsMatchesGrantObserved(t *testing.T) {
	var counts []int
	events := 0
	for seed := int64(1); seed <= 200; seed++ {
		r := schedtest.New(seed)
		pool := r.Pool()
		reqs := r.Requests(1+r.Intn(24), nil)
		for i := len(reqs) - 1; i > 0; i-- { // request order apart from JobID order
			j := r.Intn(i + 1)
			reqs[i], reqs[j] = reqs[j], reqs[i]
		}
		for _, p := range sched.Policies() {
			wantRec, gotRec := &obs.Recorder{}, &obs.Recorder{}
			wantReg, gotReg := obs.NewRegistry(), obs.NewRegistry()
			want := sched.GrantObserved(p, pool, reqs, nil, obs.Options{Tracer: wantRec, Metrics: wantReg}, 1.5)
			counts = sched.GrantCounts(counts, p, pool, reqs, obs.Options{Tracer: gotRec, Metrics: gotReg}, 1.5)
			if len(counts) != len(reqs) {
				t.Fatalf("seed %d %s: %d counts for %d requests", seed, p, len(counts), len(reqs))
			}
			for i, r := range reqs {
				if counts[i] != want[r.JobID] {
					t.Fatalf("seed %d %s: %s granted %d, GrantObserved %d", seed, p, r.JobID, counts[i], want[r.JobID])
				}
			}
			if !reflect.DeepEqual(gotRec.Events(), wantRec.Events()) {
				t.Fatalf("seed %d %s: events differ", seed, p)
			}
			events += len(gotRec.Events())
			for _, name := range []string{"sched_containers_granted", "sched_grant_rounds"} {
				if g, w := gotReg.Counter(name).Value(), wantReg.Counter(name).Value(); g != w {
					t.Fatalf("seed %d %s: %s = %d, want %d", seed, p, name, g, w)
				}
			}
		}
	}
	if events == 0 {
		t.Fatal("no grant event to compare")
	}
}
