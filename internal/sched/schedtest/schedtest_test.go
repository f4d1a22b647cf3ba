package schedtest

import (
	"strings"
	"testing"

	"boedag/internal/sched"
)

// The generators must be deterministic in the seed and must emit valid
// inputs; the checks must actually fail on violations (a checker that
// cannot fail protects nothing).

func TestGeneratorDeterminism(t *testing.T) {
	a, b := New(7), New(7)
	sa, sb := a.Scenario(), b.Scenario()
	if FormatAllocation(sa.Held) != FormatAllocation(sb.Held) ||
		len(sa.Requests) != len(sb.Requests) || len(sa.Specs) != len(sb.Specs) {
		t.Fatal("same seed produced different scenarios")
	}
	if New(7).Uint64() == New(8).Uint64() {
		t.Fatal("different seeds collided on the first draw")
	}
}

func TestGeneratedScenariosAreValid(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		s := New(seed).Scenario()
		if len(s.Requests) == 0 {
			t.Fatalf("seed %d: empty request set", seed)
		}
		if s.Specs != nil {
			if _, err := sched.NewHierarchy(s.Specs); err != nil {
				t.Fatalf("seed %d: generator emitted invalid queue tree: %v", seed, err)
			}
		}
		// Held must be consistent with pool and caps by construction.
		if err := CheckGrants(s.Pool, s.Requests, s.Held, nil); err != nil {
			t.Fatalf("seed %d: generated held is inconsistent: %v", seed, err)
		}
	}
}

func TestChecksRejectViolations(t *testing.T) {
	pool := sched.Pool{MemoryMB: 4096, VCores: 4, Slots: 4}
	reqs := []sched.Request{{JobID: "a", MemoryMB: 1024, VCores: 1, Pending: 10, Cap: 2}}

	cases := []struct {
		name string
		err  error
		want string
	}{
		{"over pending", CheckGrants(pool, reqs, nil, sched.Allocation{"a": 11}), "exceeds pending"},
		{"over cap", CheckGrants(pool, reqs, sched.Allocation{"a": 1}, sched.Allocation{"a": 2}), "exceeds cap"},
		{"negative", CheckGrants(pool, reqs, nil, sched.Allocation{"a": -1}), "negative"},
		{"unknown job", CheckGrants(pool, reqs, nil, sched.Allocation{"ghost": 1}), "unknown job"},
		{"over slots", CheckGrants(pool, []sched.Request{{JobID: "a", MemoryMB: 1, VCores: 1, Pending: 10}},
			nil, sched.Allocation{"a": 5}), "over-committed"},
		{"idle capacity", CheckWorkConservation(pool, reqs, nil, sched.Allocation{"a": 1}), "capacity idles"},
	}
	for _, c := range cases {
		if c.err == nil || !strings.Contains(c.err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, c.err, c.want)
		}
	}
	if err := CheckGrants(pool, reqs, nil, sched.Allocation{"a": 2}); err != nil {
		t.Errorf("valid grant rejected: %v", err)
	}
	if err := CheckWorkConservation(pool, reqs, nil, sched.Allocation{"a": 2}); err != nil {
		t.Errorf("cap-satisfied job flagged: %v", err)
	}
}

func TestHierarchyChecksRejectViolations(t *testing.T) {
	pool := sched.Pool{MemoryMB: 8192, VCores: 8, Slots: 8}
	specs := []sched.QueueSpec{
		{Name: "q", Quota: sched.QueueLimit{Slots: 2}, Limit: sched.QueueLimit{Slots: 3}},
	}
	h, err := sched.NewHierarchy(specs)
	if err != nil {
		t.Fatal(err)
	}
	s := Scenario{
		Pool:      pool,
		Specs:     specs,
		Hierarchy: h,
		Requests:  []sched.Request{{JobID: "a", MemoryMB: 1024, VCores: 1, Pending: 10, Queue: "q"}},
		Held:      sched.Allocation{"a": 1},
	}
	if err := CheckHierarchy(s, sched.HierResult{Grants: sched.Allocation{"a": 4}}); err == nil ||
		!strings.Contains(err.Error(), "over limit") {
		t.Errorf("limit breach not caught: %v", err)
	}
	if err := CheckHierarchy(s, sched.HierResult{Evict: sched.Allocation{"a": 2}}); err == nil ||
		!strings.Contains(err.Error(), "evicted") {
		t.Errorf("over-eviction not caught: %v", err)
	}
	flat := s
	flat.Hierarchy = nil
	if err := CheckHierarchy(flat, sched.HierResult{Evict: sched.Allocation{"a": 1}}); err == nil ||
		!strings.Contains(err.Error(), "flat") {
		t.Errorf("flat eviction not caught: %v", err)
	}
	// Quota-safe eviction: evicting the only container of a fully
	// quota-protected job must be flagged.
	prot := s
	prot.Held = sched.Allocation{"a": 1}
	if err := CheckQuotaSafeEviction(prot, sched.HierResult{Evict: sched.Allocation{"a": 1}}); err == nil ||
		!strings.Contains(err.Error(), "quota") {
		t.Errorf("quota-cutting eviction not caught: %v", err)
	}
	if err := CheckHierarchy(s, sched.HierResult{Grants: sched.Allocation{"a": 2}}); err != nil {
		t.Errorf("valid hierarchical result rejected: %v", err)
	}
}

func TestStreamGenerator(t *testing.T) {
	r := New(3)
	pool := r.Pool()
	jobs := r.Stream(25, pool)
	if len(jobs) != 25 {
		t.Fatalf("got %d jobs", len(jobs))
	}
	last := -1.0
	deadlines := 0
	for _, j := range jobs {
		if j.Submit < last {
			t.Fatal("arrivals not time-ordered")
		}
		last = j.Submit
		if j.Work <= 0 || j.MaxParallelism <= 0 || j.Predicted <= 0 {
			t.Fatalf("degenerate job: %+v", j)
		}
		if j.MaxParallelism > pool.Slots {
			t.Fatalf("job wider than the pool: %+v", j)
		}
		if j.Deadline > 0 {
			deadlines++
		}
	}
	if deadlines == 0 {
		t.Fatal("no deadlines in a 25-job stream: SLO metrics would be vacuous")
	}
	if p := r.Permute(nil); len(p) != 0 {
		t.Fatal("permute nil")
	}
}
