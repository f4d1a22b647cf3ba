package sched

import (
	"math"
	"strings"
	"testing"
)

func slotPool(n int) Pool { return Pool{MemoryMB: n * 1024, VCores: n, Slots: n} }

func slotReq(id, queue string, pending int) Request {
	return Request{JobID: id, MemoryMB: 1024, VCores: 1, Pending: pending, Queue: queue}
}

func mustHierarchy(t *testing.T, specs []QueueSpec) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(specs)
	if err != nil {
		t.Fatalf("NewHierarchy: %v", err)
	}
	return h
}

func TestNewHierarchyValidation(t *testing.T) {
	cases := []struct {
		name  string
		specs []QueueSpec
		want  string
	}{
		{"empty name", []QueueSpec{{Name: ""}}, "empty name"},
		{"duplicate", []QueueSpec{{Name: "a"}, {Name: "a"}}, "duplicate"},
		{"unknown parent", []QueueSpec{{Name: "a", Parent: "ghost"}}, "unknown parent"},
		{"negative weight", []QueueSpec{{Name: "a", Weight: -1}}, "negative weight"},
		// A negative component is neither unset nor ever binding, so
		// allocation would read it as unlimited.
		{"negative quota memory", []QueueSpec{{Name: "a", Quota: QueueLimit{MemoryMB: -1}}}, "negative quota or limit"},
		{"negative quota vcores", []QueueSpec{{Name: "a", Quota: QueueLimit{VCores: -1}}}, "negative quota or limit"},
		{"negative limit slots", []QueueSpec{{Name: "a", Limit: QueueLimit{Slots: -1}}}, "negative quota or limit"},
		{"cycle", []QueueSpec{{Name: "a", Parent: "b"}, {Name: "b", Parent: "a"}}, "cycle"},
		{"self cycle", []QueueSpec{{Name: "a", Parent: "a"}}, "cycle"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewHierarchy(c.specs)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("NewHierarchy = %v, want error containing %q", err, c.want)
			}
		})
	}
	h := mustHierarchy(t, []QueueSpec{{Name: "b"}, {Name: "a", Parent: "b"}})
	if got := h.QueueNames(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("QueueNames = %v", got)
	}
	if s := h.String(); !strings.Contains(s, "a(") || !strings.Contains(s, "b(") {
		t.Fatalf("String = %q", s)
	}
}

func TestHierarchyQuotaGuarantee(t *testing.T) {
	// prod guarantees 6 of 10 slots; batch floods first by JobID order.
	h := mustHierarchy(t, []QueueSpec{
		{Name: "prod", Quota: QueueLimit{Slots: 6}},
		{Name: "batch"},
	})
	reqs := []Request{
		slotReq("a-batch", "batch", 100),
		slotReq("z-prod", "prod", 100),
	}
	res := AllocateHierarchy(slotPool(10), h, reqs, nil)
	if res.Grants["z-prod"] != 6 || res.Grants["a-batch"] != 4 {
		t.Fatalf("grants = %v, want prod=6 batch=4", res.Grants)
	}
	if res.Evict != nil {
		t.Fatalf("unexpected evictions: %v", res.Evict)
	}
}

func TestHierarchyOverQuotaWeights(t *testing.T) {
	// No quotas: 12 slots split between weight-4 and weight-1 tenants in
	// rough weight proportion (weighted dominant-share water-filling).
	h := mustHierarchy(t, []QueueSpec{
		{Name: "gold", Weight: 4},
		{Name: "bronze", Weight: 1},
	})
	reqs := []Request{
		slotReq("g", "gold", 100),
		slotReq("b", "bronze", 100),
	}
	res := AllocateHierarchy(slotPool(10), h, reqs, nil)
	if res.Grants["g"] != 8 || res.Grants["b"] != 2 {
		t.Fatalf("grants = %v, want g=8 b=2 (4:1 weights)", res.Grants)
	}
}

func TestHierarchyHardLimit(t *testing.T) {
	h := mustHierarchy(t, []QueueSpec{
		{Name: "capped", Limit: QueueLimit{Slots: 3}},
	})
	reqs := []Request{slotReq("j", "capped", 100)}
	res := AllocateHierarchy(slotPool(10), h, reqs, nil)
	if res.Grants["j"] != 3 {
		t.Fatalf("grants = %v, want j=3 (queue limit)", res.Grants)
	}
	// Parent limit binds the child subtree too.
	h2 := mustHierarchy(t, []QueueSpec{
		{Name: "org", Limit: QueueLimit{Slots: 4}},
		{Name: "org.team", Parent: "org"},
	})
	res2 := AllocateHierarchy(slotPool(10), h2, []Request{slotReq("j", "org.team", 100)}, nil)
	if res2.Grants["j"] != 4 {
		t.Fatalf("grants = %v, want j=4 (parent limit)", res2.Grants)
	}
}

func TestHierarchyReclaimPreemptsOverQuota(t *testing.T) {
	// batch holds the whole pool; prod's quota forces reclaim.
	h := mustHierarchy(t, []QueueSpec{
		{Name: "prod", Quota: QueueLimit{Slots: 4}},
		{Name: "batch"},
	})
	reqs := []Request{
		slotReq("batch-1", "batch", 100),
		slotReq("prod-1", "prod", 100),
	}
	held := Allocation{"batch-1": 10}
	res := AllocateHierarchy(slotPool(10), h, reqs, held)
	if res.Evict["batch-1"] != 4 {
		t.Fatalf("evict = %v, want batch-1=4", res.Evict)
	}
	if res.Grants["prod-1"] != 4 {
		t.Fatalf("grants = %v, want prod-1=4", res.Grants)
	}
}

func TestHierarchyReclaimVictimOrder(t *testing.T) {
	// Two over-quota holders: the longest-predicted one is evicted first.
	h := mustHierarchy(t, []QueueSpec{
		{Name: "prod", Quota: QueueLimit{Slots: 2}},
		{Name: "batch"},
	})
	reqs := []Request{
		{JobID: "long", MemoryMB: 1024, VCores: 1, Pending: 100, Queue: "batch", Predicted: 900},
		{JobID: "short", MemoryMB: 1024, VCores: 1, Pending: 100, Queue: "batch", Predicted: 30},
		slotReq("prod-1", "prod", 2),
	}
	held := Allocation{"long": 5, "short": 5}
	res := AllocateHierarchy(slotPool(10), h, reqs, held)
	if res.Evict["long"] != 2 || res.Evict["short"] != 0 {
		t.Fatalf("evict = %v, want long=2 short=0 (longest predicted first)", res.Evict)
	}
	if res.Grants["prod-1"] != 2 {
		t.Fatalf("grants = %v", res.Grants)
	}
}

func TestHierarchyReclaimNeverCutsQuota(t *testing.T) {
	// Both queues guaranteed; holder is inside its own quota → no victim.
	h := mustHierarchy(t, []QueueSpec{
		{Name: "a", Quota: QueueLimit{Slots: 5}},
		{Name: "b", Quota: QueueLimit{Slots: 5}},
	})
	reqs := []Request{
		slotReq("a-1", "a", 100),
		slotReq("b-1", "b", 100),
	}
	held := Allocation{"a-1": 5}
	res := AllocateHierarchy(slotPool(5), h, reqs, held)
	if len(res.Evict) != 0 {
		t.Fatalf("evicted intra-quota work: %v", res.Evict)
	}
}

func TestHierarchyFlatHeldNeverEvicted(t *testing.T) {
	// A guaranteed queue is starved, but the holder sits at the root
	// (flat work): never preempted.
	h := mustHierarchy(t, []QueueSpec{
		{Name: "prod", Quota: QueueLimit{Slots: 4}},
	})
	reqs := []Request{
		slotReq("flat", "", 100),
		slotReq("prod-1", "prod", 4),
	}
	held := Allocation{"flat": 10}
	res := AllocateHierarchy(slotPool(10), h, reqs, held)
	if len(res.Evict) != 0 {
		t.Fatalf("evicted root-held work: %v", res.Evict)
	}
}

func TestHierarchyUnknownQueueFallsToRoot(t *testing.T) {
	h := mustHierarchy(t, []QueueSpec{{Name: "known"}})
	res := AllocateHierarchy(slotPool(4), h, []Request{slotReq("j", "ghost", 10)}, nil)
	if res.Grants["j"] != 4 {
		t.Fatalf("grants = %v, want unknown queue treated as root", res.Grants)
	}
}

func TestHierarchyNilMatchesDRF(t *testing.T) {
	pool := Pool{MemoryMB: 64 * 1024, VCores: 32, Slots: 32}
	reqs := []Request{
		{JobID: "a", MemoryMB: 4096, VCores: 1, Pending: 20},
		{JobID: "b", MemoryMB: 1024, VCores: 2, Pending: 20},
		{JobID: "c", MemoryMB: 2048, VCores: 1, Pending: 5, Cap: 3},
	}
	held := Allocation{"b": 2}
	want := DRF(pool, reqs, held)
	res := AllocateHierarchy(pool, nil, reqs, held)
	if res.Evict != nil {
		t.Fatalf("flat mode evicted: %v", res.Evict)
	}
	for id, g := range want {
		if res.Grants[id] != g {
			t.Fatalf("flat hierarchy diverged from DRF: %v vs %v", res.Grants, want)
		}
	}
}

func TestStreamRejectionReasons(t *testing.T) {
	pool := slotPool(4)
	jobs := []StreamJob{
		{ID: "huge", Submit: 0, Work: 100, MaxParallelism: 2, MemoryMB: 8 * 1024, VCores: 1},
		{ID: "late", Submit: 0, Work: 400, MaxParallelism: 4, MemoryMB: 1024, VCores: 1,
			Predicted: 100, Deadline: 50},
		{ID: "ok", Submit: 0, Work: 40, MaxParallelism: 4, MemoryMB: 1024, VCores: 1,
			Predicted: 10, Deadline: 1e6},
	}
	res := RunStream(pool, jobs, StreamOptions{Policy: PolicySPJF, DeadlineAdmission: true})
	if res.Rejected != 2 {
		t.Fatalf("rejected = %d, want 2 (%+v)", res.Rejected, res.Rejections)
	}
	byID := map[string]StreamJobResult{}
	for _, j := range res.Jobs {
		byID[j.ID] = j
	}
	if byID["huge"].Reason != ReasonNeverFits {
		t.Fatalf("huge reason = %q", byID["huge"].Reason)
	}
	if byID["late"].Reason != ReasonSLOInfeasible {
		t.Fatalf("late reason = %q", byID["late"].Reason)
	}
	for _, rej := range res.Rejections {
		if rej.Code != 503 {
			t.Fatalf("rejection code = %d, want 503", rej.Code)
		}
	}
	if byID["ok"].Rejected || math.IsInf(byID["ok"].Finish, 1) {
		t.Fatalf("ok job should run: %+v", byID["ok"])
	}
	if res.SLOMissRate != 0 {
		t.Fatalf("SLO miss rate = %v, want 0 (infeasible job rejected, not missed)", res.SLOMissRate)
	}
}
