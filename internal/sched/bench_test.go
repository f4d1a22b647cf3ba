package sched

import (
	"fmt"
	"testing"
)

// benchRand is a tiny deterministic LCG — schedtest's generator lives
// downstream of this package, so the benchmarks roll their own.
type benchRand struct{ s uint64 }

func (r *benchRand) Intn(n int) int {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return int((r.s >> 33) % uint64(n))
}

// The allocator benchmarks pin the scheduling hot paths for the
// regression gate (hack/bench_baseline.txt): one hierarchical
// allocation round over a realistic multi-tenant tree with reclaim
// pressure, and one full arrival-stream replay per policy.

// benchHierarchy builds a 3-tenant × 4-subqueue tree with mixed quotas,
// weights, and limits.
func benchHierarchy(b *testing.B) *Hierarchy {
	b.Helper()
	specs := []QueueSpec{
		{Name: "prod", Quota: QueueLimit{Slots: 40}},
		{Name: "batch", Weight: 2},
		{Name: "adhoc", Weight: 1, Limit: QueueLimit{Slots: 64}},
	}
	for _, tenant := range []string{"prod", "batch", "adhoc"} {
		for i := 0; i < 4; i++ {
			specs = append(specs, QueueSpec{
				Name:   fmt.Sprintf("%s-%d", tenant, i),
				Parent: tenant,
				Weight: float64(1 + i%2),
			})
		}
	}
	h, err := NewHierarchy(specs)
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// benchRequests spreads n jobs across the tree's leaves with varied
// shapes and predictions, plus a held allocation that puts the
// pool over quota so the reclaim phase does real work.
func benchRequests(n int) ([]Request, Allocation) {
	r := &benchRand{s: 99}
	reqs := make([]Request, n)
	held := Allocation{}
	for i := range reqs {
		tenant := []string{"prod", "batch", "adhoc"}[i%3]
		reqs[i] = Request{
			JobID:     fmt.Sprintf("j%03d", i),
			MemoryMB:  512 * (1 + r.Intn(4)),
			VCores:    1,
			Pending:   1 + r.Intn(24),
			Order:     i,
			Queue:     fmt.Sprintf("%s-%d", tenant, i%4),
			Predicted: float64(10 + r.Intn(600)),
		}
		if tenant != "prod" && i%2 == 0 {
			held[reqs[i].JobID] = 1 + r.Intn(3)
		}
	}
	return reqs, held
}

func BenchmarkHierarchicalAllocate(b *testing.B) {
	h := benchHierarchy(b)
	reqs, held := benchRequests(120)
	pool := Pool{MemoryMB: 1 << 19, VCores: 128, Slots: 128}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := AllocateHierarchy(pool, h, reqs, held)
		if len(res.Grants) == 0 {
			b.Fatal("empty allocation")
		}
	}
}

// BenchmarkStreamPolicySweep replays one seeded 200-job arrival stream
// under every policy (plus deadline admission) back to back — the cost
// of one policy-study cell times the full lineup.
func BenchmarkStreamPolicySweep(b *testing.B) {
	r := &benchRand{s: 7}
	pool := Pool{MemoryMB: 1 << 19, VCores: 128, Slots: 128}
	jobs := make([]StreamJob, 200)
	now := 0.0
	for i := range jobs {
		now += float64(r.Intn(20))
		predicted := float64(10 + r.Intn(600))
		jobs[i] = StreamJob{
			ID:             fmt.Sprintf("j%03d", i),
			Submit:         now,
			Work:           predicted * float64(4+r.Intn(60)),
			MaxParallelism: 4 + r.Intn(60),
			MemoryMB:       512,
			VCores:         1,
			Predicted:      predicted,
		}
		if i%2 == 0 {
			jobs[i].Deadline = now + predicted*2
		}
	}
	opts := []StreamOptions{
		{Policy: PolicyFIFO},
		{Policy: PolicyDRF},
		{Policy: PolicyFair},
		{Policy: PolicySPJF},
		{Policy: PolicySPJF, DeadlineAdmission: true},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, opt := range opts {
			res := RunStream(pool, jobs, opt)
			if res.Admitted == 0 {
				b.Fatal("nothing admitted")
			}
		}
	}
}
