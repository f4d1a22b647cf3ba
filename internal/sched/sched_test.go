package sched

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"boedag/internal/cluster"
)

func pool() Pool { return Pool{MemoryMB: 352 * 1024, VCores: 132, Slots: 132} }

func TestDRFEqualJobsSplitEqually(t *testing.T) {
	reqs := []Request{
		{JobID: "a", MemoryMB: 1024, VCores: 1, Pending: 200},
		{JobID: "b", MemoryMB: 1024, VCores: 1, Pending: 200},
	}
	got := DRF(pool(), reqs, nil)
	if got["a"] != 66 || got["b"] != 66 {
		t.Errorf("equal jobs got %v, want 66/66", got)
	}
}

func TestDRFDominantResource(t *testing.T) {
	// Job a is memory-hungry, job b is CPU-hungry: DRF equalizes the
	// dominant shares, the canonical example of Ghodsi et al.
	p := Pool{MemoryMB: 100, VCores: 100, Slots: 1000}
	reqs := []Request{
		{JobID: "mem", MemoryMB: 4, VCores: 1, Pending: 1000},
		{JobID: "cpu", MemoryMB: 1, VCores: 4, Pending: 1000},
	}
	got := DRF(p, reqs, nil)
	// Equal dominant shares: mem job 4m/100 ≈ cpu job 4c/100 → 20 each
	// fills 80m+20c and 20m+80c.
	if got["mem"] != 20 || got["cpu"] != 20 {
		t.Errorf("DRF grants = %v, want 20/20", got)
	}
}

func TestDRFRespectsPending(t *testing.T) {
	reqs := []Request{
		{JobID: "small", MemoryMB: 1024, VCores: 1, Pending: 5},
		{JobID: "big", MemoryMB: 1024, VCores: 1, Pending: 1000},
	}
	got := DRF(pool(), reqs, nil)
	if got["small"] != 5 {
		t.Errorf("small job granted %d, want its full 5", got["small"])
	}
	if got["big"] != 127 {
		t.Errorf("big job granted %d, want the remaining 127", got["big"])
	}
}

func TestDRFRespectsCap(t *testing.T) {
	reqs := []Request{
		{JobID: "capped", MemoryMB: 1024, VCores: 1, Pending: 1000, Cap: 10},
		{JobID: "free", MemoryMB: 1024, VCores: 1, Pending: 1000},
	}
	got := DRF(pool(), reqs, nil)
	if got["capped"] != 10 {
		t.Errorf("capped job granted %d, want 10", got["capped"])
	}
	if got["free"] != 122 {
		t.Errorf("free job granted %d, want 122", got["free"])
	}
}

func TestDRFHeldCountsTowardShareAndPool(t *testing.T) {
	reqs := []Request{
		{JobID: "holder", MemoryMB: 1024, VCores: 1, Pending: 1000},
		{JobID: "fresh", MemoryMB: 1024, VCores: 1, Pending: 1000},
	}
	held := Allocation{"holder": 100}
	got := DRF(pool(), reqs, held)
	// 32 slots remain; the fresh job has the lower dominant share and
	// should take them all.
	if got["fresh"] != 32 {
		t.Errorf("fresh job granted %d, want 32", got["fresh"])
	}
	if got["holder"] != 0 {
		t.Errorf("holder granted %d more, want 0", got["holder"])
	}
}

func TestDRFHeldCapIncludesHeld(t *testing.T) {
	reqs := []Request{
		{JobID: "a", MemoryMB: 1024, VCores: 1, Pending: 1000, Cap: 10},
	}
	held := Allocation{"a": 10}
	got := DRF(pool(), reqs, held)
	if got["a"] != 0 {
		t.Errorf("granted %d beyond cap, want 0", got["a"])
	}
}

func TestDRFSlotsBind(t *testing.T) {
	p := Pool{MemoryMB: 1 << 30, VCores: 1 << 20, Slots: 7}
	reqs := []Request{{JobID: "a", MemoryMB: 1, VCores: 1, Pending: 100}}
	got := DRF(p, reqs, nil)
	if got["a"] != 7 {
		t.Errorf("granted %d, want slot-bound 7", got["a"])
	}
}

func TestDRFMemoryBinds(t *testing.T) {
	p := Pool{MemoryMB: 10 * 1024, VCores: 1000, Slots: 1000}
	reqs := []Request{{JobID: "a", MemoryMB: 1024, VCores: 1, Pending: 100}}
	got := DRF(p, reqs, nil)
	if got["a"] != 10 {
		t.Errorf("granted %d, want memory-bound 10", got["a"])
	}
}

func TestDRFDeterministicTieBreak(t *testing.T) {
	reqs := []Request{
		{JobID: "z", MemoryMB: 1024, VCores: 1, Pending: 1},
		{JobID: "a", MemoryMB: 1024, VCores: 1, Pending: 1},
	}
	p := Pool{MemoryMB: 1024, VCores: 1, Slots: 1}
	got := DRF(p, reqs, nil)
	if got["a"] != 1 || got["z"] != 0 {
		t.Errorf("tie should go to lexicographically first job: %v", got)
	}
}

func TestAllocationTotal(t *testing.T) {
	a := Allocation{"x": 3, "y": 4}
	if got := a.Total(); got != 7 {
		t.Errorf("Total = %d, want 7", got)
	}
}

func TestPoolOf(t *testing.T) {
	spec := cluster.PaperCluster()
	p := PoolOf(spec)
	if p.Slots != 132 {
		t.Errorf("Slots = %d, want 132", p.Slots)
	}
	if p.VCores != 132 {
		t.Errorf("VCores = %d, want 132 (follows slots, not physical cores)", p.VCores)
	}
	if p.MemoryMB != 11*32*1024 {
		t.Errorf("MemoryMB = %d", p.MemoryMB)
	}
}

func TestWithSlotLimit(t *testing.T) {
	p := pool().WithSlotLimit(22)
	if p.Slots != 22 || p.VCores != 22 {
		t.Errorf("WithSlotLimit = %+v, want slots and vcores 22", p)
	}
	q := pool().WithSlotLimit(0)
	if q.Slots != 132 {
		t.Errorf("WithSlotLimit(0) changed slots: %+v", q)
	}
}

func TestParallelismBoostsZeroPending(t *testing.T) {
	got := Parallelism(pool(), []Request{
		{JobID: "a", MemoryMB: 1024, VCores: 1}, // Pending 0 = unbounded
		{JobID: "b", MemoryMB: 1024, VCores: 1},
	})
	if got["a"] != 66 || got["b"] != 66 {
		t.Errorf("Parallelism = %v, want 66/66", got)
	}
}

func TestParallelismKeepsFinitePending(t *testing.T) {
	got := Parallelism(pool(), []Request{
		{JobID: "a", MemoryMB: 1024, VCores: 1, Pending: 4},
		{JobID: "b", MemoryMB: 1024, VCores: 1},
	})
	if got["a"] != 4 {
		t.Errorf("job a granted %d, want its 4 pending", got["a"])
	}
	if got["b"] != 128 {
		t.Errorf("job b granted %d, want 128", got["b"])
	}
}

// Property: DRF never over-commits memory, vcores, slots, pending or
// caps, for arbitrary request mixes.
func TestDRFNeverOvercommits(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Pool{
			MemoryMB: rng.Intn(100000) + 1000,
			VCores:   rng.Intn(200) + 1,
			Slots:    rng.Intn(200) + 1,
		}
		n := rng.Intn(5) + 1
		reqs := make([]Request, n)
		held := Allocation{}
		for i := range reqs {
			reqs[i] = Request{
				JobID:    string(rune('a' + i)),
				MemoryMB: rng.Intn(4096) + 1,
				VCores:   rng.Intn(4) + 1,
				Pending:  rng.Intn(300),
				Cap:      rng.Intn(50),
			}
			if rng.Intn(2) == 0 {
				held[reqs[i].JobID] = rng.Intn(5)
			}
		}
		got := DRF(p, reqs, held)
		mem, cpu, slots := 0, 0, 0
		for _, r := range reqs {
			g := got[r.JobID]
			if g < 0 || g > r.Pending {
				return false
			}
			if r.Cap > 0 && held[r.JobID] <= r.Cap && g+held[r.JobID] > r.Cap {
				return false
			}
			total := g + held[r.JobID]
			mem += total * r.MemoryMB
			cpu += total * r.VCores
			slots += total
		}
		// Held containers may pre-exceed the pool (they were granted
		// earlier under different conditions); new grants must not push a
		// within-pool total over the top.
		heldMem, heldCPU, heldSlots := 0, 0, 0
		for _, r := range reqs {
			heldMem += held[r.JobID] * r.MemoryMB
			heldCPU += held[r.JobID] * r.VCores
			heldSlots += held[r.JobID]
		}
		if heldMem <= p.MemoryMB && mem > p.MemoryMB {
			return false
		}
		if heldCPU <= p.VCores && cpu > p.VCores {
			return false
		}
		if heldSlots <= p.Slots && slots > p.Slots {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// drfScan is the reference DRF: before each container it rescans every
// job for the lowest dominant share (ties to the lowest JobID). It is
// the oracle the heap-driven DRF must match map for map.
func drfScan(pool Pool, reqs []Request, held Allocation) Allocation {
	grant := make(Allocation, len(reqs))
	memUsed, cpuUsed, slotsUsed := 0, 0, 0
	for _, r := range reqs {
		h := held[r.JobID]
		if h == 0 {
			continue
		}
		grant[r.JobID] = 0
		memUsed += h * r.MemoryMB
		cpuUsed += h * r.VCores
		slotsUsed += h
	}
	idx := make([]int, len(reqs))
	for i := range reqs {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for k := i; k > 0 && reqs[idx[k]].JobID < reqs[idx[k-1]].JobID; k-- {
			idx[k], idx[k-1] = idx[k-1], idx[k]
		}
	}
	dominant := func(r Request, n int) float64 {
		memShare, cpuShare := 0.0, 0.0
		if pool.MemoryMB > 0 {
			memShare = float64(n*r.MemoryMB) / float64(pool.MemoryMB)
		}
		if pool.VCores > 0 {
			cpuShare = float64(n*r.VCores) / float64(pool.VCores)
		}
		if memShare > cpuShare {
			return memShare
		}
		return cpuShare
	}
	for {
		best, bestShare := -1, 0.0
		for _, i := range idx {
			r := reqs[i]
			have := grant[r.JobID] + held[r.JobID]
			if grant[r.JobID] >= r.Pending {
				continue
			}
			if r.Cap > 0 && have >= r.Cap {
				continue
			}
			if memUsed+r.MemoryMB > pool.MemoryMB && pool.MemoryMB > 0 {
				continue
			}
			if cpuUsed+r.VCores > pool.VCores && pool.VCores > 0 {
				continue
			}
			if pool.Slots > 0 && slotsUsed+1 > pool.Slots {
				continue
			}
			share := dominant(r, have)
			if best == -1 || share < bestShare {
				best, bestShare = i, share
			}
		}
		if best == -1 {
			break
		}
		r := reqs[best]
		grant[r.JobID]++
		memUsed += r.MemoryMB
		cpuUsed += r.VCores
		slotsUsed++
	}
	return grant
}

// fairScan is the reference slot-fair policy: before each container it
// re-sorts every job by (holdings, JobID) and grants to the first that
// can still take one.
func fairScan(pool Pool, reqs []Request, held Allocation) Allocation {
	ordered := append([]Request(nil), reqs...)
	sort.Slice(ordered, func(a, b int) bool { return ordered[a].JobID < ordered[b].JobID })
	grant := make(Allocation, len(reqs))
	memUsed, cpuUsed, slotsUsed := heldUsage(reqs, held)
	for {
		progress := false
		sort.SliceStable(ordered, func(a, b int) bool {
			ha := grant[ordered[a].JobID] + held[ordered[a].JobID]
			hb := grant[ordered[b].JobID] + held[ordered[b].JobID]
			if ha != hb {
				return ha < hb
			}
			return ordered[a].JobID < ordered[b].JobID
		})
		for _, r := range ordered {
			have := grant[r.JobID] + held[r.JobID]
			if grant[r.JobID] >= r.Pending {
				continue
			}
			if r.Cap > 0 && have >= r.Cap {
				continue
			}
			if !fits(pool, memUsed+r.MemoryMB, cpuUsed+r.VCores, slotsUsed+1) {
				continue
			}
			grant[r.JobID]++
			memUsed += r.MemoryMB
			cpuUsed += r.VCores
			slotsUsed++
			progress = true
			break
		}
		if !progress {
			return grant
		}
	}
}
