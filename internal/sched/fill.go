package sched

import "math"

// This file holds the progressive fill every one-container-at-a-time
// allocator shares: DRF, the slot-fair policy, and both fill phases of
// the hierarchical scheduler. Each grants containers one at a time, each
// to the eligible job with the lowest priority key, ties to the lowest
// JobID, until no job is eligible.
//
// Rescanning every job per container costs O(containers × jobs). The
// fill instead keeps candidates in a binary min-heap keyed by
// (key, JobID rank) and relies on one invariant: within a fill,
// eligibility only shrinks. Pending grants, holdings, pool usage and
// queue limit/quota usage only grow while containers are granted
// (container shapes are non-negative), so a job that cannot take a
// container now cannot take one later in the same fill. A popped job
// that is no longer eligible is dropped for good; an eligible one is
// granted one container and sifted down under its new key. Only the
// granted job's key changes (keys depend on the job's own holdings), so
// the heap stays ordered and the cost is O((jobs + containers) · log
// jobs).

// jobOrder fills order with the request indices sorted by JobID, stable
// among equal IDs: the fills' deterministic tie-break. Insertion sort:
// one entry per job and a call per state iteration, where sort.Slice's
// reflective swapper would allocate every time.
func jobOrder(order []int, reqs []Request) {
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for k := i; k > 0 && reqs[order[k]].JobID < reqs[order[k-1]].JobID; k-- {
			order[k], order[k-1] = order[k-1], order[k]
		}
	}
}

// progressiveFill runs one fill over the n jobs identified by their
// JobID rank 0..n-1: while some job is eligible, grant one container to
// the eligible job with the lowest (key, rank). eligible must only ever
// turn false within the fill, and key(k) may change only when k is
// granted. heap is scratch space of capacity at least n.
func progressiveFill(heap []int, n int, key func(k int) float64, eligible func(k int) bool, grant func(k int)) {
	heap = heap[:0]
	for k := 0; k < n; k++ {
		if eligible(k) {
			heap = append(heap, k)
		}
	}
	for p := len(heap)/2 - 1; p >= 0; p-- {
		siftDown(heap, p, key)
	}
	for len(heap) > 0 {
		if top := heap[0]; eligible(top) {
			grant(top)
		} else {
			last := len(heap) - 1
			heap[0] = heap[last]
			heap = heap[:last]
		}
		siftDown(heap, 0, key)
	}
}

// siftDown restores the (key, rank) min-heap order below position p.
func siftDown(heap []int, p int, key func(k int) float64) {
	if p >= len(heap) {
		return
	}
	x := heap[p]
	kx := key(x)
	for {
		c := 2*p + 1
		if c >= len(heap) {
			break
		}
		kc := key(heap[c])
		if c+1 < len(heap) {
			if k2 := key(heap[c+1]); k2 < kc || k2 == kc && heap[c+1] < heap[c] {
				c, kc = c+1, k2
			}
		}
		if kx < kc || kx == kc && x < heap[c] {
			break
		}
		heap[p] = heap[c]
		p = c
	}
	heap[p] = x
}

// dominantShare is the job's maximum share across memory and vcores
// at count n — DRF's priority key.
func dominantShare(pool Pool, r Request, n int) float64 {
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

// flatFill is the working set of a flat fill (DRF or slot-fair): the
// pool usage and, by JobID rank, each job's holdings and grants. The
// rank-indexed slices and the heap share one allocation.
type flatFill struct {
	pool            Pool
	reqs            []Request
	order           []int // request index by rank
	held, grant     []int // by rank
	heap            []int
	mem, cpu, slots int
}

func newFlatFill(pool Pool, reqs []Request, held Allocation) flatFill {
	n := len(reqs)
	buf := make([]int, 4*n)
	f := flatFill{
		pool:  pool,
		reqs:  reqs,
		order: buf[:n:n],
		held:  buf[n : 2*n : 2*n],
		grant: buf[2*n : 3*n : 3*n],
		heap:  buf[3*n:],
	}
	jobOrder(f.order, reqs)
	for k, i := range f.order {
		r := reqs[i]
		h := held[r.JobID]
		f.held[k] = h
		f.mem += h * r.MemoryMB
		f.cpu += h * r.VCores
		f.slots += h
	}
	return f
}

// have is rank k's container count, held plus granted.
func (f *flatFill) have(k int) int { return f.held[k] + f.grant[k] }

// eligible reports whether rank k can take one more container: pending
// unmet, cap unreached, and the container fits the pool.
func (f *flatFill) eligible(k int) bool {
	r := f.reqs[f.order[k]]
	if f.grant[k] >= r.Pending || r.Cap > 0 && f.have(k) >= r.Cap {
		return false
	}
	return fits(f.pool, f.mem+r.MemoryMB, f.cpu+r.VCores, f.slots+1)
}

// grantOne gives rank k one container.
func (f *flatFill) grantOne(k int) {
	r := f.reqs[f.order[k]]
	f.grant[k]++
	f.mem += r.MemoryMB
	f.cpu += r.VCores
	f.slots++
}

// allocation builds the result: an entry per job granted a container
// and, with withHeld, a (possibly zero) entry per job holding any.
func (f *flatFill) allocation(withHeld bool) Allocation {
	count := 0
	for k, g := range f.grant {
		if g > 0 || withHeld && f.held[k] != 0 {
			count++
		}
	}
	out := make(Allocation, count)
	for k, g := range f.grant {
		if g > 0 || withHeld && f.held[k] != 0 {
			out[f.reqs[f.order[k]].JobID] += g
		}
	}
	return out
}

// drfKey is rank k's DRF priority: its dominant share at its current
// container count.
func (f *flatFill) drfKey(k int) float64 {
	return dominantShare(f.pool, f.reqs[f.order[k]], f.have(k))
}

// levelMax bounds the pool, holdings, grant limits and container shapes
// the level step takes on, so no sum of count × shape products it
// compares with the pool overflows.
const levelMax = 1 << 31

// levelGrant makes the leading grants of a DRF fill in one pass, before
// the heap takes over: every container whose DRF key is strictly below
// a level v at which all those grants fit the pool, counted exactly.
//
// This is exact by construction. The fill pops keys in non-decreasing
// order (a granted job's key only grows, others' keys do not move), so
// the grants keyed below v are a prefix of its (key, rank) order. Usage
// only grows inside the prefix, and the whole prefix fits, so no job
// with a key below v is dropped for lack of pool room before it is done;
// pending and caps are counted into each job's limit. The heap then
// finishes from the state the prefix leaves, which is where the plain
// fill stands after the same grants.
//
// Whether the grants below v fit only turns from true to false as v
// rises, so v is found by bisection, stopping once at most one grant a
// job separates a level that fits from one that does not. When no level
// helps (no more free slots than jobs, or inputs outside the range the
// count is exact on) it grants nothing.
func (f *flatFill) levelGrant() {
	pool := f.pool
	limited := [3]bool{pool.MemoryMB > 0, pool.VCores > 0, pool.Slots > 0}
	free := [3]int{pool.MemoryMB - f.mem, pool.VCores - f.cpu, pool.Slots - f.slots}
	dims := [3]int{pool.MemoryMB, pool.VCores, pool.Slots}
	for j := range free {
		if limited[j] && (free[j] < 0 || dims[j] > levelMax) {
			return
		}
	}
	if limited[2] && free[2] <= len(f.order) {
		return // at most one free slot a job: the heap's tail is all there is
	}
	for k, i := range f.order {
		r, h := f.reqs[i], f.held[k]
		if r.MemoryMB < 0 || r.VCores < 0 || r.MemoryMB > levelMax || r.VCores > levelMax ||
			h > levelMax || h < -levelMax || f.limit(k) > levelMax {
			return
		}
	}
	// Nothing is keyed below the lowest current key; everything is below
	// +Inf.
	lo, hi := 0.0, math.Inf(1)
	for k, i := range f.order {
		lo = math.Min(lo, dominantShare(pool, f.reqs[i], f.held[k]))
	}
	low, high, fit := 0, 0, false
	if high, fit = f.grantBelow(hi, free, limited); !fit {
		hi = 0 // the highest key after every grant: as binding as +Inf
		for k, i := range f.order {
			hi = math.Max(hi, dominantShare(pool, f.reqs[i], f.held[k]+f.limit(k)))
		}
		for it := 0; it < 64 && high-low > len(f.order); it++ {
			mid := lo + (hi-lo)/2
			if !(lo < mid && mid < hi) {
				break
			}
			if n, ok := f.grantBelow(mid, free, limited); ok {
				lo, low = mid, n
			} else {
				hi, high = mid, n
			}
		}
		f.grantBelow(lo, free, limited)
	}
	for k, i := range f.order {
		r := f.reqs[i]
		f.mem += f.grant[k] * r.MemoryMB
		f.cpu += f.grant[k] * r.VCores
		f.slots += f.grant[k]
	}
}

// grantBelow sets each rank's grants to its count keyed below v and
// reports their total and whether they all fit the free pool.
func (f *flatFill) grantBelow(v float64, free [3]int, limited [3]bool) (int, bool) {
	var use [3]int
	for k, i := range f.order {
		r, g := f.reqs[i], f.countBelow(k, v)
		f.grant[k] = g
		use[0] += g * r.MemoryMB
		use[1] += g * r.VCores
		use[2] += g
	}
	for j := range use {
		if limited[j] && use[j] > free[j] {
			return use[2], false
		}
	}
	return use[2], true
}

// limit is how many containers rank k can be granted in this fill by
// its pending count, its cap and the pool's free slots.
func (f *flatFill) limit(k int) int {
	r := f.reqs[f.order[k]]
	n := r.Pending
	if r.Cap > 0 {
		n = min(n, r.Cap-f.held[k])
	}
	if f.pool.Slots > 0 {
		n = min(n, f.pool.Slots-f.slots)
	}
	return max(n, 0)
}

// countBelow counts rank k's grants keyed below v: the containers
// i < limit(k) whose key, the dominant share at held+i, is below v. The
// key grows with the count, so the guess ⌈v/d⌉ is corrected against the
// exact keys.
func (f *flatFill) countBelow(k int, v float64) int {
	r, h, lim := f.reqs[f.order[k]], f.held[k], f.limit(k)
	d := dominantShare(f.pool, r, 1)
	if d == 0 { // the key is 0 at every count
		if v > 0 {
			return lim
		}
		return 0
	}
	n := 0
	switch x := math.Ceil(v/d) - float64(h); {
	case x >= float64(lim):
		n = lim
	case x > 0:
		n = int(x)
	}
	for n > 0 && dominantShare(f.pool, r, h+n-1) >= v {
		n--
	}
	for n < lim && dominantShare(f.pool, r, h+n) < v {
		n++
	}
	return n
}
