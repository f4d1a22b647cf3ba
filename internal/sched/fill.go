package sched

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
