// Package fairshare implements progressive-filling max-min fair
// allocation of preemptable resources among groups of identical tasks.
// It is the resource usage law (paper §III-A2) that both the BOE cost
// model and the ground-truth simulator obey: within a computation stage,
// pipelined tasks consume resources uniformly, each resource is shared
// max-min fairly by the tasks demanding it, and a task's progress rate is
// bound by its bottleneck operation.
//
// The solver, Arena, answers: given resource capacities and task groups —
// each with a demand vector (bytes of each resource consumed per unit of
// task progress) and a per-task rate cap — what progress rate does each
// task sustain, and which resource binds it? TaskConsumer turns a
// sub-stage into such a group, the same way for the model and the
// simulator.
package fairshare

import (
	"math"

	"boedag/internal/cluster"
	"boedag/internal/units"
	"boedag/internal/workload"
)

// Consumer is a group of Count identical tasks. Demand[r] is the bytes of
// resource r the task consumes per unit of progress; a task progressing at
// rate x uses Demand[r]·x of resource r. MaxRate caps a single task's
// progress independent of contention (e.g. one CPU core's worth); zero
// means uncapped. CapResource names the resource responsible for MaxRate,
// for bottleneck attribution.
type Consumer struct {
	Count       int
	Demand      [cluster.NumResources]float64
	MaxRate     float64
	CapResource cluster.Resource
}

// TaskConsumer is the group of count tasks running one sub-stage with
// operations ops on nodes shaped like node. A task's demand on a
// resource is its operation's bytes (progress is measured in sub-stage
// completions, so a rate of x finishes the sub-stage in 1/x seconds),
// and its rate cap is the tightest of its operations' single-task
// ceilings: one task cannot drive a resource past one node's device rate
// (one core's compute, one NIC's line rate, one node's disks), however
// idle the pool it shares.
func TaskConsumer(node cluster.NodeSpec, ops []workload.OpDemand, count int) Consumer {
	c := Consumer{Count: count, CapResource: cluster.CPU}
	for _, op := range ops {
		if op.Bytes <= 0 {
			continue
		}
		c.Demand[op.Resource] = float64(op.Bytes)
		r := float64(node.PerTaskCap(op.Resource)) / float64(op.Bytes)
		if c.MaxRate == 0 || r < c.MaxRate {
			c.MaxRate = r
			c.CapResource = op.Resource
		}
	}
	return c
}

// Result reports the outcome of an allocation.
type Result struct {
	// Rate[i] is the per-task progress rate of consumer i.
	Rate []float64
	// Bottleneck[i] is the resource that froze consumer i: the saturated
	// shared resource, or the consumer's CapResource when its own per-task
	// cap bound first.
	Bottleneck []cluster.Resource
	// Utilization[r] is the fraction of resource r's capacity in use.
	Utilization [cluster.NumResources]float64
}

// Arena is the fair-share solver: it holds an allocation's working
// buffers for reuse across calls — the hot path of repeated solves (the
// estimator solves once per task-time solve, the simulator once per
// resource pool per event) — and a bounded memo of recent Allocate
// answers. The Result returned by its methods aliases the arena and is
// only valid until the next call. A zero Arena is ready to use, and the
// numbers do not depend on what it solved before.
type Arena struct {
	res Result
	// cls[i] is row i's class, -1 for a dead row; the class buffers
	// below are indexed by class.
	cls []int32
	// rep[k] is class k's first row, size[k] its row count, bound[k][r]
	// the rate ceiling resource r imposes on its rows (+Inf when r is
	// not demanded or not yet constraining), and want[k] their desired
	// usage of the resource being filled.
	rep    []int32
	size   []int32
	bound  [][cluster.NumResources]float64
	before [][cluster.NumResources]float64
	want   []float64
	index  []int32 // classify's open-addressed table: class + 1, 0 free
	// sortedRows' buffers: the rows and the classes demanding a
	// resource, each class's rank and each rank's next row slot.
	ds    []demander
	cs    []demander
	rank  []int32
	at    []int32
	srt   sortScratch
	memo  memo
	stats Stats
}

// Stats counts an arena's Allocate work.
type Stats struct {
	// Solves counts Allocate calls, MemoHits those answered from the
	// memo.
	Solves, MemoHits int64
	// Sweeps counts the Gauss-Seidel sweeps the other calls ran, Capped
	// those calls that stopped at the sweep cap without converging.
	Sweeps, Capped int64
}

// Stats reports the arena's counts since it was made or last Reset.
func (a *Arena) Stats() Stats { return a.stats }

// Reset empties the memo and zeroes the counts, so what the arena
// reports afterwards depends only on the calls made afterwards.
func (a *Arena) Reset() {
	a.memo.reset()
	a.stats = Stats{}
}

// grow resizes the result buffers for n consumers and clears the fields
// that are not unconditionally rewritten below.
func (a *Arena) grow(n int) *Result {
	res := &a.res
	if cap(res.Rate) < n {
		res.Rate = make([]float64, n)
		res.Bottleneck = make([]cluster.Resource, n)
		a.cls = make([]int32, n)
		a.rep = make([]int32, 0, n)
		a.size = make([]int32, 0, n)
		a.bound = make([][cluster.NumResources]float64, 0, n)
		a.want = make([]float64, n)
		a.rank = make([]int32, n)
		a.ds = make([]demander, 0, n)
	}
	res.Rate = res.Rate[:n]
	res.Bottleneck = res.Bottleneck[:n]
	a.cls = a.cls[:n]
	res.Utilization = [cluster.NumResources]float64{}
	return res
}

// Allocate computes the fair-queueing equilibrium of usage-based max-min
// sharing. Each resource is shared max-min *in usage* among the tasks
// demanding it: a task bound elsewhere consumes only what its progress
// needs, releasing the rest — exactly how an OS scheduler treats an
// I/O-bound thread's tiny CPU slice, and the mechanism behind the paper's
// Figure 1 (a network-bound shuffle does not drag on a CPU-bound map's
// cores).
//
// The equilibrium satisfies, for every consumer i with finite rate not at
// its own cap: there is a bottleneck resource r where i's per-task usage
// equals the resource's water-fill level — the largest per-task usage of
// any consumer on r — and r is fully utilized. It is computed by
// Gauss-Seidel iteration: each resource water-fills usage among its
// demanders, where every demander brings the rate ceiling its *other*
// resources (and per-task cap) impose; ceilings and levels are iterated
// to a fixed point.
//
// Capacity entries that are zero mean "resource absent": any demand on an
// absent resource pins the consumer to rate zero.
//
// An input equal to one the arena still remembers is answered with a
// copy of the remembered answer instead of being solved again.
func (a *Arena) Allocate(capacity [cluster.NumResources]units.Rate, consumers []Consumer) *Result {
	a.stats.Solves++
	if len(consumers) > memoMaxRows {
		return a.solve(capacity, consumers, maxIters)
	}
	h := memoHash(capacity, consumers)
	if e := a.memo.lookup(h, capacity, consumers); e != nil {
		a.stats.MemoHits++
		res := a.grow(len(consumers))
		copy(res.Rate, a.memo.rates[e.off:e.off+e.n])
		copy(res.Bottleneck, a.memo.bns[e.off:e.off+e.n])
		res.Utilization = e.util
		return res
	}
	res := a.solve(capacity, consumers, maxIters)
	a.memo.insert(h, capacity, consumers, res)
	return res
}

// maxIters caps the Gauss-Seidel sweeps of one solve.
const maxIters = 200

// solve is Allocate without the memo, stopping after at most iters
// sweeps.
//
// A sweep converges when no bound moved by more than 1e-10. Two
// resources that saturate at exactly the same level never get there:
// one of their bounds flips between +Inf and a finite value on every
// sweep. So after a sweep with such a flip the solve also stops when no
// live consumer's rate (the least of its bounds and cap) moved by more
// than 1e-10, and the bottleneck it names is the lowest resource whose
// bound agrees with the rate to that tolerance.
//
// Rows with equal (Demand, MaxRate, CapResource) — one class — bring
// equal ceilings to every resource on every sweep and receive equal
// bounds from it, so ceilings, bounds and the convergence test are
// worked out once per class. The fill itself stays row by row in the
// rows' stable order, subtracting each row's count·desired in turn, so
// every float operation of the row-by-row solve happens in its order.
func (a *Arena) solve(capacity [cluster.NumResources]units.Rate, consumers []Consumer, iters int) *Result {
	n := len(consumers)
	res := a.grow(n)
	for i, c := range consumers {
		res.Rate[i] = 0
		res.Bottleneck[i] = c.CapResource
	}
	cls := a.classify(capacity, consumers)
	bound := a.bound
	want := a.want[:len(bound)]
	// before holds the bounds as the sweep found them.
	before := append(a.before[:0], bound...)

	// ceiling(k, excluding r): the rate class k's rows could sustain if
	// resource r were infinite.
	ceiling := func(k, excl int) float64 {
		c := &consumers[a.rep[k]]
		lim := math.Inf(1)
		if c.MaxRate > 0 {
			lim = c.MaxRate
		}
		for r := 0; r < cluster.NumResources; r++ {
			if r == excl || c.Demand[r] <= 0 {
				continue
			}
			if b := bound[k][r]; b < lim {
				lim = b
			}
		}
		return lim
	}

	converged := false
	for iter := 0; iter < iters && !converged; iter++ {
		a.stats.Sweeps++
		copy(before, bound)
		change, flipped := 0.0, false
		for r := 0; r < cluster.NumResources; r++ {
			cap := float64(capacity[r])
			if cap <= 0 {
				continue
			}
			for k, i := range a.rep {
				if d := consumers[i].Demand[r]; d > 0 {
					want[k] = d * ceiling(k, r)
				}
			}
			ds := a.sortedRows(r, consumers, want)
			if len(ds) == 0 {
				continue
			}
			level := waterfill(cap, consumers, ds)
			for k, i := range a.rep {
				d := consumers[i].Demand[r]
				if d <= 0 {
					continue
				}
				nb := level / d
				// change only feeds the convergence test: once one
				// bound moved by 1e-10, the sweep has not converged.
				if change < 1e-10 {
					if diff := relDiff(nb, bound[k][r]); diff > change {
						change = diff
					}
				}
				flipped = flipped || math.IsInf(nb, 1) != math.IsInf(bound[k][r], 1)
				bound[k][r] = nb
			}
		}
		converged = change < 1e-10
		if !converged && flipped {
			converged = true
			for k := range a.rep {
				if relDiff(rateOf(&consumers[a.rep[k]], &bound[k]), rateOf(&consumers[a.rep[k]], &before[k])) > 1e-10 {
					converged = false
					break
				}
			}
		}
	}
	if !converged {
		a.stats.Capped++
	}

	a.before = before
	for k, i := range a.rep {
		c := &consumers[i]
		rate := math.Inf(1)
		bn := c.CapResource
		if c.MaxRate > 0 {
			rate = c.MaxRate
		}
		byBound := false
		for r := 0; r < cluster.NumResources; r++ {
			if c.Demand[r] <= 0 {
				continue
			}
			if b := bound[k][r]; b < rate {
				rate, bn, byBound = b, cluster.Resource(r), true
			}
		}
		if byBound {
			// A bound set the rate: name the lowest resource tied with it.
			for r := 0; r < int(bn); r++ {
				if c.Demand[r] > 0 && relDiff(bound[k][r], rate) <= 1e-10 {
					bn = cluster.Resource(r)
					break
				}
			}
		}
		// The class's rate and label wait in its first row.
		res.Rate[i] = rate
		res.Bottleneck[i] = bn
	}
	for i, k := range cls {
		if k >= 0 {
			res.Rate[i] = res.Rate[a.rep[k]]
			res.Bottleneck[i] = res.Bottleneck[a.rep[k]]
		}
	}

	for r := 0; r < cluster.NumResources; r++ {
		if capacity[r] <= 0 {
			continue
		}
		var use float64
		for i, c := range consumers {
			if res.Rate[i] > 0 && !math.IsInf(res.Rate[i], 1) {
				use += float64(c.Count) * c.Demand[r] * res.Rate[i]
			}
		}
		res.Utilization[r] = use / float64(capacity[r])
	}
	return res
}

// rateOf is the rate bounds b and its own cap allow consumer c: the
// least of them.
func rateOf(c *Consumer, b *[cluster.NumResources]float64) float64 {
	rate := math.Inf(1)
	if c.MaxRate > 0 {
		rate = c.MaxRate
	}
	for r := 0; r < cluster.NumResources; r++ {
		if c.Demand[r] > 0 && b[r] < rate {
			rate = b[r]
		}
	}
	return rate
}

// unbounded is a class's bounds before the first sweep.
var unbounded = func() (b [cluster.NumResources]float64) {
	for r := range b {
		b[r] = math.Inf(1)
	}
	return b
}()

// classify sorts the live rows into classes of equal (Demand, MaxRate,
// CapResource), in order of first appearance, with a hash table: one
// pass over the rows. A row is dead — cls -1, rate zero — when its
// group is empty or it demands an absent resource, which then labels
// it. Each class's bounds start at +Inf.
func (a *Arena) classify(capacity [cluster.NumResources]units.Rate, consumers []Consumer) []int32 {
	cls := a.cls
	a.rep = a.rep[:0]
	a.size = a.size[:0]
	a.bound = a.bound[:0]
	size := 8
	for size < 2*len(consumers) {
		size *= 2
	}
	if cap(a.index) < size {
		a.index = make([]int32, size)
	}
	index := a.index[:size]
	clear(index)
	mask := uint64(size - 1)
rows:
	for i := range consumers {
		c := &consumers[i]
		cls[i] = -1
		if c.Count <= 0 {
			continue
		}
		for r := 0; r < cluster.NumResources; r++ {
			if c.Demand[r] > 0 && float64(capacity[r]) <= 0 {
				a.res.Bottleneck[i] = cluster.Resource(r)
				continue rows
			}
		}
		h := uint64(c.CapResource)
		for _, d := range c.Demand {
			h = mixWord(h, math.Float64bits(d))
		}
		h = mixWord(h, math.Float64bits(c.MaxRate))
		h ^= h >> 29
		s := h & mask
		for ; index[s] != 0; s = (s + 1) & mask {
			k := index[s] - 1
			o := &consumers[a.rep[k]]
			if o.Demand == c.Demand && o.MaxRate == c.MaxRate && o.CapResource == c.CapResource {
				cls[i] = k
				a.size[k]++
				continue rows
			}
		}
		cls[i] = int32(len(a.rep))
		index[s] = cls[i] + 1
		a.rep = append(a.rep, int32(i))
		a.size = append(a.size, 1)
		a.bound = append(a.bound, unbounded)
	}
	return cls
}

// sortedRows lists the live rows demanding resource r with their
// class's desired usage want, in the order a stable sort of the rows by
// desired usage gives: ascending, equal usages in row order. A few rows
// are sorted directly; many are placed by rankRows.
func (a *Arena) sortedRows(r int, consumers []Consumer, want []float64) []demander {
	if len(consumers) >= 16 {
		if ds, ok := a.rankRows(r, consumers, want); ok {
			return ds
		}
	}
	ds := a.ds[:0]
	for i, c := range consumers {
		if k := a.cls[i]; k >= 0 && c.Demand[r] > 0 {
			ds = append(ds, demander{i, want[k]})
		}
	}
	sortDemanders(ds, &a.srt)
	a.ds = ds
	return ds
}

// rankRows is sortedRows without a sort of the rows. All rows of a class
// want the same, so it sorts the classes and then places each row, in
// row order, after the rows of every class that wants less: one counting
// pass over the rows. A NaN usage has no place in that order; then it
// reports false.
func (a *Arena) rankRows(r int, consumers []Consumer, want []float64) ([]demander, bool) {
	cs := a.cs[:0]
	for k, i := range a.rep {
		a.rank[k] = -1 // not demanding r
		if consumers[i].Demand[r] <= 0 {
			continue
		}
		if math.IsNaN(want[k]) {
			return nil, false
		}
		cs = append(cs, demander{k, want[k]})
	}
	a.cs = cs
	sortDemanders(cs, &a.srt)

	// rank[k] numbers the distinct usages in ascending order; at[q]
	// first counts the rows of rank q, then is where the next one goes.
	at := a.at[:0]
	n := int32(0)
	for j, c := range cs {
		if j == 0 || cs[j-1].desired < c.desired {
			at = append(at, n)
		}
		a.rank[c.idx] = int32(len(at) - 1)
		n += a.size[c.idx]
	}
	ds := a.ds[:n]
	for i, k := range a.cls {
		if k < 0 {
			continue
		}
		if q := a.rank[k]; q >= 0 {
			ds[at[q]] = demander{i, want[k]}
			at[q]++
		}
	}
	a.at = at
	return ds, true
}

// waterfill finds the usage level u such that every demander receives
// min(desired, u) per task and the resource is exactly full — or +Inf
// when even the full desires fit. Demanders come in ascending desired
// order and are peeled off while they are satisfied below the level.
func waterfill(capacity float64, consumers []Consumer, ds []demander) float64 {
	remaining := capacity
	tasks := 0
	for _, d := range ds {
		tasks += consumers[d.idx].Count
	}
	for _, d := range ds {
		cnt := float64(consumers[d.idx].Count)
		level := remaining / float64(tasks)
		if math.IsInf(d.desired, 1) || d.desired > level {
			return level
		}
		remaining -= cnt * d.desired
		tasks -= consumers[d.idx].Count
		if tasks == 0 {
			break
		}
	}
	return math.Inf(1) // all desires fit: resource not contended
}

// demander pairs a consumer index with its desired per-task usage.
type demander struct {
	idx     int
	desired float64
}

// sortScratch holds one sort's working buffers for reuse across calls.
type sortScratch struct {
	buf  []demander
	runs []int
}

// sortDemanders stably sorts ds ascending by desired. Stability keeps
// ties in index order (the order ds is built in), which pins the float
// evaluation order of the fill loop; any stable sort therefore yields
// the same sequence. It sorts a few rows, or the classes of many (see
// rankRows). It is a natural-run merge sort (hand-rolled:
// sort.SliceStable's reflective swapper would allocate on every call of
// this hot path): templated jobs produce equal desired values in long
// index-contiguous runs, so detecting non-decreasing runs first makes
// the common case near-linear.
func sortDemanders(ds []demander, sc *sortScratch) {
	n := len(ds)
	if n < 16 {
		for i := 1; i < n; i++ {
			for k := i; k > 0 && ds[k].desired < ds[k-1].desired; k-- {
				ds[k], ds[k-1] = ds[k-1], ds[k]
			}
		}
		return
	}

	// Run boundaries: runs[k]..runs[k+1] is non-decreasing (equal values
	// extend a run, so an already-sorted or few-classes input is cheap).
	runs := sc.runs[:0]
	runs = append(runs, 0)
	for i := 1; i < n; i++ {
		if ds[i].desired < ds[i-1].desired {
			runs = append(runs, i)
		}
	}
	runs = append(runs, n)
	sc.runs = runs
	if len(runs) == 2 {
		return // single run: already sorted
	}

	if cap(sc.buf) < n {
		sc.buf = make([]demander, n)
	}
	src, dst := ds, sc.buf[:n]
	for len(runs) > 2 {
		w := 0
		for k := 0; k+2 < len(runs); k += 2 {
			lo, mid, hi := runs[k], runs[k+1], runs[k+2]
			i, j := lo, mid
			for p := lo; p < hi; p++ {
				// Strict < on the right keeps equal keys left-first: stable.
				if j >= hi || (i < mid && !(src[j].desired < src[i].desired)) {
					dst[p] = src[i]
					i++
				} else {
					dst[p] = src[j]
					j++
				}
			}
			runs[w] = lo
			w++
		}
		if len(runs)%2 == 0 { // odd number of runs: last one carries over
			lo, hi := runs[len(runs)-2], runs[len(runs)-1]
			copy(dst[lo:hi], src[lo:hi])
			runs[w] = lo
			w++
		}
		runs[w] = n
		runs = runs[:w+1]
		src, dst = dst, src
	}
	if &src[0] != &ds[0] {
		copy(ds, src)
	}
}

func relDiff(a, b float64) float64 {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return 0
	}
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return 1
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return d / m
}

// EqualSplit is the naive μ(Δ)=1/Δ allocation used as an ablation
// baseline: each resource is split evenly among every task that demands
// it, regardless of whether the task can use its share. A task's rate is
// then the minimum over its demanded resources of share/demand, further
// clamped by its per-task cap.
func (a *Arena) EqualSplit(capacity [cluster.NumResources]units.Rate, consumers []Consumer) *Result {
	n := len(consumers)
	res := a.grow(n)
	var users [cluster.NumResources]int
	for _, c := range consumers {
		for r := 0; r < cluster.NumResources; r++ {
			if c.Demand[r] > 0 {
				users[r] += c.Count
			}
		}
	}
	for i, c := range consumers {
		res.Rate[i] = 0
		res.Bottleneck[i] = 0
		if c.Count <= 0 {
			continue
		}
		rate := math.Inf(1)
		bottleneck := c.CapResource
		if c.MaxRate > 0 {
			rate = c.MaxRate
		}
		for r := 0; r < cluster.NumResources; r++ {
			if c.Demand[r] <= 0 {
				continue
			}
			if capacity[r] <= 0 {
				rate, bottleneck = 0, cluster.Resource(r)
				break
			}
			share := float64(capacity[r]) / float64(users[r])
			v := share / c.Demand[r]
			if v < rate {
				rate, bottleneck = v, cluster.Resource(r)
			}
		}
		if math.IsInf(rate, 1) {
			rate = 0
		}
		res.Rate[i] = rate
		res.Bottleneck[i] = bottleneck
	}
	for r := 0; r < cluster.NumResources; r++ {
		if capacity[r] <= 0 {
			continue
		}
		var use float64
		for i, c := range consumers {
			use += float64(c.Count) * c.Demand[r] * res.Rate[i]
		}
		res.Utilization[r] = use / float64(capacity[r])
	}
	return res
}
