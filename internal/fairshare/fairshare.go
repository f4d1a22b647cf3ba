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
// resource pool per event). The Result returned by its methods aliases
// the arena and is only valid until the next call. A zero Arena is
// ready to use, and the numbers do not depend on what it solved before.
type Arena struct {
	res   Result
	bound [][cluster.NumResources]float64
	dead  []bool
	ds    []demander
	srt   sortScratch
}

// grow resizes the result buffers for n consumers and clears the fields
// that are not unconditionally rewritten below.
func (a *Arena) grow(n int) *Result {
	res := &a.res
	if cap(res.Rate) < n {
		res.Rate = make([]float64, n)
		res.Bottleneck = make([]cluster.Resource, n)
		a.bound = make([][cluster.NumResources]float64, n)
		a.dead = make([]bool, n)
	}
	res.Rate = res.Rate[:n]
	res.Bottleneck = res.Bottleneck[:n]
	a.bound = a.bound[:n]
	a.dead = a.dead[:n]
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
func (a *Arena) Allocate(capacity [cluster.NumResources]units.Rate, consumers []Consumer) *Result {
	n := len(consumers)
	res := a.grow(n)

	// bound[i][r] is the rate ceiling resource r imposes on consumer i
	// (+Inf when r is not demanded or not yet constraining).
	bound := a.bound
	dead := a.dead // demands an absent resource, or empty group
	for i, c := range consumers {
		res.Rate[i] = 0
		res.Bottleneck[i] = c.CapResource
		dead[i] = false
		for r := 0; r < cluster.NumResources; r++ {
			bound[i][r] = math.Inf(1)
		}
		if c.Count <= 0 {
			dead[i] = true
			continue
		}
		for r := 0; r < cluster.NumResources; r++ {
			if c.Demand[r] > 0 && float64(capacity[r]) <= 0 {
				dead[i] = true
				res.Bottleneck[i] = cluster.Resource(r)
				break
			}
		}
	}

	// ceiling(i, excluding r): the rate consumer i could sustain if
	// resource r were infinite.
	ceiling := func(i, excl int) float64 {
		c := consumers[i]
		lim := math.Inf(1)
		if c.MaxRate > 0 {
			lim = c.MaxRate
		}
		for r := 0; r < cluster.NumResources; r++ {
			if r == excl || c.Demand[r] <= 0 {
				continue
			}
			if b := bound[i][r]; b < lim {
				lim = b
			}
		}
		return lim
	}

	const maxIters = 200
	ds := a.ds[:0] // reused across iterations and calls: hot path
	for iter := 0; iter < maxIters; iter++ {
		change := 0.0
		for r := 0; r < cluster.NumResources; r++ {
			cap := float64(capacity[r])
			if cap <= 0 {
				continue
			}
			ds = ds[:0]
			for i, c := range consumers {
				if dead[i] || c.Demand[r] <= 0 {
					continue
				}
				ds = append(ds, demander{i, c.Demand[r] * ceiling(i, r)})
			}
			if len(ds) == 0 {
				continue
			}
			level := waterfill(cap, consumers, ds, &a.srt)
			for _, d := range ds {
				nb := level / consumers[d.idx].Demand[r]
				old := bound[d.idx][r]
				if diff := relDiff(nb, old); diff > change {
					change = diff
				}
				bound[d.idx][r] = nb
			}
		}
		if change < 1e-10 {
			break
		}
	}

	a.ds = ds
	for i, c := range consumers {
		if dead[i] {
			res.Rate[i] = 0
			continue
		}
		rate := math.Inf(1)
		bn := c.CapResource
		if c.MaxRate > 0 {
			rate = c.MaxRate
		}
		for r := 0; r < cluster.NumResources; r++ {
			if c.Demand[r] <= 0 {
				continue
			}
			if b := bound[i][r]; b < rate {
				rate, bn = b, cluster.Resource(r)
			}
		}
		res.Rate[i] = rate
		res.Bottleneck[i] = bn
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

// waterfill finds the usage level u such that every demander receives
// min(desired, u) per task and the resource is exactly full — or +Inf
// when even the full desires fit. Demanders are processed in ascending
// desired order, peeling off those satisfied below the level.
func waterfill(capacity float64, consumers []Consumer, ds []demander, srt *sortScratch) float64 {
	sortDemanders(ds, srt)
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
// ties in consumer-index order (the order ds is built in), which pins
// the float evaluation order of the fill loop; any stable sort
// therefore yields the same sequence. It is a natural-run merge sort
// (hand-rolled: sort.SliceStable's reflective swapper would allocate on
// every call of this hot path): large DAG states put hundreds of
// groups on one resource, but templated jobs produce equal desired
// values in long index-contiguous runs, so detecting non-decreasing
// runs first makes the common case near-linear instead of the
// quadratic insertion sort that used to dominate estimator profiles.
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
