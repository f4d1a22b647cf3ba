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
	// rep[k] is class k's first row, tasks[k] its task count, bind[k]
	// what binds its rate (a resource, or capBind for its own cap) and
	// rate[k] the rate it wants in a fill.
	rep   []int32
	tasks []float64
	bind  []int8
	rate  []float64
	index []int32 // classify's open-addressed table: class + 1, 0 free
	memo  memo
	stats Stats
}

// Stats counts an arena's Allocate work.
type Stats struct {
	// Solves counts Allocate calls, MemoHits those answered from the
	// memo.
	Solves, MemoHits int64
	// Rebinds counts the rounds the other calls ran after their first
	// (each a pass of fills, a rebinding and an exact solve), Capped
	// those calls that stopped at maxRebinds without an exact answer.
	Rebinds, Capped int64
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
		a.tasks = make([]float64, 0, n)
		a.bind = make([]int8, 0, n)
		a.rate = make([]float64, n)
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
// equals the resource's level — the largest per-task usage of any
// consumer on r — and r is fully utilized. It is piecewise linear, and
// it is solved exactly from what binds each consumer: its own cap or
// one resource (see solve). The bottleneck named is the lowest resource
// whose level agrees with the consumer's rate to 1e-10, or its
// CapResource when its cap is the least of its bounds.
//
// Capacity entries that are zero mean "resource absent": any demand on an
// absent resource pins the consumer to rate zero, as does an infinite
// demand.
//
// An input equal to one the arena still remembers is answered with a
// copy of the remembered answer instead of being solved again.
func (a *Arena) Allocate(capacity [cluster.NumResources]units.Rate, consumers []Consumer) *Result {
	a.stats.Solves++
	if len(consumers) > memoMaxRows {
		return a.solve(capacity, consumers)
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
	res := a.solve(capacity, consumers)
	a.memo.insert(h, capacity, consumers, res)
	return res
}

const (
	// capBind binds a class to its own cap (or, with no cap and no
	// demand, leaves it unbounded).
	capBind = -1
	// maxRebinds bounds the rebinding rounds of one solve.
	maxRebinds = 64
	// bindTol is the relative margin by which a binding must be wrong
	// before it is changed, so that two resources saturating at the same
	// level (equal read and write pools) are not a violation.
	bindTol = 1e-10
)

// solve is Allocate without the memo. Rows with equal (Demand, MaxRate,
// CapResource) form one class and are solved once, in order of first
// appearance.
//
// Each round makes one pass of per-resource fills, in resource order:
// each resource is water-filled among its demanders, each wanting the
// rate its cap and the other resources' latest levels allow (+Inf before
// they have one). Each class is then bound where those levels bind it
// tightest, levels solves the binding resources' levels for those
// bindings exactly, and holds proves them the equilibrium. Until a round
// does, the next one fills on from the last fill's levels — the fill
// that, repeated, converges to the equilibrium on its own. The
// equilibrium need not be unique; this picks the one the repeated fill
// reaches. After maxRebinds rounds without one the solve keeps its last
// fill's levels, counted in Stats.Capped.
func (a *Arena) solve(capacity [cluster.NumResources]units.Rate, consumers []Consumer) *Result {
	n := len(consumers)
	res := a.grow(n)
	for i, c := range consumers {
		res.Rate[i] = 0
		res.Bottleneck[i] = c.CapResource
	}
	cls := a.classify(capacity, consumers)

	var u, exact [cluster.NumResources]float64
	for r := range u {
		u[r] = math.Inf(1)
	}
	for round := 0; ; round++ {
		for r := range u {
			u[r] = math.Inf(1)
			for k, i := range a.rep {
				_, a.rate[k] = tightest(&consumers[i], &u)
			}
			u[r] = a.fill(capacity, consumers, r)
		}
		for k, i := range a.rep {
			a.bind[k], _ = tightest(&consumers[i], &u)
		}
		if a.levels(capacity, consumers, &exact) && a.holds(capacity, consumers, &exact) {
			u = exact
			break
		}
		if round == maxRebinds {
			a.stats.Capped++
			break
		}
		a.stats.Rebinds++
	}

	for _, i := range a.rep {
		c := &consumers[i]
		rate := math.Inf(1)
		bn := c.CapResource
		if c.MaxRate > 0 {
			rate = c.MaxRate
		}
		byLevel := false
		for r, d := range c.Demand {
			if d > 0 && u[r]/d < rate {
				rate, bn, byLevel = u[r]/d, cluster.Resource(r), true
			}
		}
		if byLevel {
			// A level set the rate: name the lowest resource tied with it.
			for r := 0; r < int(bn); r++ {
				if x := u[r] / c.Demand[r]; c.Demand[r] > 0 && x-rate <= 1e-10*x && !math.IsInf(x, 1) {
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

	res.utilize(capacity, consumers)
	return res
}

// utilize sets each present resource's utilization from the rates: the
// use of the rows with a finite positive rate over its capacity.
func (res *Result) utilize(capacity [cluster.NumResources]units.Rate, consumers []Consumer) {
	for r := range res.Utilization {
		if capacity[r] <= 0 {
			continue
		}
		var use float64
		for i, c := range consumers {
			if x := res.Rate[i]; x > 0 && !math.IsInf(x, 1) {
				use += float64(c.Count) * c.Demand[r] * x
			}
		}
		res.Utilization[r] = use / float64(capacity[r])
	}
}

// fill water-fills resource r among the classes demanding it, class k
// wanting d_kr·rate[k]: it returns the level u at which
// Σ_k n_k·min(d_kr·rate[k], u) is r's capacity, or +Inf when every want
// fits. The level only rises as the classes wanting less are set aside,
// so a pass that sets aside no new one has found it.
func (a *Arena) fill(capacity [cluster.NumResources]units.Rate, consumers []Consumer, r int) float64 {
	level := 0.0
	for {
		rem, tasks := float64(capacity[r]), 0.0
		for k, i := range a.rep {
			if d := consumers[i].Demand[r]; d > 0 && d*a.rate[k] > level {
				tasks += a.tasks[k]
			} else if d > 0 {
				rem -= a.tasks[k] * d * a.rate[k]
			}
		}
		if tasks == 0 {
			return math.Inf(1)
		}
		next := rem / tasks
		if !(next > level) {
			return level
		}
		level = next
	}
}

// holds reports whether the levels u are the equilibrium for the
// bindings they were solved for: every level some class is bound by is
// positive, no class's cap or other binding resource holds it below its
// binding's rate by more than bindTol, and no resource that binds no
// class is over its capacity.
func (a *Arena) holds(capacity [cluster.NumResources]units.Rate, consumers []Consumer, u *[cluster.NumResources]float64) bool {
	for _, l := range u {
		if !(l > 0) {
			return false
		}
	}
	var use [cluster.NumResources]float64
	for k, i := range a.rep {
		c := &consumers[i]
		x := rateUnder(c, a.bind[k], u)
		if _, v := tightest(c, u); x > v*(1+bindTol) {
			return false
		}
		for r, d := range c.Demand {
			if d > 0 {
				use[r] += a.tasks[k] * d * x
			}
		}
	}
	for r, l := range u {
		if math.IsInf(l, 1) && use[r] > float64(capacity[r])*(1+bindTol) {
			return false
		}
	}
	return true
}

// rateUnder is the rate binding b gives c under levels u.
func rateUnder(c *Consumer, b int8, u *[cluster.NumResources]float64) float64 {
	if b >= 0 {
		return u[b] / c.Demand[b]
	}
	if c.MaxRate > 0 {
		return c.MaxRate
	}
	return math.Inf(1)
}

// tightest is the binding that gives c the least rate under levels u,
// and that rate: its cap or a resource it demands, the earliest (cap
// first) of those within bindTol of the least.
func tightest(c *Consumer, u *[cluster.NumResources]float64) (int8, float64) {
	least := rateUnder(c, capBind, u)
	for r, d := range c.Demand {
		if d > 0 && u[r]/d < least {
			least = u[r] / d
		}
	}
	lim := least * (1 + bindTol)
	if x := rateUnder(c, capBind, u); x <= lim {
		return capBind, x
	}
	for r, d := range c.Demand {
		if d > 0 && u[r]/d <= lim {
			return int8(r), u[r] / d
		}
	}
	return capBind, least // a NaN level; not reached
}

// levels solves the levels of the resources some class is bound by,
// given the bindings: for each such resource r,
//
//	Σ_{k bound by r} n_k·u_r + Σ_{other k demanding r} n_k·d_kr·x_k = C_r,
//
// where x_k is u_b/d_kb for a class bound by resource b, or its cap.
// Every other resource's level is +Inf. It reports false when the
// system is singular.
func (a *Arena) levels(capacity [cluster.NumResources]units.Rate, consumers []Consumer, u *[cluster.NumResources]float64) bool {
	const nr = cluster.NumResources
	var m [nr][nr + 1]float64
	var bound [nr]bool
	for _, b := range a.bind {
		if b >= 0 {
			bound[b] = true
		}
	}
	for r := range m {
		if bound[r] {
			m[r][nr] = float64(capacity[r])
		} else {
			m[r][r] = 1 // a free unknown, set to +Inf below
		}
	}
	for k, i := range a.rep {
		c, b := &consumers[i], a.bind[k]
		for r, d := range c.Demand {
			switch {
			case !bound[r] || d <= 0:
			case b >= 0:
				m[r][b] += a.tasks[k] * d / c.Demand[b]
			case c.MaxRate > 0:
				m[r][nr] -= a.tasks[k] * d * c.MaxRate
			}
		}
	}
	// Gaussian elimination with partial pivoting. A nearly singular
	// system needs no test of its own: levels that do not hold are
	// rejected by holds.
	for p := 0; p < nr; p++ {
		q := p
		for r := p + 1; r < nr; r++ {
			if math.Abs(m[r][p]) > math.Abs(m[q][p]) {
				q = r
			}
		}
		if m[q][p] == 0 {
			return false
		}
		m[p], m[q] = m[q], m[p]
		for r := p + 1; r < nr; r++ {
			if f := m[r][p] / m[p][p]; f != 0 {
				for j := p; j <= nr; j++ {
					m[r][j] -= f * m[p][j]
				}
			}
		}
	}
	for r := nr - 1; r >= 0; r-- {
		v := m[r][nr]
		for j := r + 1; j < nr; j++ {
			v -= m[r][j] * u[j]
		}
		u[r] = v / m[r][r]
	}
	for r := range u {
		if !bound[r] {
			u[r] = math.Inf(1)
		}
	}
	return true
}

// classify sorts the live rows into classes of equal (Demand, MaxRate,
// CapResource), in order of first appearance, with a hash table: one
// pass over the rows. A row is dead — cls -1, rate zero — when its
// group is empty or it demands an absent resource or infinite bytes of
// one, which then labels it.
func (a *Arena) classify(capacity [cluster.NumResources]units.Rate, consumers []Consumer) []int32 {
	cls := a.cls
	a.rep = a.rep[:0]
	a.tasks = a.tasks[:0]
	a.bind = a.bind[:0]
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
			if c.Demand[r] > 0 && (capacity[r] <= 0 || math.IsInf(c.Demand[r], 1)) {
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
				a.tasks[k] += float64(c.Count)
				continue rows
			}
		}
		cls[i] = int32(len(a.rep))
		index[s] = cls[i] + 1
		a.rep = append(a.rep, int32(i))
		a.tasks = append(a.tasks, float64(c.Count))
		a.bind = append(a.bind, capBind)
	}
	return cls
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
	res.utilize(capacity, consumers)
	return res
}
