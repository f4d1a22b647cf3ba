package fairshare

import (
	"math"
	"math/rand"
	"testing"

	"boedag/internal/cluster"
	"boedag/internal/units"
)

// referenceAllocate is the oracle the solver must match bit for bit: the
// row-by-row Gauss-Seidel waterfill with no memo and no per-class
// sharing, on fresh buffers every call.
func referenceAllocate(capacity [cluster.NumResources]units.Rate, consumers []Consumer) *Result {
	n := len(consumers)
	res := &Result{
		Rate:       make([]float64, n),
		Bottleneck: make([]cluster.Resource, n),
	}

	// bound[i][r] is the rate ceiling resource r imposes on consumer i
	// (+Inf when r is not demanded or not yet constraining).
	bound := make([][cluster.NumResources]float64, n)
	dead := make([]bool, n) // demands an absent resource, or empty group
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
	var ds []demander
	before := make([][cluster.NumResources]float64, n)
	for iter := 0; iter < maxIters; iter++ {
		copy(before, bound)
		change, flipped := 0.0, false
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
			level := referenceWaterfill(cap, consumers, ds)
			for _, d := range ds {
				nb := level / consumers[d.idx].Demand[r]
				old := bound[d.idx][r]
				if diff := relDiff(nb, old); diff > change {
					change = diff
				}
				flipped = flipped || math.IsInf(nb, 1) != math.IsInf(old, 1)
				bound[d.idx][r] = nb
			}
		}
		if change < 1e-10 {
			break
		}
		if flipped {
			// A bound flipped between +Inf and a finite value: stop if
			// no live consumer's rate moved.
			moved := false
			for i := range consumers {
				if !dead[i] && relDiff(rateOf(&consumers[i], &bound[i]), rateOf(&consumers[i], &before[i])) > 1e-10 {
					moved = true
				}
			}
			if !moved {
				break
			}
		}
	}

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
		byBound := false
		for r := 0; r < cluster.NumResources; r++ {
			if c.Demand[r] <= 0 {
				continue
			}
			if b := bound[i][r]; b < rate {
				rate, bn, byBound = b, cluster.Resource(r), true
			}
		}
		if byBound {
			// A bound set the rate: name the lowest resource tied with it.
			for r := 0; r < int(bn); r++ {
				if c.Demand[r] > 0 && relDiff(bound[i][r], rate) <= 1e-10 {
					bn = cluster.Resource(r)
					break
				}
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

// referenceWaterfill is the oracle's fill: a stable sort of the rows by
// desired usage, then the row-by-row peel. The sort is sortDemanders
// (pinned to sort.SliceStable in sort_test.go): with a NaN usage the
// order is not a total one, and stable sorts may then disagree.
func referenceWaterfill(capacity float64, consumers []Consumer, ds []demander) float64 {
	sortDemanders(ds, new(sortScratch))
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
	return math.Inf(1)
}

// sameResult reports the first field where got and want differ in any
// bit, or "" when they are identical.
func sameResult(got, want *Result) string {
	if len(got.Rate) != len(want.Rate) || len(got.Bottleneck) != len(want.Bottleneck) {
		return "length"
	}
	for i := range want.Rate {
		if math.Float64bits(got.Rate[i]) != math.Float64bits(want.Rate[i]) {
			return "rate"
		}
		if got.Bottleneck[i] != want.Bottleneck[i] {
			return "bottleneck"
		}
	}
	for r := range want.Utilization {
		if math.Float64bits(got.Utilization[r]) != math.Float64bits(want.Utilization[r]) {
			return "utilization"
		}
	}
	return ""
}

// solveSequence draws a sequence of allocation inputs shaped like the
// estimator's and the simulator's: rows drawn from a few templates (so
// many rows share a class), repeated earlier inputs, duplicated and
// permuted rows, empty groups, absent resources, and read/write pairs
// of equal capacity and equal demand that tie two bottlenecks.
func solveSequence(rng *rand.Rand, steps int) (caps [][cluster.NumResources]units.Rate, rows [][]Consumer) {
	for k := 0; k < steps; k++ {
		if k > 0 && rng.Intn(4) == 0 {
			// An earlier input again, exactly, or with its rows shuffled
			// or one of them duplicated.
			j := rng.Intn(k)
			cs := append([]Consumer(nil), rows[j]...)
			switch rng.Intn(3) {
			case 1:
				rng.Shuffle(len(cs), func(a, b int) { cs[a], cs[b] = cs[b], cs[a] })
			case 2:
				cs = append(cs, cs[rng.Intn(len(cs))])
			}
			caps, rows = append(caps, caps[j]), append(rows, cs)
			continue
		}
		var cp [cluster.NumResources]units.Rate
		for r := range cp {
			cp[r] = units.Rate(1+rng.Intn(8)) * 256 * units.MBps
		}
		if rng.Intn(2) == 0 {
			cp[cluster.DiskWrite] = cp[cluster.DiskRead]
		}
		if rng.Intn(8) == 0 {
			cp[rng.Intn(cluster.NumResources)] = 0 // absent resource
		}
		templates := make([]Consumer, 1+rng.Intn(5))
		for t := range templates {
			c := &templates[t]
			for r := range c.Demand {
				if rng.Intn(3) > 0 {
					c.Demand[r] = float64(1+rng.Intn(16)) * 16 * mb
				}
			}
			if rng.Intn(2) == 0 {
				c.Demand[cluster.DiskWrite] = c.Demand[cluster.DiskRead]
			}
			if rng.Intn(3) > 0 {
				c.MaxRate = float64(cp[cluster.CPU]) / 8 / (c.Demand[cluster.CPU] + mb)
				c.CapResource = cluster.Resource(rng.Intn(cluster.NumResources))
			}
		}
		n := 1 + rng.Intn(12)
		if rng.Intn(4) == 0 {
			n = 16 + rng.Intn(64) // a large state, past the memo's row limit at times
		}
		cs := make([]Consumer, n)
		for i := range cs {
			cs[i] = templates[rng.Intn(len(templates))]
			cs[i].Count = rng.Intn(40)
			if rng.Intn(6) == 0 {
				cs[i].Count = 0 // empty group
			}
		}
		caps, rows = append(caps, cp), append(rows, cs)
	}
	return caps, rows
}

// TestAllocateMatchesReference feeds one warm arena a long seeded
// sequence and holds every answer to a fresh reference solve, bit for
// bit: the arena's reused buffers and anything it keeps between calls
// must never show in the numbers.
func TestAllocateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	caps, rows := solveSequence(rng, 3000)
	var a Arena
	for k := range rows {
		got := a.Allocate(caps[k], rows[k])
		if diff := sameResult(got, referenceAllocate(caps[k], rows[k])); diff != "" {
			t.Fatalf("step %d: %s differs from the reference\ncapacity %v\nconsumers %+v\ngot %+v\nwant %+v",
				k, diff, caps[k], rows[k], *got, *referenceAllocate(caps[k], rows[k]))
		}
	}
}

// TestInfiniteDemandMatchesReference: infinite demands make a desired
// usage of ∞·0 = NaN, which has no place in a sorted order; the solver
// must still order and fill the rows as the reference does.
func TestInfiniteDemandMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cp := caps(800, 400, 400, 200)
	for tc := 0; tc < 50; tc++ {
		cs := make([]Consumer, 16+rng.Intn(16))
		for i := range cs {
			cs[i].Count = 1 + rng.Intn(4)
			for r := range cs[i].Demand {
				if rng.Intn(2) == 0 {
					cs[i].Demand[r] = float64(1+rng.Intn(4)) * mb
				}
			}
			if rng.Intn(4) == 0 {
				// Infinite on two resources: the bound one gives is 0, and
				// the other's desire is then ∞·0.
				cs[i].Demand[cluster.CPU] = math.Inf(1)
				cs[i].Demand[1+rng.Intn(cluster.NumResources-1)] = math.Inf(1)
			}
		}
		var a Arena
		if diff := sameResult(a.Allocate(cp, cs), referenceAllocate(cp, cs)); diff != "" {
			t.Fatalf("case %d: %s differs from the reference", tc, diff)
		}
	}
}

// FuzzAllocateMatchesReference is TestAllocateMatchesReference over
// fuzzed seeds and sequence lengths.
func FuzzAllocateMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 2, 18, 99} {
		f.Add(seed, uint8(40))
	}
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		caps, rows := solveSequence(rand.New(rand.NewSource(seed)), int(steps)+1)
		var a Arena
		for k := range rows {
			got := a.Allocate(caps[k], rows[k])
			if diff := sameResult(got, referenceAllocate(caps[k], rows[k])); diff != "" {
				t.Fatalf("step %d: %s differs from the reference", k, diff)
			}
		}
	})
}
