package fairshare

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"boedag/internal/cluster"
	"boedag/internal/units"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// referenceAllocate is the solver the exact solve replaced, kept as a
// reference: the row-by-row Gauss-Seidel waterfill with no memo and no
// per-class sharing, on fresh buffers every call. Each sweep water-fills
// every resource's usage among its demanders, each bringing the rate
// ceiling its other resources and its cap impose, until no bound moves
// by more than 1e-10 — or, after a sweep in which a bound flipped
// between +Inf and a finite value (two resources tied at one level), no
// rate does.
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
	var ds []refDemander
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
				ds = append(ds, refDemander{i, c.Demand[r] * ceiling(i, r)})
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
				if !dead[i] && relDiff(refRate(&consumers[i], &bound[i]), refRate(&consumers[i], &before[i])) > 1e-10 {
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

// relDiff is |a−b| relative to the larger of the two; two +Inf agree.
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

// refDemander pairs a consumer index with its desired per-task usage.
type refDemander struct {
	idx     int
	desired float64
}

// referenceWaterfill finds the usage level u such that every demander
// receives min(desired, u) per task and the resource is exactly full —
// or +Inf when even the full desires fit: a stable sort of the rows by
// desired usage, then the row-by-row peel.
func referenceWaterfill(capacity float64, consumers []Consumer, ds []refDemander) float64 {
	sort.SliceStable(ds, func(a, b int) bool { return ds[a].desired < ds[b].desired })
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

// refRate is the rate bounds b and its own cap allow consumer c: the
// least of them.
func refRate(c *Consumer, b *[cluster.NumResources]float64) float64 {
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

// closeResult reports the first field where got and want differ by
// more than tol relative, or "" when they agree: rates and
// utilizations to tol, and bottleneck labels exactly, unless want's
// label is as good an answer for got's rates as got's own — a resource
// tied at the row's level (see checkEquilibrium).
func closeResult(capacity [cluster.NumResources]units.Rate, consumers []Consumer, got, want *Result, tol float64) string {
	if len(got.Rate) != len(want.Rate) || len(got.Bottleneck) != len(want.Bottleneck) {
		return "length"
	}
	for i := range want.Rate {
		if relDiff(got.Rate[i], want.Rate[i]) > tol {
			return fmt.Sprintf("rate %d (%v vs %v)", i, got.Rate[i], want.Rate[i])
		}
	}
	for r := range want.Utilization {
		if relDiff(got.Utilization[r], want.Utilization[r]) > tol {
			return fmt.Sprintf("utilization %d (%v vs %v)", r, got.Utilization[r], want.Utilization[r])
		}
	}
	for i := range want.Bottleneck {
		if got.Bottleneck[i] == want.Bottleneck[i] {
			continue
		}
		tied := Result{Rate: got.Rate, Bottleneck: append([]cluster.Resource(nil), got.Bottleneck...), Utilization: got.Utilization}
		tied.Bottleneck[i] = want.Bottleneck[i]
		if checkEquilibrium(capacity, consumers, &tied, tol) != "" {
			return fmt.Sprintf("bottleneck %d (%v vs %v)", i, got.Bottleneck[i], want.Bottleneck[i])
		}
	}
	return ""
}

// checkEquilibrium reports the first way res is not the fair-share
// equilibrium of the input to tol relative, or "" when it is:
//   - no resource is used beyond its capacity, and Utilization says how
//     much is used;
//   - every live row below its own cap is labelled with a resource it
//     demands that is saturated, and its usage there is that resource's
//     level: the usage every row labelled with it shares;
//   - no row's usage on a resource exceeds that resource's level.
//
// A row at its cap may carry its CapResource instead. Dead rows (an
// empty group, or a demand on an absent resource or of infinite bytes)
// run at rate zero, and a live row that demands nothing and has no cap
// runs unbounded.
func checkEquilibrium(capacity [cluster.NumResources]units.Rate, consumers []Consumer, res *Result, tol float64) string {
	var use, level [cluster.NumResources]float64
	live := make([]bool, len(consumers))
	for i, c := range consumers {
		live[i] = c.Count > 0
		for r := range c.Demand {
			if c.Demand[r] > 0 && (capacity[r] <= 0 || math.IsInf(c.Demand[r], 1)) {
				live[i] = false
			}
		}
		x := res.Rate[i]
		if !live[i] {
			if x != 0 {
				return fmt.Sprintf("dead row %d runs at %v", i, x)
			}
			continue
		}
		if math.IsInf(x, 1) {
			if c.MaxRate > 0 || c.Demand != ([cluster.NumResources]float64{}) {
				return fmt.Sprintf("row %d runs unbounded", i)
			}
			continue
		}
		if !(x >= 0) || (c.MaxRate > 0 && x > c.MaxRate*(1+tol)) {
			return fmt.Sprintf("row %d runs at %v, cap %v", i, x, c.MaxRate)
		}
		for r, d := range c.Demand {
			use[r] += float64(c.Count) * d * x
		}
	}
	for r := range use {
		if capacity[r] <= 0 {
			continue
		}
		cp := float64(capacity[r])
		if use[r] > cp*(1+tol) {
			return fmt.Sprintf("resource %d used %v beyond capacity %v", r, use[r], cp)
		}
		if math.Abs(res.Utilization[r]-use[r]/cp) > tol*math.Max(1, use[r]/cp) {
			return fmt.Sprintf("resource %d utilization %v, used %v", r, res.Utilization[r], use[r]/cp)
		}
	}
	// atCap reports whether row i's label is its own cap.
	atCap := func(i int) bool {
		c := &consumers[i]
		return c.MaxRate > 0 && res.Bottleneck[i] == c.CapResource && res.Rate[i] >= c.MaxRate*(1-tol)
	}
	for i, c := range consumers {
		if !live[i] || math.IsInf(res.Rate[i], 1) || atCap(i) {
			continue
		}
		r := res.Bottleneck[i]
		if c.Demand[r] <= 0 || use[r] < float64(capacity[r])*(1-tol) {
			return fmt.Sprintf("row %d below its cap is labelled %v, which it does not demand or is not saturated", i, r)
		}
		level[r] = math.Max(level[r], c.Demand[r]*res.Rate[i])
	}
	for i, c := range consumers {
		if !live[i] || math.IsInf(res.Rate[i], 1) {
			continue
		}
		for r, d := range c.Demand {
			u := d * res.Rate[i]
			if level[r] > 0 && u > level[r]*(1+tol) {
				return fmt.Sprintf("row %d uses %v of resource %d, above its level %v", i, u, r, level[r])
			}
			if !atCap(i) && cluster.Resource(r) == res.Bottleneck[i] && u < level[r]*(1-tol) {
				return fmt.Sprintf("row %d uses %v of its bottleneck %d, below its level %v", i, u, r, level[r])
			}
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
// sequence. Every answer must be the fair-share equilibrium to 1e-9
// (checkEquilibrium) and agree with a fresh Gauss-Seidel reference
// solve to 1e-9 relative, label for label: the arena's reused buffers
// and anything it keeps between calls must never show in the numbers.
func TestAllocateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	caps, rows := solveSequence(rng, 3000)
	var a Arena
	for k := range rows {
		checkSolve(t, fmt.Sprintf("step %d", k), &a, caps[k], rows[k])
	}
}

// TestAllocateGolden pins the solver's answers to solveSequence's seeded
// 3,000 inputs bit for bit, on one warm arena: the hash of each block of
// 100 answers (every rate, label and utilization) is held in
// testdata/allocate_sequence.golden. The reference and the equilibrium
// checker allow any answer within 1e-9; this catches the edits that move
// low-order bits, which every golden downstream would then show.
// Regenerate with -update when such a move is meant.
func TestAllocateGolden(t *testing.T) {
	caps, rows := solveSequence(rand.New(rand.NewSource(18)), 3000)
	var a Arena
	var b strings.Builder
	h := sha256.New()
	for k := range rows {
		res := a.Allocate(caps[k], rows[k])
		for i := range res.Rate {
			binary.Write(h, binary.LittleEndian, math.Float64bits(res.Rate[i]))
			h.Write([]byte{byte(res.Bottleneck[i])})
		}
		for _, u := range res.Utilization {
			binary.Write(h, binary.LittleEndian, math.Float64bits(u))
		}
		if k%100 == 99 {
			fmt.Fprintf(&b, "steps %d-%d %x\n", k-99, k, h.Sum(nil)[:8])
			h.Reset()
		}
	}
	path := filepath.Join("testdata", "allocate_sequence.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	got := strings.Split(b.String(), "\n")
	for i, w := range strings.Split(string(want), "\n") {
		if i >= len(got) || got[i] != w {
			t.Fatalf("%s line %d: answers moved; got %q, want %q", path, i+1, got[min(i, len(got)-1)], w)
		}
	}
}

// checkSolve solves one input on a and holds the answer to the
// equilibrium checker and to the reference, both at 1e-9.
func checkSolve(t *testing.T, name string, a *Arena, capacity [cluster.NumResources]units.Rate, consumers []Consumer) {
	t.Helper()
	got := a.Allocate(capacity, consumers)
	if bad := checkEquilibrium(capacity, consumers, got, 1e-9); bad != "" {
		t.Fatalf("%s: not an equilibrium: %s\ncapacity %v\nconsumers %+v\ngot %+v", name, bad, capacity, consumers, *got)
	}
	want := referenceAllocate(capacity, consumers)
	if diff := closeResult(capacity, consumers, got, want, 1e-9); diff != "" {
		t.Fatalf("%s: %s differs from the reference\ncapacity %v\nconsumers %+v\ngot %+v\nwant %+v",
			name, diff, capacity, consumers, *got, *want)
	}
}

// TestInfiniteDemandRunsAtZero: a row demanding infinite bytes of a
// resource can never progress, so it runs at rate zero, labelled with
// the first such resource, and takes no share from the others: they get
// what they get without it, an equilibrium.
func TestInfiniteDemandRunsAtZero(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cp := caps(800, 400, 400, 200)
	for tc := 0; tc < 50; tc++ {
		cs := make([]Consumer, 16+rng.Intn(16))
		var finite []Consumer
		for i := range cs {
			cs[i].Count = 1 + rng.Intn(4)
			for r := range cs[i].Demand {
				if rng.Intn(2) == 0 {
					cs[i].Demand[r] = float64(1+rng.Intn(4)) * mb
				}
			}
			if rng.Intn(4) == 0 {
				cs[i].Demand[cluster.CPU] = math.Inf(1)
				cs[i].Demand[1+rng.Intn(cluster.NumResources-1)] = math.Inf(1)
			} else {
				finite = append(finite, cs[i])
			}
		}
		var a, b Arena
		got, alone := a.Allocate(cp, cs), b.Allocate(cp, finite)
		if bad := checkEquilibrium(cp, cs, got, 1e-9); bad != "" {
			t.Fatalf("case %d: not an equilibrium: %s", tc, bad)
		}
		j := 0
		for i, c := range cs {
			if math.IsInf(c.Demand[cluster.CPU], 1) {
				if got.Rate[i] != 0 || got.Bottleneck[i] != cluster.CPU {
					t.Fatalf("case %d row %d: rate %v on %v, want 0 on cpu", tc, i, got.Rate[i], got.Bottleneck[i])
				}
				continue
			}
			if got.Rate[i] != alone.Rate[j] || got.Bottleneck[i] != alone.Bottleneck[j] {
				t.Fatalf("case %d row %d: rate %v on %v, %v on %v without the infinite rows",
					tc, i, got.Rate[i], got.Bottleneck[i], alone.Rate[j], alone.Bottleneck[j])
			}
			j++
		}
	}
}

// FuzzAllocateMatchesReference is TestAllocateMatchesReference over
// fuzzed seeds and sequence lengths: every solve must pass the
// equilibrium checker and agree with the reference, both at 1e-9.
func FuzzAllocateMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 2, 18, 99} {
		f.Add(seed, uint8(40))
	}
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		caps, rows := solveSequence(rand.New(rand.NewSource(seed)), int(steps)+1)
		var a Arena
		for k := range rows {
			checkSolve(t, fmt.Sprintf("step %d", k), &a, caps[k], rows[k])
		}
	})
}
