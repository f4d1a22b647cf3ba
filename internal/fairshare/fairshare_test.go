package fairshare

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"boedag/internal/cluster"
	"boedag/internal/units"
)

// caps builds a capacity vector from (cpu, read, write, net) in MB/s.
func caps(cpu, read, write, net float64) [cluster.NumResources]units.Rate {
	var c [cluster.NumResources]units.Rate
	c[cluster.CPU] = units.Rate(cpu) * units.MBps
	c[cluster.DiskRead] = units.Rate(read) * units.MBps
	c[cluster.DiskWrite] = units.Rate(write) * units.MBps
	c[cluster.Network] = units.Rate(net) * units.MBps
	return c
}

const mb = float64(units.MB)

// TestFigure4SingleTask reproduces the paper's Figure 4(a): one task,
// 10 GB to read (500 MB/s), transfer (100 MB/s) and compute (50 MB/s per
// core): CPU-bound at 200 s, disk 10% and network 50% utilized.
func TestFigure4SingleTask(t *testing.T) {
	d := 10000 * mb
	c := Consumer{
		Count:       1,
		MaxRate:     (50 * mb) / d, // one core over the whole task
		CapResource: cluster.CPU,
	}
	c.Demand[cluster.DiskRead] = d
	c.Demand[cluster.Network] = d
	c.Demand[cluster.CPU] = d
	res := Allocate(caps(8*50, 500, 500, 100), []Consumer{c})

	taskTime := 1 / res.Rate[0]
	if math.Abs(taskTime-200) > 0.5 {
		t.Errorf("task time = %.1fs, want 200s (paper Figure 4a)", taskTime)
	}
	if res.Bottleneck[0] != cluster.CPU {
		t.Errorf("bottleneck = %s, want cpu", res.Bottleneck[0])
	}
	if got := res.Utilization[cluster.DiskRead]; math.Abs(got-0.10) > 0.005 {
		t.Errorf("disk utilization = %.2f, want 0.10", got)
	}
	if got := res.Utilization[cluster.Network]; math.Abs(got-0.50) > 0.005 {
		t.Errorf("network utilization = %.2f, want 0.50", got)
	}
}

// TestFigure4FiveTasks reproduces Figure 4(b): five such tasks become
// network-bound at 500 s each, with disk at 20% and network at 100%.
func TestFigure4FiveTasks(t *testing.T) {
	d := 10000 * mb
	c := Consumer{
		Count:       5,
		MaxRate:     (50 * mb) / d,
		CapResource: cluster.CPU,
	}
	c.Demand[cluster.DiskRead] = d
	c.Demand[cluster.Network] = d
	c.Demand[cluster.CPU] = d
	res := Allocate(caps(8*50, 500, 500, 100), []Consumer{c})

	taskTime := 1 / res.Rate[0]
	if math.Abs(taskTime-500) > 1 {
		t.Errorf("task time = %.1fs, want 500s (paper Figure 4b)", taskTime)
	}
	if res.Bottleneck[0] != cluster.Network {
		t.Errorf("bottleneck = %s, want network", res.Bottleneck[0])
	}
	if got := res.Utilization[cluster.DiskRead]; math.Abs(got-0.20) > 0.005 {
		t.Errorf("disk utilization = %.2f, want 0.20", got)
	}
	if got := res.Utilization[cluster.Network]; math.Abs(got-1.0) > 0.005 {
		t.Errorf("network utilization = %.2f, want 1.0", got)
	}
}

// TestLightUserNotPenalized: a consumer demanding little CPU must not be
// slowed to the heavy consumer's share — the property equal-split gets
// wrong and progressive filling gets right.
func TestLightUserNotPenalized(t *testing.T) {
	heavy := Consumer{Count: 10}
	heavy.Demand[cluster.CPU] = 100 * mb
	light := Consumer{Count: 1}
	light.Demand[cluster.CPU] = 1 * mb
	light.Demand[cluster.Network] = 100 * mb

	cp := caps(500, 1000, 1000, 100)
	fair := Allocate(cp, []Consumer{heavy, light})
	naive := EqualSplit(cp, []Consumer{heavy, light})

	// The light consumer should be network-bound under max-min fairness.
	if fair.Bottleneck[1] != cluster.Network {
		t.Errorf("light consumer bottleneck = %s, want network", fair.Bottleneck[1])
	}
	if fair.Rate[1] < naive.Rate[1] {
		t.Errorf("max-min rate %.4f < equal-split rate %.4f for light consumer",
			fair.Rate[1], naive.Rate[1])
	}
	// Max-min should give the light consumer (nearly) the full network.
	wantRate := 100 * mb / (100 * mb) // 1 task-unit per second
	if fair.Rate[1] < 0.9*wantRate {
		t.Errorf("light consumer rate = %.4f, want ≈ %.4f", fair.Rate[1], wantRate)
	}
}

func TestPerTaskCapBinds(t *testing.T) {
	c := Consumer{Count: 2, MaxRate: 0.5, CapResource: cluster.CPU}
	c.Demand[cluster.CPU] = 10 * mb
	res := Allocate(caps(1000, 0, 0, 0), []Consumer{c})
	if math.Abs(res.Rate[0]-0.5) > 1e-9 {
		t.Errorf("rate = %v, want cap 0.5", res.Rate[0])
	}
	if res.Bottleneck[0] != cluster.CPU {
		t.Errorf("bottleneck = %s, want cap resource cpu", res.Bottleneck[0])
	}
}

func TestAbsentResourcePinsConsumer(t *testing.T) {
	c := Consumer{Count: 1}
	c.Demand[cluster.Network] = mb
	res := Allocate(caps(100, 100, 100, 0), []Consumer{c})
	if res.Rate[0] != 0 {
		t.Errorf("rate = %v, want 0 for absent resource", res.Rate[0])
	}
	if res.Bottleneck[0] != cluster.Network {
		t.Errorf("bottleneck = %s, want network", res.Bottleneck[0])
	}
}

func TestZeroCountConsumerIgnored(t *testing.T) {
	a := Consumer{Count: 0}
	a.Demand[cluster.CPU] = mb
	b := Consumer{Count: 1}
	b.Demand[cluster.CPU] = mb
	res := Allocate(caps(100, 0, 0, 0), []Consumer{a, b})
	if res.Rate[0] != 0 {
		t.Errorf("zero-count consumer got rate %v", res.Rate[0])
	}
	if res.Rate[1] <= 0 {
		t.Errorf("real consumer starved: rate %v", res.Rate[1])
	}
}

func TestTwoGroupsShareBottleneckEqually(t *testing.T) {
	a := Consumer{Count: 3}
	a.Demand[cluster.Network] = mb
	b := Consumer{Count: 3}
	b.Demand[cluster.Network] = mb
	res := Allocate(caps(0, 0, 0, 60), []Consumer{a, b})
	if math.Abs(res.Rate[0]-res.Rate[1]) > 1e-9 {
		t.Errorf("equal consumers got different rates: %v vs %v", res.Rate[0], res.Rate[1])
	}
	// 6 tasks sharing 60 MB/s at 1 MB per unit → 10 units/s each.
	if math.Abs(res.Rate[0]-10) > 1e-6 {
		t.Errorf("rate = %v, want 10", res.Rate[0])
	}
	if math.Abs(res.Utilization[cluster.Network]-1) > 1e-9 {
		t.Errorf("network utilization = %v, want 1", res.Utilization[cluster.Network])
	}
}

// Property: no resource is ever allocated beyond its capacity.
func TestAllocateNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cp := caps(rng.Float64()*1000+1, rng.Float64()*1000+1,
			rng.Float64()*1000+1, rng.Float64()*1000+1)
		n := rng.Intn(6) + 1
		consumers := make([]Consumer, n)
		for i := range consumers {
			consumers[i].Count = rng.Intn(20) + 1
			for r := 0; r < cluster.NumResources; r++ {
				if rng.Intn(2) == 0 {
					consumers[i].Demand[r] = rng.Float64() * 100 * mb
				}
			}
			if rng.Intn(2) == 0 {
				consumers[i].MaxRate = rng.Float64()*2 + 0.01
			}
		}
		res := Allocate(cp, consumers)
		for r := 0; r < cluster.NumResources; r++ {
			if res.Utilization[r] > 1+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property (fair-queueing equilibrium): every consumer with a finite
// positive rate is either at its own per-task cap, or its bottleneck
// resource is (nearly) saturated AND its per-task usage there is maximal
// among that resource's users — nobody with a smaller share is ahead of
// it.
func TestAllocateMaxMinProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cp := caps(rng.Float64()*500+50, rng.Float64()*500+50,
			rng.Float64()*500+50, rng.Float64()*500+50)
		n := rng.Intn(5) + 1
		consumers := make([]Consumer, n)
		for i := range consumers {
			consumers[i].Count = rng.Intn(10) + 1
			got := false
			for r := 0; r < cluster.NumResources; r++ {
				if rng.Intn(2) == 0 {
					consumers[i].Demand[r] = rng.Float64()*50*mb + mb
					got = true
				}
			}
			if !got {
				consumers[i].Demand[cluster.CPU] = mb
			}
			consumers[i].MaxRate = rng.Float64()*5 + 0.1
			consumers[i].CapResource = cluster.CPU
		}
		res := Allocate(cp, consumers)
		for i, c := range consumers {
			rate := res.Rate[i]
			if rate <= 0 || math.IsInf(rate, 1) {
				continue
			}
			if c.MaxRate > 0 && rate >= c.MaxRate*(1-1e-6) {
				continue // at own cap
			}
			bn := res.Bottleneck[i]
			if c.Demand[bn] <= 0 {
				return false // bottlenecked on a resource it does not use
			}
			if res.Utilization[bn] < 1-1e-6 {
				return false // bottlenecked on an unsaturated resource
			}
			// Per-task usage at the bottleneck must be maximal there.
			myUse := c.Demand[bn] * rate
			for j, other := range consumers {
				if j == i || res.Rate[j] <= 0 || math.IsInf(res.Rate[j], 1) {
					continue
				}
				if other.Demand[bn]*res.Rate[j] > myUse*(1+1e-6) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEqualSplitUtilization(t *testing.T) {
	a := Consumer{Count: 2}
	a.Demand[cluster.Network] = mb
	res := EqualSplit(caps(0, 0, 0, 10), []Consumer{a})
	if math.Abs(res.Rate[0]-5) > 1e-9 {
		t.Errorf("equal-split rate = %v, want 5", res.Rate[0])
	}
	if math.Abs(res.Utilization[cluster.Network]-1) > 1e-9 {
		t.Errorf("utilization = %v, want 1", res.Utilization[cluster.Network])
	}
}

func TestEqualSplitAbsentResource(t *testing.T) {
	a := Consumer{Count: 1}
	a.Demand[cluster.DiskRead] = mb
	res := EqualSplit(caps(100, 0, 0, 0), []Consumer{a})
	if res.Rate[0] != 0 {
		t.Errorf("rate = %v, want 0", res.Rate[0])
	}
}

func TestEqualSplitRespectsCap(t *testing.T) {
	a := Consumer{Count: 1, MaxRate: 0.25, CapResource: cluster.CPU}
	a.Demand[cluster.CPU] = mb
	res := EqualSplit(caps(100, 0, 0, 0), []Consumer{a})
	if math.Abs(res.Rate[0]-0.25) > 1e-9 {
		t.Errorf("rate = %v, want cap 0.25", res.Rate[0])
	}
}

// TestVecMatchesScalarOnSameProblem: AllocateVec on a 4-resource space
// must agree with the fixed-width Allocate.
func TestVecMatchesScalarOnSameProblem(t *testing.T) {
	cp := caps(300, 200, 200, 125)
	a := Consumer{Count: 6, MaxRate: 0.4, CapResource: cluster.CPU}
	a.Demand[cluster.CPU] = 100 * mb
	a.Demand[cluster.DiskRead] = 128 * mb
	b := Consumer{Count: 4}
	b.Demand[cluster.Network] = 80 * mb
	b.Demand[cluster.DiskWrite] = 100 * mb

	scalar := Allocate(cp, []Consumer{a, b})

	vcaps := make([]float64, cluster.NumResources)
	for r := 0; r < cluster.NumResources; r++ {
		vcaps[r] = float64(cp[r])
	}
	toVec := func(c Consumer) VecConsumer {
		v := VecConsumer{Count: c.Count, MaxRate: c.MaxRate, Demand: make([]float64, cluster.NumResources)}
		copy(v.Demand, c.Demand[:])
		return v
	}
	vec := AllocateVec(vcaps, []VecConsumer{toVec(a), toVec(b)})
	for i := range scalar.Rate {
		if math.Abs(vec.Rate[i]-scalar.Rate[i]) > 1e-9*math.Max(1, scalar.Rate[i]) {
			t.Errorf("consumer %d: vec rate %v != scalar rate %v", i, vec.Rate[i], scalar.Rate[i])
		}
	}
	for r := 0; r < cluster.NumResources; r++ {
		if math.Abs(vec.Utilization[r]-scalar.Utilization[r]) > 1e-9 {
			t.Errorf("resource %d: utilization %v != %v", r, vec.Utilization[r], scalar.Utilization[r])
		}
	}
}

func TestVecDisjointResourceGroupsIndependent(t *testing.T) {
	// Two "nodes" with private CPU pools: each group saturates its own.
	caps := []float64{100, 100}
	a := VecConsumer{Count: 2, Demand: []float64{10, 0}}
	b := VecConsumer{Count: 5, Demand: []float64{0, 10}}
	res := AllocateVec(caps, []VecConsumer{a, b})
	if math.Abs(res.Rate[0]-5) > 1e-9 { // 100/(2×10)
		t.Errorf("group a rate %v, want 5", res.Rate[0])
	}
	if math.Abs(res.Rate[1]-2) > 1e-9 { // 100/(5×10)
		t.Errorf("group b rate %v, want 2", res.Rate[1])
	}
	if res.Bottleneck[0] != 0 || res.Bottleneck[1] != 1 {
		t.Errorf("bottlenecks = %v", res.Bottleneck)
	}
}

func TestVecAbsentResourceAndCaps(t *testing.T) {
	caps := []float64{0, 100}
	dead := VecConsumer{Count: 1, Demand: []float64{1, 0}}
	capped := VecConsumer{Count: 1, Demand: []float64{0, 1}, MaxRate: 3}
	res := AllocateVec(caps, []VecConsumer{dead, capped})
	if res.Rate[0] != 0 {
		t.Errorf("dead consumer rate %v", res.Rate[0])
	}
	if res.Rate[1] != 3 {
		t.Errorf("capped consumer rate %v, want its cap 3", res.Rate[1])
	}
	if res.Bottleneck[1] != -1 {
		t.Errorf("cap bottleneck index = %d, want -1", res.Bottleneck[1])
	}
}

func TestVecShortDemandSlices(t *testing.T) {
	caps := []float64{50, 50, 50}
	c := VecConsumer{Count: 1, Demand: []float64{10}} // shorter than caps
	res := AllocateVec(caps, []VecConsumer{c})
	if math.Abs(res.Rate[0]-5) > 1e-9 {
		t.Errorf("rate = %v, want 5", res.Rate[0])
	}
	if res.Utilization[1] != 0 || res.Utilization[2] != 0 {
		t.Error("unused resources show utilization")
	}
}

// TestBoundAttributesCapToCapResource: a network-capped consumer's
// MaxRate bounds its network column, not its CPU column, under both
// allocators — and attributing it moves no bit of the rates,
// bottlenecks or utilizations.
func TestBoundAttributesCapToCapResource(t *testing.T) {
	var capped, cpu Consumer
	capped.Count, capped.MaxRate, capped.CapResource = 4, 5, cluster.Network
	capped.Demand[cluster.CPU] = mb
	capped.Demand[cluster.Network] = mb
	cpu.Count = 2
	cpu.Demand[cluster.CPU] = 10 * mb
	consumers := []Consumer{capped, cpu}
	inf := math.Inf(1)
	for _, c := range []struct {
		name           string
		res            Result
		bound          [cluster.NumResources]float64
		rate1, cpuUtil uint64 // bits before the cap was attributed
	}{
		{"allocate", Allocate(caps(400, 500, 500, 100), consumers),
			[cluster.NumResources]float64{190, inf, inf, 5}, 0x4033000000000000, 0x3ff0000000000000},
		{"equal-split", EqualSplit(caps(400, 500, 500, 100), consumers),
			[cluster.NumResources]float64{400.0 / 6, inf, inf, 5}, 0x401aaaaaaaaaaaab, 0x3fd8888888888889},
	} {
		res := c.res
		if res.Bound[0] != c.bound {
			t.Errorf("%s: capped consumer bounds %v, want %v", c.name, res.Bound[0], c.bound)
		}
		if math.Float64bits(res.Rate[0]) != 0x4014000000000000 || res.Bottleneck[0] != cluster.Network {
			t.Errorf("%s: capped consumer rate %v on %v, want 5 on network", c.name, res.Rate[0], res.Bottleneck[0])
		}
		if math.Float64bits(res.Rate[1]) != c.rate1 || res.Bottleneck[1] != cluster.CPU {
			t.Errorf("%s: cpu consumer rate %#x on %v, want %#x on cpu", c.name, math.Float64bits(res.Rate[1]), res.Bottleneck[1], c.rate1)
		}
		if math.Float64bits(res.Utilization[cluster.CPU]) != c.cpuUtil ||
			math.Float64bits(res.Utilization[cluster.Network]) != 0x3fc999999999999a ||
			res.Utilization[cluster.DiskRead] != 0 || res.Utilization[cluster.DiskWrite] != 0 {
			t.Errorf("%s: utilization %v", c.name, res.Utilization)
		}
	}
}
