package fairshare

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"boedag/internal/cluster"
	"boedag/internal/units"
	"boedag/internal/workload"
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
	res := new(Arena).Allocate(caps(8*50, 500, 500, 100), []Consumer{c})

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
	res := new(Arena).Allocate(caps(8*50, 500, 500, 100), []Consumer{c})

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
	fair := new(Arena).Allocate(cp, []Consumer{heavy, light})
	naive := new(Arena).EqualSplit(cp, []Consumer{heavy, light})

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

// TestTaskConsumer: a sub-stage's demand is its operations' bytes, and
// its cap is the tightest single-task ceiling — one core for CPU, the
// whole node's disks or NIC otherwise.
func TestTaskConsumer(t *testing.T) {
	node := cluster.NodeSpec{
		Cores: 6, CoreThroughput: 50 * units.MBps, Disks: 2,
		DiskReadRate: 100 * units.MBps, DiskWriteRate: 100 * units.MBps,
		NetworkRate: 100 * units.MBps, MemoryMB: 1024,
	}
	op := func(r cluster.Resource, b units.Bytes) workload.OpDemand {
		return workload.OpDemand{Resource: r, Bytes: b}
	}
	for _, c := range []struct {
		name    string
		ops     []workload.OpDemand
		maxRate float64
		capRes  cluster.Resource
	}{
		{"cpu binds", []workload.OpDemand{op(cluster.CPU, 100*units.MB), op(cluster.Network, 100*units.MB), op(cluster.DiskWrite, 0)}, 0.5, cluster.CPU},
		{"both disks bind", []workload.OpDemand{op(cluster.CPU, 10*units.MB), op(cluster.DiskRead, 1000*units.MB)}, 0.2, cluster.DiskRead},
		{"no work", nil, 0, cluster.CPU},
	} {
		got := TaskConsumer(node, c.ops, 3)
		var demand [cluster.NumResources]float64
		for _, o := range c.ops {
			demand[o.Resource] = float64(o.Bytes)
		}
		if got.Count != 3 || got.Demand != demand || got.CapResource != c.capRes ||
			math.Abs(got.MaxRate-c.maxRate) > 1e-12 {
			t.Errorf("%s: got %+v, want count 3, demand %v, cap %v on %v", c.name, got, demand, c.maxRate, c.capRes)
		}
	}
}

func TestPerTaskCapBinds(t *testing.T) {
	c := Consumer{Count: 2, MaxRate: 0.5, CapResource: cluster.CPU}
	c.Demand[cluster.CPU] = 10 * mb
	res := new(Arena).Allocate(caps(1000, 0, 0, 0), []Consumer{c})
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
	res := new(Arena).Allocate(caps(100, 100, 100, 0), []Consumer{c})
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
	res := new(Arena).Allocate(caps(100, 0, 0, 0), []Consumer{a, b})
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
	res := new(Arena).Allocate(caps(0, 0, 0, 60), []Consumer{a, b})
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
		res := new(Arena).Allocate(cp, consumers)
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
		res := new(Arena).Allocate(cp, consumers)
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
	res := new(Arena).EqualSplit(caps(0, 0, 0, 10), []Consumer{a})
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
	res := new(Arena).EqualSplit(caps(100, 0, 0, 0), []Consumer{a})
	if res.Rate[0] != 0 {
		t.Errorf("rate = %v, want 0", res.Rate[0])
	}
}

func TestEqualSplitRespectsCap(t *testing.T) {
	a := Consumer{Count: 1, MaxRate: 0.25, CapResource: cluster.CPU}
	a.Demand[cluster.CPU] = mb
	res := new(Arena).EqualSplit(caps(100, 0, 0, 0), []Consumer{a})
	if math.Abs(res.Rate[0]-0.25) > 1e-9 {
		t.Errorf("rate = %v, want cap 0.25", res.Rate[0])
	}
}

// TestDisjointResourceGroupsIndependent: consumer sets that share no
// resource do not affect each other, so solving them together gives the
// rates of solving each apart. This is what lets the node-aware
// simulator solve every node's pools on its own. Rates are compared, not
// bottleneck labels: at an exact tie between two bounds the solver's
// stopping rule may legitimately settle on either.
func TestDisjointResourceGroupsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Set a draws on CPU and disk reads, set b on the network and disk
	// writes.
	group := func(n int, rs ...cluster.Resource) []Consumer {
		cs := make([]Consumer, n)
		for i := range cs {
			cs[i].Count = rng.Intn(8) + 1
			for _, r := range rs {
				if rng.Intn(4) > 0 {
					cs[i].Demand[r] = rng.Float64()*100*mb + mb
				}
			}
			if rng.Intn(2) == 0 {
				cs[i].MaxRate, cs[i].CapResource = rng.Float64()*3+0.05, rs[rng.Intn(len(rs))]
			}
		}
		return cs
	}
	for tc := 0; tc < 200; tc++ {
		cp := caps(rng.Float64()*800+50, rng.Float64()*800+50, rng.Float64()*800+50, rng.Float64()*800+50)
		a := group(rng.Intn(5)+1, cluster.CPU, cluster.DiskRead)
		b := group(rng.Intn(5)+1, cluster.Network, cluster.DiskWrite)
		var joint, apart Arena
		together := joint.Allocate(cp, append(append([]Consumer(nil), a...), b...))
		for k, set := range [][]Consumer{a, b} {
			alone := apart.Allocate(cp, set)
			for i := range set {
				got, want := together.Rate[k*len(a)+i], alone.Rate[i]
				if math.Abs(got-want) > 1e-9*math.Max(math.Abs(got), math.Abs(want)) {
					t.Fatalf("case %d set %d consumer %d: rate %v solved together, %v apart", tc, k, i, got, want)
				}
			}
			for r := 0; r < cluster.NumResources; r++ {
				if alone.Utilization[r] == 0 {
					continue // the other set's resource
				}
				if got, want := together.Utilization[r], alone.Utilization[r]; math.Abs(got-want) > 1e-9*want {
					t.Fatalf("case %d set %d resource %d: utilization %v together, %v apart", tc, k, r, got, want)
				}
			}
		}
	}
}

// TestCapBindsOnCapResource: a network-capped consumer runs at its
// MaxRate with network as its bottleneck under both allocators, and the
// rates, bottlenecks and utilizations keep their exact bits.
func TestCapBindsOnCapResource(t *testing.T) {
	var capped, cpu Consumer
	capped.Count, capped.MaxRate, capped.CapResource = 4, 5, cluster.Network
	capped.Demand[cluster.CPU] = mb
	capped.Demand[cluster.Network] = mb
	cpu.Count = 2
	cpu.Demand[cluster.CPU] = 10 * mb
	consumers := []Consumer{capped, cpu}
	for _, c := range []struct {
		name           string
		res            *Result
		rate1, cpuUtil uint64
	}{
		{"allocate", new(Arena).Allocate(caps(400, 500, 500, 100), consumers),
			0x4033000000000000, 0x3ff0000000000000},
		{"equal-split", new(Arena).EqualSplit(caps(400, 500, 500, 100), consumers),
			0x401aaaaaaaaaaaab, 0x3fd8888888888889},
	} {
		res := c.res
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
