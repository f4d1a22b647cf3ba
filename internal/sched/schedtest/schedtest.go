// Package schedtest generates seeded random scheduler scenarios — pools,
// queue hierarchies, request sets, held allocations, and arrival streams
// — for the property-based invariant suite, the metamorphic policy
// tests, and the fuzz corpus. Every generator is a pure function of the
// seed (splitmix64, no math/rand), so a failing case reproduces from its
// seed alone and the same corpus is identical on every platform.
//
// Future policies inherit the whole suite for free: generate a Scenario,
// allocate under the new policy, and assert the shared invariants
// (Check* helpers below).
package schedtest

import (
	"fmt"

	"boedag/internal/sched"
)

// Rand is a splitmix64 sequence generator.
type Rand struct{ state uint64 }

// New seeds a generator.
func New(seed int64) *Rand {
	return &Rand{state: uint64(seed)*0x2545f4914f6cdd1d + 0x9e3779b97f4a7c15}
}

// Uint64 advances the sequence.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	x := r.state
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Intn draws from [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 draws from [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Pool draws a sane cluster pool: 4–64 nodes of 8–64 GB and 4–16 slots.
func (r *Rand) Pool() sched.Pool {
	nodes := 4 + r.Intn(61)
	memPerNode := (8 + r.Intn(57)) * 1024
	slotsPerNode := 4 + r.Intn(13)
	return sched.Pool{
		MemoryMB: nodes * memPerNode,
		VCores:   nodes * slotsPerNode,
		Slots:    nodes * slotsPerNode,
	}
}

// Queues draws a valid two-level queue tree: 1–4 parents under the root,
// each with 0–3 children. Roughly half the queues carry slot quotas,
// weights draw from {1,2,4}, and an occasional hard limit appears.
func (r *Rand) Queues(pool sched.Pool) []sched.QueueSpec {
	var specs []sched.QueueSpec
	parents := 1 + r.Intn(4)
	for p := 0; p < parents; p++ {
		parent := fmt.Sprintf("org%d", p)
		specs = append(specs, r.queueSpec(parent, "", pool))
		for c, n := 0, r.Intn(4); c < n; c++ {
			specs = append(specs, r.queueSpec(fmt.Sprintf("%s.team%d", parent, c), parent, pool))
		}
	}
	return specs
}

func (r *Rand) queueSpec(name, parent string, pool sched.Pool) sched.QueueSpec {
	sp := sched.QueueSpec{Name: name, Parent: parent, Weight: float64(uint(1) << r.Intn(3))}
	if r.Intn(2) == 0 && pool.Slots > 0 {
		sp.Quota = sched.QueueLimit{Slots: 1 + r.Intn(pool.Slots/2+1)}
	}
	if r.Intn(4) == 0 && pool.Slots > 0 {
		sp.Limit = sched.QueueLimit{Slots: 1 + r.Intn(pool.Slots)}
	}
	return sp
}

// Requests draws n job requests shaped like the estimator's: container
// sizes from the usual YARN grid, pending counts spanning under- and
// over-subscription, occasional caps, and predictions. Queue
// names reference the given specs (some requests stay at the root).
func (r *Rand) Requests(n int, specs []sched.QueueSpec) []sched.Request {
	reqs := make([]sched.Request, n)
	for i := range reqs {
		reqs[i] = sched.Request{
			JobID:    fmt.Sprintf("job-%02d", i),
			MemoryMB: (1 + r.Intn(8)) * 1024,
			VCores:   1 + r.Intn(4),
			Pending:  1 + r.Intn(200),
			Order:    i,
		}
		if r.Intn(4) == 0 {
			reqs[i].Cap = 1 + r.Intn(32)
		}
		if r.Intn(5) == 0 {
			r.Intn(8) // a retired draw (gang sizes), kept so every seeded corpus stays the same
		}
		if r.Intn(2) == 0 {
			reqs[i].Predicted = 10 + 990*r.Float64()
		}
		if len(specs) > 0 && r.Intn(3) != 0 {
			reqs[i].Queue = specs[r.Intn(len(specs))].Name
		}
	}
	return reqs
}

// Held draws an existing allocation over a subset of the requests — a
// consistent one: within each job's cap and within the pool (a real
// scheduler can only have handed out what existed), small enough to
// leave capacity contention interesting.
func (r *Rand) Held(pool sched.Pool, reqs []sched.Request) sched.Allocation {
	held := sched.Allocation{}
	mem, cpu, slots := 0, 0, 0
	for _, q := range reqs {
		if r.Intn(3) != 0 {
			continue
		}
		n := 1 + r.Intn(8)
		if q.Pending < n {
			n = q.Pending
		}
		if q.Cap > 0 && q.Cap < n {
			n = q.Cap
		}
		for n > 0 {
			if pool.MemoryMB > 0 && mem+n*q.MemoryMB > pool.MemoryMB ||
				pool.VCores > 0 && cpu+n*q.VCores > pool.VCores ||
				pool.Slots > 0 && slots+n > pool.Slots {
				n--
				continue
			}
			break
		}
		if n == 0 {
			continue
		}
		held[q.JobID] = n
		mem += n * q.MemoryMB
		cpu += n * q.VCores
		slots += n
	}
	if len(held) == 0 {
		return nil
	}
	return held
}

// Scenario is one complete allocator input.
type Scenario struct {
	Pool      sched.Pool
	Specs     []sched.QueueSpec
	Hierarchy *sched.Hierarchy // nil in roughly a quarter of scenarios (flat)
	Requests  []sched.Request
	Held      sched.Allocation
}

// Scenario draws a full allocator input from the seed.
func (r *Rand) Scenario() Scenario {
	s := Scenario{Pool: r.Pool()}
	if r.Intn(4) != 0 {
		s.Specs = r.Queues(s.Pool)
		h, err := sched.NewHierarchy(s.Specs)
		if err != nil {
			panic(err) // generator bug: Queues must always be valid
		}
		s.Hierarchy = h
	}
	s.Requests = r.Requests(1+r.Intn(12), s.Specs)
	s.Held = r.Held(s.Pool, s.Requests)
	return s
}

// Stream draws n arriving jobs with estimator-shaped work, predictions
// proportional to work (the honest-estimator baseline), and deadlines on
// roughly half.
func (r *Rand) Stream(n int, pool sched.Pool) []sched.StreamJob {
	jobs := make([]sched.StreamJob, n)
	now := 0.0
	for i := range jobs {
		now += 30 * r.Float64()
		maxPar := 1 + r.Intn(pool.Slots)
		work := float64(maxPar) * (20 + 580*r.Float64())
		j := sched.StreamJob{
			ID:             fmt.Sprintf("wf-%03d", i),
			Submit:         now,
			Work:           work,
			MaxParallelism: maxPar,
			MemoryMB:       (1 + r.Intn(4)) * 1024,
			VCores:         1,
			Predicted:      work / float64(maxPar),
		}
		if r.Intn(2) == 0 {
			j.Deadline = j.Submit + j.Predicted*(1.5+6*r.Float64())
		}
		jobs[i] = j
	}
	return jobs
}
