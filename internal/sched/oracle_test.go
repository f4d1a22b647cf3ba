package sched_test

import (
	"reflect"
	"testing"

	"boedag/internal/sched"
	"boedag/internal/sched/schedtest"
)

// The progressive fills (DRF and the Fair policy) are pinned to their
// scan oracles: same keys, same counts, map for map — a held job's
// zero entry included.

// checkFillOracles fails the test unless DRF and Fair reproduce their
// scan oracles exactly on the input.
func checkFillOracles(t *testing.T, label string, pool sched.Pool, reqs []sched.Request, held sched.Allocation) {
	t.Helper()
	if got, want := sched.DRF(pool, reqs, held), sched.DRFScan(pool, reqs, held); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: DRF %s (len %d), scan %s (len %d)", label,
			schedtest.FormatAllocation(got), len(got), schedtest.FormatAllocation(want), len(want))
	}
	if got, want := sched.Grant(sched.PolicyFair, pool, reqs, held), sched.FairScan(pool, reqs, held); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Fair %s (len %d), scan %s (len %d)", label,
			schedtest.FormatAllocation(got), len(got), schedtest.FormatAllocation(want), len(want))
	}
}

// edgeVariants derives the scenario's edge cases: zero pool dimensions,
// zero container shapes, zero and negative pending, caps at or below
// holdings, and every job holding containers.
func edgeVariants(r *schedtest.Rand, s schedtest.Scenario) map[string]schedtest.Scenario {
	clone := func() schedtest.Scenario {
		c := s
		c.Requests = append([]sched.Request(nil), s.Requests...)
		c.Held = sched.Allocation{}
		for id, h := range s.Held {
			c.Held[id] = h
		}
		return c
	}
	out := map[string]schedtest.Scenario{"base": s}
	for name, zero := range map[string]func(*sched.Pool){
		"no-memory": func(p *sched.Pool) { p.MemoryMB = 0 },
		"no-vcores": func(p *sched.Pool) { p.VCores = 0 },
		"no-slots":  func(p *sched.Pool) { p.Slots = 0 },
		"no-pool":   func(p *sched.Pool) { *p = sched.Pool{} },
	} {
		c := clone()
		zero(&c.Pool)
		out[name] = c
	}
	c := clone()
	for i := range c.Requests {
		switch r.Intn(3) {
		case 0:
			c.Requests[i].MemoryMB = 0
		case 1:
			c.Requests[i].VCores = 0
		}
	}
	out["zero-shapes"] = c
	c = clone()
	for i := range c.Requests {
		c.Requests[i].Pending = r.Intn(3) - 1 // −1, 0 or 1
	}
	out["tiny-pending"] = c
	c = clone()
	for i := range c.Requests {
		h := c.Held[c.Requests[i].JobID]
		c.Requests[i].Cap = h - 1 + r.Intn(3) // just below, at or above holdings
	}
	out["tight-caps"] = c
	c = clone()
	for _, q := range c.Requests {
		c.Held[q.JobID] = 1 + r.Intn(4)
	}
	out["all-held"] = c
	return out
}

// TestPropertyFillMatchesScan runs the oracle comparison over the seeded
// scenario corpus and every edge variant of it.
func TestPropertyFillMatchesScan(t *testing.T) {
	for seed := int64(0); seed < propertySeeds*2; seed++ {
		r := schedtest.New(seed)
		s := r.Scenario()
		for name, v := range edgeVariants(r, s) {
			checkFillOracles(t, name, v.Pool, v.Requests, v.Held)
		}
	}
}

// FuzzDRFMatchesScan drives DRF and Fair against their scan oracles
// with a generator scenario patched by the allocator fuzz's mutation
// stream (pools, pending, caps and holdings, including negative
// values), plus a bit mask that zeroes container shapes: bit 2i zeroes
// request i's memory, bit 2i+1 its vcores. Container shapes stay
// non-negative — the fills' precondition.
func FuzzDRFMatchesScan(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		f.Add(seed, []byte(nil), uint32(0))
		f.Add(seed, []byte{byte(seed), 0xff, 0x03, 10, 1, 70, 3, 2, 64}, uint32(0x5))
	}
	f.Fuzz(func(t *testing.T, seed int64, raw []byte, zero uint32) {
		s := schedtest.New(seed).Scenario()
		mutate(&s, raw)
		for i := range s.Requests {
			if i < 16 && zero>>(2*i)&1 != 0 {
				s.Requests[i].MemoryMB = 0
			}
			if i < 16 && zero>>(2*i+1)&1 != 0 {
				s.Requests[i].VCores = 0
			}
		}
		checkFillOracles(t, "fuzz", s.Pool, s.Requests, s.Held)
	})
}

// TestFillAllocatesNoMoreThanScan: per call, the heap fills allocate no
// more than the scans they replaced, whatever the job count.
func TestFillAllocatesNoMoreThanScan(t *testing.T) {
	for _, n := range []int{1, 4, 12, 40} {
		r := schedtest.New(int64(n))
		pool := r.Pool()
		reqs := r.Requests(n, nil)
		held := r.Held(pool, reqs)
		for _, c := range []struct {
			name      string
			fill, ref func(sched.Pool, []sched.Request, sched.Allocation) sched.Allocation
		}{
			{"drf", sched.DRF, sched.DRFScan},
			{"fair", func(p sched.Pool, q []sched.Request, h sched.Allocation) sched.Allocation {
				return sched.Grant(sched.PolicyFair, p, q, h)
			}, sched.FairScan},
		} {
			got := testing.AllocsPerRun(20, func() { c.fill(pool, reqs, held) })
			want := testing.AllocsPerRun(20, func() { c.ref(pool, reqs, held) })
			if got > want {
				t.Errorf("%s with %d jobs: %v allocs per call, scan %v", c.name, n, got, want)
			}
		}
	}
}
