package sched_test

import (
	"fmt"
	"testing"

	"boedag/internal/sched"
	"boedag/internal/sched/schedtest"
)

// FuzzHierarchyAllocate drives AllocateHierarchy with a generator
// scenario (the property-suite corpus seeds it) plus a raw mutation
// stream that patches pools, quotas, limits, weights, holdings, and
// queue names — including nonsense values far outside the valid
// envelope. The contract under fuzz: never panic, never loop forever;
// and whenever the mutated input is still well-formed, the full
// hierarchical invariant suite must hold (grants ≤ pending, allocation
// ≤ capacity, limits, evictions ⊆ held).
func FuzzHierarchyAllocate(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		f.Add(seed, []byte(nil))
		f.Add(seed, []byte{byte(seed), 0xff, 0x03, 7, 9, 200, 1, 0, 0})
	}
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		r := schedtest.New(seed)
		s := r.Scenario()
		mutate(&s, raw)

		h := s.Hierarchy
		if s.Specs != nil {
			var err error
			h, err = sched.NewHierarchy(s.Specs)
			if err != nil {
				return // invalid trees are NewHierarchy's to reject, not ours to allocate
			}
			s.Hierarchy = h
		}
		res := sched.AllocateHierarchy(s.Pool, h, s.Requests, s.Held)
		if !sane(s) {
			return // garbage in: only the no-panic/termination contract applies
		}
		if err := schedtest.CheckHierarchy(s, res); err != nil {
			t.Fatalf("seed %d raw %x: %v", seed, raw, err)
		}
	})
}

// mutate applies the raw byte stream as patch ops over the scenario.
func mutate(s *schedtest.Scenario, raw []byte) {
	for i := 0; i+2 < len(raw); i += 3 {
		op, idx, val := raw[i], int(raw[i+1]), int(raw[i+2])
		switch op % 12 {
		case 0:
			s.Pool.Slots = val - 64
		case 1:
			s.Pool.MemoryMB = (val - 64) * 1024
		case 2:
			s.Pool.VCores = val - 64
		case 3:
			if len(s.Requests) > 0 {
				s.Requests[idx%len(s.Requests)].Pending = val - 64
			}
		case 4:
			if len(s.Requests) > 0 {
				s.Requests[idx%len(s.Requests)].Cap = val - 64
			}
		case 5:
			// Once a gang size; a no-op, so existing inputs keep their meaning.
		case 6:
			if len(s.Requests) > 0 {
				s.Requests[idx%len(s.Requests)].Queue = fmt.Sprintf("q%d", val%8)
			}
		case 7:
			if len(s.Specs) > 0 {
				s.Specs[idx%len(s.Specs)].Quota.Slots = val - 64
			}
		case 8:
			if len(s.Specs) > 0 {
				s.Specs[idx%len(s.Specs)].Limit.Slots = val - 64
			}
		case 9:
			if len(s.Specs) > 0 {
				s.Specs[idx%len(s.Specs)].Weight = float64(val-64) / 8
			}
		case 10:
			if len(s.Requests) > 0 {
				id := s.Requests[idx%len(s.Requests)].JobID
				if s.Held == nil {
					s.Held = sched.Allocation{}
				}
				s.Held[id] = val - 64
			}
		case 11:
			if len(s.Requests) > 0 {
				s.Requests[idx%len(s.Requests)].Predicted = float64(val-64) * 3.5
			}
		}
	}
}

// sane reports whether the mutated scenario is still a well-formed
// allocator input (the envelope the invariant checks are stated over).
func sane(s schedtest.Scenario) bool {
	for _, q := range s.Requests {
		if q.MemoryMB < 0 || q.VCores < 0 || q.Pending < 0 || q.Cap < 0 {
			return false
		}
	}
	if s.Pool.MemoryMB < 0 || s.Pool.VCores < 0 || s.Pool.Slots < 0 {
		return false
	}
	// Held must be consistent: non-negative, within caps, within the pool.
	mem, cpu, slots := 0, 0, 0
	for _, q := range s.Requests {
		h := s.Held[q.JobID]
		if h < 0 || (q.Cap > 0 && h > q.Cap) {
			return false
		}
		mem += h * q.MemoryMB
		cpu += h * q.VCores
		slots += h
	}
	if s.Pool.MemoryMB > 0 && mem > s.Pool.MemoryMB ||
		s.Pool.VCores > 0 && cpu > s.Pool.VCores ||
		s.Pool.Slots > 0 && slots > s.Pool.Slots {
		return false
	}
	return true
}
