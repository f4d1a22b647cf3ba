package schedtest

import (
	"fmt"
	"sort"

	"boedag/internal/sched"
)

// The Check helpers assert the allocator invariants every policy must
// satisfy. They are deliberately independent re-derivations — they
// recompute usage from the specs and the result, never peeking at the
// allocator's internals — so a bug in the allocator cannot hide in a
// shared helper. Both the property suite and FuzzHierarchyAllocate call
// them; a future policy inherits the whole contract by being run
// through the same checks.

// CheckGrants asserts the basics every allocation must satisfy:
// non-negative grants, grants ≤ pending, held+grant ≤ cap, and total
// usage (held + granted) within the pool on every axis.
func CheckGrants(pool sched.Pool, reqs []sched.Request, held, grant sched.Allocation) error {
	byID := make(map[string]sched.Request, len(reqs))
	for _, r := range reqs {
		byID[r.JobID] = r
	}
	mem, cpu, slots := 0, 0, 0
	for id, g := range grant {
		r, ok := byID[id]
		if !ok {
			return fmt.Errorf("grant for unknown job %q", id)
		}
		if g < 0 {
			return fmt.Errorf("job %s: negative grant %d", id, g)
		}
		if g > r.Pending {
			return fmt.Errorf("job %s: grant %d exceeds pending %d", id, g, r.Pending)
		}
		if r.Cap > 0 && g+held[id] > r.Cap {
			return fmt.Errorf("job %s: held %d + grant %d exceeds cap %d", id, held[id], g, r.Cap)
		}
	}
	for _, r := range reqs {
		n := grant[r.JobID] + held[r.JobID]
		mem += n * r.MemoryMB
		cpu += n * r.VCores
		slots += n
	}
	if pool.MemoryMB > 0 && mem > pool.MemoryMB {
		return fmt.Errorf("memory over-committed: %d > %d", mem, pool.MemoryMB)
	}
	if pool.VCores > 0 && cpu > pool.VCores {
		return fmt.Errorf("vcores over-committed: %d > %d", cpu, pool.VCores)
	}
	if pool.Slots > 0 && slots > pool.Slots {
		return fmt.Errorf("slots over-committed: %d > %d", slots, pool.Slots)
	}
	return nil
}

// CheckWorkConservation asserts no capacity sits idle while a request
// still wants a container that would fit.
func CheckWorkConservation(pool sched.Pool, reqs []sched.Request, held, grant sched.Allocation) error {
	mem, cpu, slots := 0, 0, 0
	for _, r := range reqs {
		n := grant[r.JobID] + held[r.JobID]
		mem += n * r.MemoryMB
		cpu += n * r.VCores
		slots += n
	}
	for _, r := range reqs {
		g := grant[r.JobID]
		if g >= r.Pending {
			continue
		}
		if r.Cap > 0 && g+held[r.JobID] >= r.Cap {
			continue
		}
		fits := true
		if pool.MemoryMB > 0 && mem+r.MemoryMB > pool.MemoryMB {
			fits = false
		}
		if pool.VCores > 0 && cpu+r.VCores > pool.VCores {
			fits = false
		}
		if pool.Slots > 0 && slots+1 > pool.Slots {
			fits = false
		}
		if fits {
			return fmt.Errorf("job %s wants a container that fits (grant %d < pending %d) yet capacity idles",
				r.JobID, g, r.Pending)
		}
	}
	return nil
}

// chain resolves a queue's parent chain (leaf first) from the raw specs.
func chain(specs []sched.QueueSpec, queue string) []sched.QueueSpec {
	byName := make(map[string]sched.QueueSpec, len(specs))
	for _, sp := range specs {
		byName[sp.Name] = sp
	}
	var out []sched.QueueSpec
	for name := queue; name != ""; {
		sp, ok := byName[name]
		if !ok {
			break // unknown queue → root
		}
		out = append(out, sp)
		name = sp.Parent
	}
	return out
}

// CheckHierarchy asserts the hierarchical contract over a full result:
// the CheckGrants basics net of evictions, evictions only of held
// containers (and none at all without a hierarchy), chain hard limits
// respected by the final usage.
func CheckHierarchy(s Scenario, res sched.HierResult) error {
	// Net holdings: held − evicted (evictions free capacity).
	net := sched.Allocation{}
	for id, h := range s.Held {
		net[id] = h
	}
	for id, ev := range res.Evict {
		if ev < 0 {
			return fmt.Errorf("job %s: negative eviction %d", id, ev)
		}
		if ev > s.Held[id] {
			return fmt.Errorf("job %s: evicted %d > held %d", id, ev, s.Held[id])
		}
		if s.Hierarchy == nil {
			return fmt.Errorf("flat scheduling evicted job %s", id)
		}
		net[id] -= ev
	}
	if err := CheckGrants(s.Pool, s.Requests, net, res.Grants); err != nil {
		return err
	}
	// Chain hard limits: limits gate new grants, not containers already
	// held before the call (an operator can lower a limit under running
	// work; the allocator must not grant past it, but reclaiming it is
	// the quota machinery's job, not the limit's). So final usage must
	// stay within max(limit, held usage) on every axis.
	usage := map[string][3]int{}
	heldUsage := map[string][3]int{}
	for _, r := range s.Requests {
		n := res.Grants[r.JobID] + net[r.JobID]
		h := net[r.JobID]
		for _, sp := range chain(s.Specs, r.Queue) {
			u := usage[sp.Name]
			usage[sp.Name] = [3]int{u[0] + n*r.MemoryMB, u[1] + n*r.VCores, u[2] + n}
			hu := heldUsage[sp.Name]
			heldUsage[sp.Name] = [3]int{hu[0] + h*r.MemoryMB, hu[1] + h*r.VCores, hu[2] + h}
		}
	}
	max := func(a, b int) int {
		if a > b {
			return a
		}
		return b
	}
	for _, sp := range s.Specs {
		u, hu := usage[sp.Name], heldUsage[sp.Name]
		if sp.Limit.MemoryMB > 0 && u[0] > max(sp.Limit.MemoryMB, hu[0]) {
			return fmt.Errorf("queue %s: memory %d over limit %d", sp.Name, u[0], sp.Limit.MemoryMB)
		}
		if sp.Limit.VCores > 0 && u[1] > max(sp.Limit.VCores, hu[1]) {
			return fmt.Errorf("queue %s: vcores %d over limit %d", sp.Name, u[1], sp.Limit.VCores)
		}
		if sp.Limit.Slots > 0 && u[2] > max(sp.Limit.Slots, hu[2]) {
			return fmt.Errorf("queue %s: slots %d over limit %d", sp.Name, u[2], sp.Limit.Slots)
		}
	}
	return nil
}

// CheckQuotaSafeEviction asserts preemption never cut into guaranteed
// work. Work is guaranteed only when *every* queue on its chain declares
// a quota and holds headroom (a quota-less queue's demand is over-quota
// by definition, even under a quota'd parent — the allocator's
// quotaHeadroom semantics). So for every evicted job, either some chain
// queue lacks a quota, or restoring one container would push some chain
// queue over its quota.
func CheckQuotaSafeEviction(s Scenario, res sched.HierResult) error {
	usage := map[string][3]int{}
	for _, r := range s.Requests {
		n := res.Grants[r.JobID] + s.Held[r.JobID] - res.Evict[r.JobID]
		for _, sp := range chain(s.Specs, r.Queue) {
			u := usage[sp.Name]
			usage[sp.Name] = [3]int{u[0] + n*r.MemoryMB, u[1] + n*r.VCores, u[2] + n}
		}
	}
	for _, r := range s.Requests {
		if res.Evict[r.JobID] == 0 {
			continue
		}
		ch := chain(s.Specs, r.Queue)
		if len(ch) == 0 {
			return fmt.Errorf("job %s: root-held container evicted", r.JobID)
		}
		protected := true
		for _, sp := range ch {
			q := sp.Quota
			if q.MemoryMB == 0 && q.VCores == 0 && q.Slots == 0 {
				protected = false // quota-less queue: over-quota by definition
				break
			}
			u := usage[sp.Name]
			if q.MemoryMB > 0 && u[0]+r.MemoryMB > q.MemoryMB ||
				q.VCores > 0 && u[1]+r.VCores > q.VCores ||
				q.Slots > 0 && u[2]+1 > q.Slots {
				protected = false // restoring would breach this quota
				break
			}
		}
		if protected {
			return fmt.Errorf("job %s: eviction cut into quota (restoring one container stays in quota)", r.JobID)
		}
	}
	return nil
}

// Permute returns a deterministic permutation of the requests drawn from
// the generator — for the determinism-across-input-orders property.
func (r *Rand) Permute(reqs []sched.Request) []sched.Request {
	out := append([]sched.Request(nil), reqs...)
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// FormatAllocation renders an allocation deterministically for equality
// messages.
func FormatAllocation(a sched.Allocation) string {
	ids := make([]string, 0, len(a))
	for id := range a {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	s := ""
	for _, id := range ids {
		s += fmt.Sprintf("%s=%d ", id, a[id])
	}
	return s
}
