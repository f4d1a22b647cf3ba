package sched

import (
	"fmt"
	"sort"
	"strings"
)

// This file grows the flat DRF model into the hierarchical scheduler a
// production resource manager actually runs (YARN's Capacity Scheduler,
// KAI-Scheduler's queue controller): a tree of named queues, each with a
// quota (its deserved, guaranteed capacity), an over-quota weight (its
// share of whatever the guaranteed tiers leave idle), and an optional
// hard limit. Allocation proceeds in three phases:
//
//  1. In-quota: containers go one at a time to the lowest-dominant-share
//     job whose whole queue chain still has quota headroom — every
//     queue's guarantee is honored before anyone goes over.
//  2. Over-quota: remaining capacity goes to the lowest
//     weight-normalized dominant share, so idle capacity splits between
//     over-quota queues in proportion to their weights.
//  3. Reclaim: when held containers (running work) exhaust the pool and
//     an in-quota job is starved, over-quota holders are preempted —
//     victims ordered by longest predicted remaining time first (the
//     estimator-guided rule; without predictions, youngest submission
//     first). Intra-quota work is never evicted.
//
// The whole thing is a pure deterministic function of its inputs. Its
// one caller is RunStream, the multi-tenant stream simulator behind
// /v1/schedule and the scheduling study, which preempts the running
// tasks it is told to evict.

// QueueLimit bounds one queue's resources. A zero component is
// unlimited; a zero value as a Quota means "no guarantee". Components
// are never negative (NewHierarchy rejects them).
type QueueLimit struct {
	MemoryMB int
	VCores   int
	Slots    int
}

// zero reports whether no component is set.
func (q QueueLimit) zero() bool { return q.MemoryMB == 0 && q.VCores == 0 && q.Slots == 0 }

// negative reports whether some component is below zero.
func (q QueueLimit) negative() bool { return q.MemoryMB < 0 || q.VCores < 0 || q.Slots < 0 }

// QueueSpec declares one queue of the hierarchy.
type QueueSpec struct {
	// Name identifies the queue; requests reference it via Request.Queue.
	Name string
	// Parent names the enclosing queue ("" = directly under the root).
	Parent string
	// Quota is the queue's guaranteed capacity: demand inside the quota is
	// satisfied before any queue's over-quota demand, and running work
	// inside it is never preempted. Zero = no guarantee.
	Quota QueueLimit
	// Weight scales the queue's share of over-quota capacity relative to
	// its siblings (default 1).
	Weight float64
	// Limit hard-caps the queue subtree (zero components = unlimited).
	Limit QueueLimit
}

// queueNode is one resolved queue. Nodes carry no mutable state:
// usage accumulators live in the per-call hierState (indexed by id), so
// one Hierarchy may serve concurrent AllocateHierarchy calls.
type queueNode struct {
	spec   QueueSpec
	parent *queueNode
	// id indexes the per-call usage slices (root = 0; declared queues in
	// sorted-name order).
	id int
	// weight is the effective over-quota weight: the product of Weight
	// along the chain from the root.
	weight float64
}

// Hierarchy is a validated queue tree. Build one with NewHierarchy; nil
// means flat scheduling (every request in an unlimited root).
type Hierarchy struct {
	nodes map[string]*queueNode
	root  *queueNode
}

// NewHierarchy validates the queue specs into a tree: names must be
// unique and non-empty, parents must exist (declaration order is free),
// weights and every quota and limit component must be non-negative, and
// the parent links must be acyclic.
func NewHierarchy(specs []QueueSpec) (*Hierarchy, error) {
	root := &queueNode{weight: 1}
	h := &Hierarchy{nodes: map[string]*queueNode{"": root}, root: root}
	for _, sp := range specs {
		if sp.Name == "" {
			return nil, fmt.Errorf("sched: queue with empty name")
		}
		if _, dup := h.nodes[sp.Name]; dup {
			return nil, fmt.Errorf("sched: duplicate queue %q", sp.Name)
		}
		if sp.Weight < 0 {
			return nil, fmt.Errorf("sched: queue %q: negative weight", sp.Name)
		}
		if sp.Quota.negative() || sp.Limit.negative() {
			return nil, fmt.Errorf("sched: queue %q: negative quota or limit", sp.Name)
		}
		h.nodes[sp.Name] = &queueNode{spec: sp}
	}
	for name, n := range h.nodes {
		if name == "" {
			continue
		}
		parent, ok := h.nodes[n.spec.Parent]
		if !ok {
			return nil, fmt.Errorf("sched: queue %q: unknown parent %q", name, n.spec.Parent)
		}
		n.parent = parent
	}
	// Cycle check + effective weights, walking each chain to the root.
	for name, n := range h.nodes {
		if name == "" {
			continue
		}
		seen := 0
		for p := n; p != nil; p = p.parent {
			if seen++; seen > len(h.nodes) {
				return nil, fmt.Errorf("sched: queue %q: parent cycle", name)
			}
		}
	}
	for _, n := range h.nodes {
		n.weight = effectiveWeight(n)
	}
	for i, name := range h.QueueNames() {
		h.nodes[name].id = i + 1
	}
	return h, nil
}

func effectiveWeight(n *queueNode) float64 {
	w := 1.0
	for p := n; p != nil; p = p.parent {
		pw := p.spec.Weight
		if pw == 0 {
			pw = 1
		}
		w *= pw
	}
	return w
}

// QueueNames lists the declared queues, sorted (the root is implicit).
func (h *Hierarchy) QueueNames() []string {
	names := make([]string, 0, len(h.nodes)-1)
	for name := range h.nodes {
		if name != "" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// String renders the tree compactly (diagnostics and test labels).
func (h *Hierarchy) String() string {
	var b strings.Builder
	for i, name := range h.QueueNames() {
		if i > 0 {
			b.WriteByte(' ')
		}
		n := h.nodes[name]
		fmt.Fprintf(&b, "%s(quota=%d,w=%g)", name, n.spec.Quota.Slots, n.spec.Weight)
	}
	return b.String()
}

// node resolves a request's queue; unknown names fall back to the root
// (an unguaranteed, unlimited tenant) so allocation is total over any
// input — the fuzz target's never-panic contract.
func (h *Hierarchy) node(name string) *queueNode {
	if n, ok := h.nodes[name]; ok {
		return n
	}
	return h.root
}

// HierResult is an AllocateHierarchy outcome.
type HierResult struct {
	// Grants maps JobID to newly granted containers (held excluded).
	Grants Allocation
	// Evict maps JobID to held containers the scheduler reclaims: the
	// caller must preempt that many of the job's running tasks (RunStream
	// counts them as the job's Preemptions). Empty without held
	// over-quota work.
	Evict Allocation
}

// hierState is the per-call working set of AllocateHierarchy. Per-job
// state is indexed by request index; idx lists the request indices in
// JobID order (the fills' ranks, and the deterministic scan order of
// reclaim).
type hierState struct {
	h     *Hierarchy
	pool  Pool
	reqs  []Request
	nodes []*queueNode // per request
	// grant, held and evict count each job's containers: newly granted,
	// held (evictions shrink it) and evicted.
	grant, held, evict []int
	idx                []int
	heap               []int // fill scratch
	// qmem/qcpu/qslots accumulate per-queue subtree usage, indexed by
	// queueNode.id; mem/cpu/slots track the whole pool.
	qmem, qcpu, qslots []int
	mem, cpu, slots    int
}

// AllocateHierarchy grants containers under the queue hierarchy. A nil
// hierarchy degenerates to flat DRF over an unlimited root — the same
// grants DRF returns. held lists containers
// jobs already hold; they count toward usage and may be reclaimed (see
// HierResult.Evict) when guaranteed queues are starved.
func AllocateHierarchy(pool Pool, h *Hierarchy, reqs []Request, held Allocation) HierResult {
	if h == nil {
		h = flatHierarchy
	}
	n, m := len(reqs), len(h.nodes)
	buf := make([]int, 5*n)
	qbuf := make([]int, 3*m)
	s := &hierState{
		h:      h,
		pool:   pool,
		reqs:   reqs,
		nodes:  make([]*queueNode, n),
		grant:  buf[:n:n],
		held:   buf[n : 2*n : 2*n],
		evict:  buf[2*n : 3*n : 3*n],
		idx:    buf[3*n : 4*n : 4*n],
		heap:   buf[4*n:],
		qmem:   qbuf[:m:m],
		qcpu:   qbuf[m : 2*m : 2*m],
		qslots: qbuf[2*m:],
	}
	jobOrder(s.idx, reqs)
	for i, r := range reqs {
		s.nodes[i] = h.node(r.Queue)
		if hh := held[r.JobID]; hh != 0 {
			s.held[i] = hh
			s.charge(s.nodes[i], r, hh)
		}
	}

	// Fill in-quota guarantees, then over-quota by weight; when reclaim
	// preempts held over-quota containers it can free more capacity than
	// the starved job consumes (container shapes differ), so re-offer the
	// remainder through both fill phases and iterate. Terminates: every
	// extra round is paid for by at least one evicted held container.
	for {
		s.fill(true)
		s.fill(false)
		if !s.reclaim() {
			break
		}
	}
	return s.result()
}

// result builds the HierResult maps. Grants has an entry per job that
// held containers at the call or was granted one; Evict is nil when
// nothing was evicted.
func (s *hierState) result() HierResult {
	granted, evicted := 0, 0
	for i := range s.reqs {
		if s.listed(i) {
			granted++
		}
		if s.evict[i] > 0 {
			evicted++
		}
	}
	res := HierResult{Grants: make(Allocation, granted)}
	if evicted > 0 {
		res.Evict = make(Allocation, evicted)
	}
	for i, r := range s.reqs {
		if s.listed(i) {
			res.Grants[r.JobID] += s.grant[i]
		}
		if s.evict[i] > 0 {
			res.Evict[r.JobID] += s.evict[i]
		}
	}
	return res
}

// listed reports whether job i has a Grants entry: it held containers
// at the call (held + evicted) or holds a grant.
func (s *hierState) listed(i int) bool {
	return s.held[i]+s.evict[i] != 0 || s.grant[i] > 0
}

// flatHierarchy is the nil-hierarchy degenerate: one unlimited root.
var flatHierarchy = func() *Hierarchy {
	h, err := NewHierarchy(nil)
	if err != nil {
		panic(err)
	}
	return h
}()

// charge adds n containers of r's shape to the pool usage and every
// queue on the chain (negative n removes them).
func (s *hierState) charge(node *queueNode, r Request, n int) {
	s.mem += n * r.MemoryMB
	s.cpu += n * r.VCores
	s.slots += n
	for p := node; p != nil; p = p.parent {
		s.qmem[p.id] += n * r.MemoryMB
		s.qcpu[p.id] += n * r.VCores
		s.qslots[p.id] += n
	}
}

// have is job i's current container count (held + granted − evicted).
func (s *hierState) have(i int) int {
	return s.grant[i] + s.held[i]
}

// wants reports whether job i still demands a container: pending unmet
// and cap unreached.
func (s *hierState) wants(i int) bool {
	r := s.reqs[i]
	if s.grant[i] >= r.Pending {
		return false
	}
	if r.Cap > 0 && s.have(i) >= r.Cap {
		return false
	}
	return true
}

// poolFits reports whether one more container of r's shape fits the
// cluster pool.
func (s *hierState) poolFits(r Request) bool {
	if s.pool.MemoryMB > 0 && s.mem+r.MemoryMB > s.pool.MemoryMB {
		return false
	}
	if s.pool.VCores > 0 && s.cpu+r.VCores > s.pool.VCores {
		return false
	}
	if s.pool.Slots > 0 && s.slots+1 > s.pool.Slots {
		return false
	}
	return true
}

// limitFits reports whether one more container of r's shape respects
// every hard limit on the chain.
func (s *hierState) limitFits(node *queueNode, r Request) bool {
	for p := node; p != nil; p = p.parent {
		l := p.spec.Limit
		if l.MemoryMB > 0 && s.qmem[p.id]+r.MemoryMB > l.MemoryMB {
			return false
		}
		if l.VCores > 0 && s.qcpu[p.id]+r.VCores > l.VCores {
			return false
		}
		if l.Slots > 0 && s.qslots[p.id]+1 > l.Slots {
			return false
		}
	}
	return true
}

// quotaHeadroom reports whether one more container of r's shape stays
// inside every quota on the chain. Queues without a quota contribute no
// headroom (their demand is over-quota by definition), and root-parked
// requests have none either — flat work holds no guarantee, it competes
// in the weighted phase (where weight-1 arbitration is exactly DRF, so
// a nil hierarchy still reproduces flat DRF grant for grant).
func (s *hierState) quotaHeadroom(node *queueNode, r Request) bool {
	if node.parent == nil {
		return false
	}
	for p := node; p != nil && p.parent != nil; p = p.parent {
		q := p.spec.Quota
		if q.zero() {
			return false
		}
		if q.MemoryMB > 0 && s.qmem[p.id]+r.MemoryMB > q.MemoryMB {
			return false
		}
		if q.VCores > 0 && s.qcpu[p.id]+r.VCores > q.VCores {
			return false
		}
		if q.Slots > 0 && s.qslots[p.id]+1 > q.Slots {
			return false
		}
	}
	return true
}

// fill grants containers one at a time to the best eligible job until
// nothing fits (the progressive fill). inQuota restricts candidates to
// chains with quota headroom and ranks by plain dominant share; the
// over-quota phase admits everyone within limits and ranks by
// weight-normalized share. Eligibility only shrinks within a phase:
// grants, pool usage and queue usage only grow.
func (s *hierState) fill(inQuota bool) {
	progressiveFill(s.heap, len(s.idx), func(k int) float64 {
		i := s.idx[k]
		key := dominantShare(s.pool, s.reqs[i], s.have(i))
		if !inQuota {
			key /= s.nodes[i].weight
		}
		return key
	}, func(k int) bool {
		i := s.idx[k]
		r, node := s.reqs[i], s.nodes[i]
		return s.wants(i) && s.poolFits(r) && s.limitFits(node, r) &&
			(!inQuota || s.quotaHeadroom(node, r))
	}, func(k int) {
		i := s.idx[k]
		s.grant[i]++
		s.charge(s.nodes[i], s.reqs[i], 1)
	})
}

// reclaim preempts held over-quota containers to unblock starved
// in-quota demand: while some job with quota headroom wants a container
// that only fails for pool capacity, evict one preemptible held
// container and grant in its place. Victims are jobs whose chain holds
// no quota headroom for the container being returned — i.e. over-quota
// (or unguaranteed) work — ordered by longest predicted remaining time,
// then youngest submission, then JobID. Reports whether anything was
// evicted (the caller re-offers leftover freed capacity).
func (s *hierState) reclaim() bool {
	evicted := false
	for {
		starved := -1
		for _, i := range s.idx {
			r := s.reqs[i]
			if s.wants(i) && hasGuarantee(s.nodes[i]) && s.limitFits(s.nodes[i], r) &&
				s.quotaHeadroom(s.nodes[i], r) && !s.poolFits(r) {
				starved = i
				break
			}
		}
		if starved == -1 {
			return evicted
		}
		victim := s.pickVictim(starved)
		if victim == -1 {
			return evicted
		}
		s.held[victim]--
		s.evict[victim]++
		evicted = true
		s.charge(s.nodes[victim], s.reqs[victim], -1)
		if r := s.reqs[starved]; s.poolFits(r) {
			s.grant[starved]++
			s.charge(s.nodes[starved], r, 1)
		}
	}
}

// pickVictim selects the held container to preempt for the starved
// request, or -1 when every holder is inside its guarantee.
func (s *hierState) pickVictim(starved int) int {
	best := -1
	for _, i := range s.idx {
		r := s.reqs[i]
		if i == starved || s.held[i] <= 0 {
			continue
		}
		// Releasing one container must not cut into guaranteed work: the
		// holder is preemptible only if, after hypothetically releasing
		// the container, its chain has no quota headroom to take it back
		// — i.e. the container sat above the guarantee. Requests parked
		// directly under the root (flat scheduling) always have vacuous
		// headroom and are therefore never preempted, which keeps flat
		// DRF's held containers untouchable, as before.
		s.charge(s.nodes[i], r, -1)
		over := s.nodes[i] != s.h.root && !s.quotaHeadroom(s.nodes[i], r)
		s.charge(s.nodes[i], r, 1)
		if !over {
			continue
		}
		if best == -1 || victimLess(s.reqs[best], r) {
			best = i
		}
	}
	return best
}

// victimLess reports whether b preempts before a: longer predicted
// remaining time first (the estimator-guided reclaim order — evicting
// the job that would run longest anyway delays the fleet least),
// youngest submission on ties, JobID as the final deterministic key.
func victimLess(a, b Request) bool {
	if a.Predicted != b.Predicted {
		return b.Predicted > a.Predicted
	}
	if a.Order != b.Order {
		return b.Order > a.Order
	}
	return b.JobID < a.JobID
}

// hasGuarantee reports whether some queue on the chain (the root aside)
// declares a quota — only guaranteed demand may trigger reclaim.
func hasGuarantee(node *queueNode) bool {
	for p := node; p != nil && p.parent != nil; p = p.parent {
		if !p.spec.Quota.zero() {
			return true
		}
	}
	return false
}
