package statemodel

import (
	"math"
	"sort"
	"sync"
	"time"

	"boedag/internal/boe"
	"boedag/internal/sched"
	"boedag/internal/workload"
)

// Scratch is the arena behind the estimator's state loop: it owns every
// per-run buffer (the estJob slab, the running list, the scheduler
// request / task-group / distribution vectors, the submit event heap)
// plus the task-time distribution cache that makes repeated estimates
// incremental. A Scratch belongs to exactly one run at a time — it is
// not safe for concurrent use — but it is meant to be reused: the dist
// cache survives across runs, so a progress tick that re-estimates an
// advanced snapshot of the same workflow re-solves only the states its
// delta actually changed.
//
// Estimate and EstimateRemaining draw Scratches from an internal
// sync.Pool, which covers evalpool workers, tuning sweeps, /v1/batch
// fan-out and explain θ-sensitivity automatically. A pooled scratch
// keeps its buffers and its dist cache, but the pool may hand a call any
// scratch, so whether a call finds another's solved states is up to the
// pool. Callers that want deterministic cross-call reuse (progress
// indicators ticking the same workflow) hold their own via NewScratch
// and the *With variants.
type Scratch struct {
	slab    []estJob
	jobs    map[string]*estJob
	ordered []*estJob
	running []*estJob
	// heap is a min-heap of submitted-but-not-admitted jobs keyed by
	// (readyAt, submit order): the event queue that replaces the
	// per-iteration O(jobs) admit / idle-gap / next-submit scans.
	heap []*estJob

	reqs   []sched.Request
	groups []boe.TaskGroup
	infos  []*boe.StageInfo
	delta  []int
	dists  []TaskTimeDist
	rates  []float64
	rests  []float64
	elems  []uint64
	envs   []uint64
	keys   []distKey
	hit    []bool
	// tasks backs EmpiricalMode's list-scheduling of the remaining
	// stage tasks.
	tasks []time.Duration

	dc distCache
}

// NewScratch returns an empty scratch arena. The zero cost of the first
// run grows the buffers to the workflow's size; later runs reuse them.
func NewScratch() *Scratch {
	return &Scratch{jobs: make(map[string]*estJob, 64)}
}

var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// reset prepares the scratch for a run over n jobs. Buffers are
// re-sliced, not freed; the dist cache deliberately survives — carrying
// solved task-time distributions across calls is what makes re-estimates
// incremental.
func (s *Scratch) reset(n int) {
	if cap(s.slab) < n {
		s.slab = make([]estJob, 0, n)
	}
	s.slab = s.slab[:0]
	clear(s.jobs)
	s.ordered = s.ordered[:0]
	s.running = s.running[:0]
	s.heap = s.heap[:0]
	if cap(s.reqs) < n {
		s.reqs = make([]sched.Request, 0, n)
		s.groups = make([]boe.TaskGroup, 0, n)
		s.infos = make([]*boe.StageInfo, 0, n)
		s.delta = make([]int, 0, n)
		s.dists = make([]TaskTimeDist, 0, n)
		s.rates = make([]float64, 0, n)
		s.rests = make([]float64, 0, n)
		s.elems = make([]uint64, 0, n)
		s.envs = make([]uint64, 0, n)
		s.keys = make([]distKey, 0, n)
		s.hit = make([]bool, 0, n)
	}
}

// newJob hands out a slab-backed estJob. The slab is pre-sized by reset,
// so pointers stay valid for the whole run.
func (s *Scratch) newJob(id string, p workload.JobProfile, deps int) *estJob {
	s.slab = append(s.slab, estJob{id: id, profile: p, waitingOn: deps})
	j := &s.slab[len(s.slab)-1]
	s.jobs[id] = j
	s.ordered = append(s.ordered, j)
	return j
}

// sortOrdered fixes the canonical job order (by ID). The running list is
// kept in this order too, which pins the floating-point evaluation order
// of the scheduler and the BOE model — the bedrock of the byte-identical
// incremental == from-scratch contract.
func (s *Scratch) sortOrdered() {
	sort.Slice(s.ordered, func(a, b int) bool { return s.ordered[a].id < s.ordered[b].id })
}

// insertRunning splices a newly admitted job into the running list at
// its sorted-by-ID position.
func (s *Scratch) insertRunning(j *estJob) {
	i := sort.Search(len(s.running), func(k int) bool { return s.running[k].id >= j.id })
	s.running = append(s.running, nil)
	copy(s.running[i+1:], s.running[i:])
	s.running[i] = j
}

// compactRunning drops jobs that finished this iteration, preserving
// order in place.
func (s *Scratch) compactRunning() {
	out := s.running[:0]
	for _, j := range s.running {
		if j.phase != phaseDone {
			out = append(out, j)
		}
	}
	for i := len(out); i < len(s.running); i++ {
		s.running[i] = nil
	}
	s.running = out
}

// submitsBefore orders the submit heap by readyAt, ties broken by the
// unique submit order — a total order, so pop order is deterministic.
func submitsBefore(a, b *estJob) bool {
	if a.readyAt != b.readyAt {
		return a.readyAt < b.readyAt
	}
	return a.order < b.order
}

func (s *Scratch) heapPush(j *estJob) {
	h := append(s.heap, j)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !submitsBefore(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	s.heap = h
}

func (s *Scratch) heapPop() *estJob {
	h := s.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = nil
	h = h[:last]
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(h) && submitsBefore(h[l], h[m]) {
			m = l
		}
		if r < len(h) && submitsBefore(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	s.heap = h
	return top
}

// distKey identifies one task-time solve. Task times under the BOE
// model depend on the job's own (profile, stage, Δ) and on the ordered
// sequence of every other concurrently running group — contention is
// global (paper Figure 1), so the whole environment is part of the key.
// The env hash is order-sensitive on purpose: fair-share allocation
// consumes consumers in slice order and floating-point addition is not
// associative, so only an identical input sequence may share a cached
// result (the byte-identical contract). Adjacent identical groups still
// share naturally: dropping either occurrence of an equal pair yields
// the same remaining sequence.
type distKey struct {
	// conf fingerprints everything outside the state: the timer's
	// parameters and the dist-shaping options (TaskFailureProb).
	conf uint64
	// job is the job ID for job-sensitive timers, "" otherwise.
	job string
	// self hashes the job's own (profile fingerprint, stage, Δ).
	self uint64
	// env hashes the ordered element sequence with self removed; n is
	// its length.
	env uint64
	n   int32
}

// distCache memoizes failure-corrected task-time distributions. Like
// stateSig, it trusts 64-bit FNV hashes as identity — the collision risk
// is negligible next to the model's own error bars, and the equivalence
// suite holds the incremental path to byte-identical output.
type distCache struct {
	m map[distKey]TaskTimeDist
}

// distCacheMax bounds the cache; a 10k-job run solves well under this
// many distinct states, so in practice the wholesale clear never fires
// mid-run.
const distCacheMax = 1 << 17

func (c *distCache) get(k distKey) (TaskTimeDist, bool) {
	d, ok := c.m[k]
	return d, ok
}

func (c *distCache) put(k distKey, d TaskTimeDist) {
	if c.m == nil {
		c.m = make(map[distKey]TaskTimeDist, 256)
	}
	if len(c.m) >= distCacheMax {
		clear(c.m)
	}
	c.m[k] = d
}

// FNV-1a, the same constants the state signature uses.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mix64 folds a 64-bit value into the hash in one round. The inputs at
// every call site are either small enums or already well-mixed hashes,
// so the single round keeps the per-iteration env hashing cheap.
func mix64(h, v uint64) uint64 { return (h ^ v) * fnvPrime }

func mixStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return (h ^ 0xff) * fnvPrime // terminator: fields cannot bleed
}

func mixFloat(h uint64, f float64) uint64 { return mix64(h, math.Float64bits(f)) }

// envHash hashes the element sequence with index skip removed.
func envHash(elems []uint64, skip int) uint64 {
	h := uint64(fnvOffset)
	for i, e := range elems {
		if i == skip {
			continue
		}
		h = mix64(h, e)
	}
	return h
}

// profileFingerprint hashes every JobProfile field the BOE model (and
// the scheduler requests) can read — the per-job half of a dist key.
func profileFingerprint(p workload.JobProfile) uint64 {
	h := uint64(fnvOffset)
	h = mixStr(h, p.Name)
	h = mix64(h, uint64(p.InputBytes))
	h = mix64(h, uint64(p.SplitBytes))
	h = mix64(h, uint64(p.ReduceTasks))
	h = mixFloat(h, p.MapSelectivity)
	h = mixFloat(h, p.ReduceSelectivity)
	h = mixFloat(h, p.MapCPUCost)
	h = mixFloat(h, p.ReduceCPUCost)
	if p.Compression.Enabled {
		h = mix64(h, 1)
	} else {
		h = mix64(h, 0)
	}
	h = mixFloat(h, p.Compression.Ratio)
	h = mixFloat(h, p.Compression.CPUOverhead)
	h = mix64(h, uint64(p.Replicas))
	h = mix64(h, uint64(p.SortBufferBytes))
	h = mix64(h, uint64(p.MapMemoryMB))
	h = mix64(h, uint64(p.ReduceMemoryMB))
	h = mix64(h, uint64(p.MapVCores))
	h = mix64(h, uint64(p.ReduceVCores))
	h = mixFloat(h, p.SkewCV)
	return h
}
