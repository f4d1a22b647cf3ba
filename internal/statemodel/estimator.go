package statemodel

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"boedag/internal/boe"
	"boedag/internal/cluster"
	"boedag/internal/dag"
	"boedag/internal/fairshare"
	"boedag/internal/obs"
	"boedag/internal/sched"
	"boedag/internal/skew"
	"boedag/internal/units"
	"boedag/internal/workload"
)

// Options tune the estimator. The overheads must mirror the executing
// system's (here: the simulator's) for a fair end-to-end comparison.
type Options struct {
	// Mode selects the skew handling (Alg1-Mean / Alg1-Mid / Alg2-Normal).
	Mode SkewMode
	// JobSubmitOverhead is the per-job submit/compile latency.
	JobSubmitOverhead time.Duration
	// ParallelismCaps optionally caps per-job container grants.
	ParallelismCaps map[string]int
	// SlotLimit overrides the cluster's total task slots when positive.
	SlotLimit int
	// Policy selects the modelled scheduler discipline (default DRF).
	Policy sched.Policy
	// Hierarchy, when non-nil, replaces the flat policy grant with
	// hierarchical queue scheduling (quotas, over-quota weights, limits,
	// gangs) — the same pure allocator the simulator runs, so both sides
	// schedule identically. Nil keeps flat scheduling byte-for-byte.
	Hierarchy *sched.Hierarchy
	// Queues maps job ID to its leaf queue; consulted only under
	// Hierarchy (absent jobs park at the root).
	Queues map[string]string
	// Gangs maps job ID to an all-or-nothing minimum parallelism;
	// consulted only under Hierarchy.
	Gangs map[string]int
	// Predictions maps job ID to its predicted runtime in seconds: the
	// SPJF policy's ordering key and the hierarchy's reclaim victim
	// ordering (longest-predicted evicted first).
	Predictions map[string]float64
	// TaskFailureProb models the execution's task-attempt failure rate:
	// each failed attempt dies uniformly at random through its work and is
	// re-executed, so the expected task time inflates by a factor of
	// (1 + p/2). Set it to match the simulator's TaskFailureProb.
	TaskFailureProb float64
	// DiscreteWaves switches the stage-duration rule from the fluid
	// tasksLeft/throughput form to explicit ⌈N/Δ⌉ waves (ablation).
	DiscreteWaves bool
	// DisableIncremental turns off the task-time distribution cache, so
	// every state solves every running job from scratch. Results are
	// byte-identical either way by contract; this is the reference path
	// the incremental-equivalence suite compares against (and an escape
	// hatch should an external timer misdeclare purity).
	DisableIncremental bool
	// Observe attaches the observability layer: per-iteration events of
	// Algorithm 1's state loop, predicted state/stage spans, scheduler
	// grants, and iteration counters. Zero value = off.
	Observe obs.Options
}

// StageEstimate is the predicted execution of one job stage.
type StageEstimate struct {
	Job         string
	Stage       workload.Stage
	Start, End  time.Duration
	TaskTime    time.Duration
	Parallelism int
	Bottleneck  cluster.Resource
}

// Duration is the stage's predicted wall-clock span.
func (s StageEstimate) Duration() time.Duration { return s.End - s.Start }

// StateEstimate is one predicted workflow state (paper Figure 5).
type StateEstimate struct {
	Seq        int
	Start, End time.Duration
	// Running lists "job/stage" labels active in the state, sorted.
	Running []string
	// Parallelism maps job ID to its Δ during the state.
	Parallelism map[string]int
	// Bottleneck maps job ID to the resource its tasks are predicted to be
	// bound by during the state (zero value CPU for timers without
	// resource knowledge).
	Bottleneck map[string]cluster.Resource
	// Utilization is the predicted cluster-wide utilization per resource
	// class during the state (element-wise maximum over the running jobs'
	// task-time views).
	Utilization [cluster.NumResources]float64
	// SlotShare is the fraction of the scheduling pool's task slots
	// granted during the state; ~1.0 means the workflow is slot-bound.
	SlotShare float64
}

// Duration is the state's predicted span.
func (s StateEstimate) Duration() time.Duration { return s.End - s.Start }

// Plan is the estimator's full output: the predicted execution plan of a
// DAG workflow.
type Plan struct {
	Workflow string
	Makespan time.Duration
	Stages   []StageEstimate
	States   []StateEstimate
}

// StageOf returns the estimate for (job, stage), or nil.
func (p *Plan) StageOf(job string, st workload.Stage) *StageEstimate {
	for i := range p.Stages {
		if p.Stages[i].Job == job && p.Stages[i].Stage == st {
			return &p.Stages[i]
		}
	}
	return nil
}

// Estimator predicts DAG workflow execution plans with the state-based
// approach of Algorithm 1.
type Estimator struct {
	Spec  cluster.Spec
	Timer TaskTimer
	Opt   Options
}

// New returns an estimator with the given task timer.
func New(spec cluster.Spec, timer TaskTimer, opt Options) *Estimator {
	if opt.JobSubmitOverhead == 0 {
		opt.JobSubmitOverhead = 2 * time.Second
	}
	return &Estimator{Spec: spec, Timer: timer, Opt: opt}
}

type estJob struct {
	id        string
	profile   workload.JobProfile
	waitingOn int
	phase     jobPhase
	readyAt   float64
	order     int
	stage     workload.Stage
	tasksLeft float64
	// fp caches the profile fingerprint for dist-cache keys (only
	// computed when the timer is cacheable).
	fp uint64
	// info is the current stage's resolved BOE derivation, filled by the
	// first state that solves on the run's solver and cleared when the
	// stage changes.
	info *boe.StageInfo
	// lastDelta is the parallelism granted in the previous state; running
	// tasks still hold their containers, so the job's demand cannot drop
	// below them (see pendingTasks).
	lastDelta int
	// busy accumulates, per resource class, the wall-clock time this
	// job's current stage spent bound by that resource; the argmax at
	// stage finish is the stage's recorded Bottleneck.
	busy [cluster.NumResources]float64
	// lastBottleneck is the job's task bottleneck in the current state,
	// the fallback when a stage finishes without accumulating busy time.
	lastBottleneck cluster.Resource

	// se holds the per-stage estimates in place (indexed by Map/Reduce);
	// seen marks the stages that opened. A fixed array instead of a map
	// keeps the estJob slab flat and allocation-free.
	se   [2]StageEstimate
	seen [2]bool
}

// pendingTasks is the job's container demand for DRF. The fluid progress
// model drains tasksLeft continuously, but a task that is halfway done
// still occupies a whole container: with Δ tasks in flight, the
// unfinished count exceeds the fluid remainder by about Δ/2. Without this
// correction a single synchronized wave (e.g. 66 reduce tasks finishing
// together) would appear to release containers mid-wave and the estimator
// would starve the stage of its own parallelism.
func (j *estJob) pendingTasks() int {
	fluid := j.tasksLeft + float64(j.lastDelta)/2
	n := int(math.Ceil(fluid))
	if total := j.profile.Tasks(j.stage); n > total {
		n = total
	}
	if n < 1 {
		n = 1
	}
	return n
}

type jobPhase int

const (
	phaseWaiting jobPhase = iota
	phaseSubmitted
	phaseRunning
	phaseDone
)

// Estimate runs Algorithm 1: iterate over workflow states; per state,
// estimate each running job's degree of parallelism with DRF, its task
// time with the TaskTimer under the state's full contention environment,
// the remaining time of each job's current stage, then advance to the
// nearest stage transition and update everyone's progress.
//
// Scratch memory comes from an internal pool; use EstimateWith to pin a
// caller-owned Scratch (deterministic warm-cache reuse across calls).
func (e *Estimator) Estimate(w *dag.Workflow) (*Plan, error) {
	s := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(s)
	return e.EstimateWith(s, w)
}

// EstimateWith is Estimate running on the given scratch arena. The
// scratch must not be shared with a concurrent run; nil falls back to a
// fresh arena.
func (e *Estimator) EstimateWith(s *Scratch, w *dag.Workflow) (*Plan, error) {
	if s == nil {
		s = NewScratch()
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	s.reset(len(w.Jobs))
	for _, j := range w.Jobs {
		s.newJob(j.ID, j.Profile, len(j.Deps))
	}
	for i, id := range w.Roots() {
		j := s.jobs[id]
		j.phase = phaseSubmitted
		j.readyAt = e.Opt.JobSubmitOverhead.Seconds()
		j.order = i // declaration order is submission order (FIFO)
	}
	return e.run(s, w, len(w.Jobs))
}

// distConf resolves whether task-time solves may be memoized and, if so,
// the configuration half of the cache key: the timer's fingerprint mixed
// with every option that shapes the distribution itself.
func (e *Estimator) distConf() (conf uint64, jobSensitive, cacheable bool) {
	if e.Opt.DisableIncremental {
		return 0, false, false
	}
	dc, ok := e.Timer.(DistCacheable)
	if !ok {
		return 0, false, false
	}
	fp, js, ok := dc.DistFingerprint()
	if !ok {
		return 0, false, false
	}
	h := mix64(fnvOffset, fp)
	h = mixFloat(h, e.Opt.TaskFailureProb)
	return h, js, true
}

// run drives the state iteration over pre-initialized jobs (used by both
// Estimate and EstimateRemaining); remaining counts jobs not yet done.
//
// The loop is Algorithm 1 with three structural changes that leave the
// arithmetic — and therefore the emitted plan bytes — untouched:
//
//   - Submitted jobs wait in a min-heap keyed by (readyAt, order), so
//     admission, the idle-gap jump and the next-submit bound on dt are
//     heap operations instead of O(jobs) scans.
//   - The running list is maintained incrementally (sorted insert on
//     admit, in-place compaction on finish) in the same sorted-by-ID
//     order the old per-iteration rebuild produced.
//   - Task-time solves are memoized in the scratch's dist cache keyed by
//     (timer config, own group, ordered contention environment): within a
//     run, identical adjacent groups collapse to one solve; across runs
//     on the same scratch, states the caller's delta did not touch are
//     carried forward. Jobs whose key misses are the dirty set.
func (e *Estimator) run(s *Scratch, w *dag.Workflow, remaining int) (*Plan, error) {
	children := w.Children()
	now := 0.0
	s.sortOrdered()

	conf, jobSensitive, cacheable := e.distConf()
	// A timer that solves with BOE makes the run's solves on one solver,
	// whose fair-share memo then serves repeats across the whole run.
	st, onSolver := e.Timer.(solverTimer)
	var sv *boe.Solver
	if onSolver {
		sv = boe.GetSolver()
		defer boe.PutSolver(sv)
	}
	if cacheable {
		for _, j := range s.ordered {
			j.fp = profileFingerprint(j.profile)
		}
	}

	// Jobs pre-submitted by the caller keep their orders; later submits
	// continue the sequence. Pre-running jobs (EstimateRemaining) seed
	// the running list.
	submitSeq := 0
	for _, j := range s.ordered {
		if j.phase != phaseWaiting && j.order >= submitSeq {
			submitSeq = j.order + 1
		}
		if j.phase == phaseSubmitted {
			s.heapPush(j)
		}
		if j.phase == phaseRunning {
			s.running = append(s.running, j)
		}
	}
	submit := func(j *estJob) {
		j.phase = phaseSubmitted
		j.readyAt = now + e.Opt.JobSubmitOverhead.Seconds()
		j.order = submitSeq
		submitSeq++
		s.heapPush(j)
	}

	pool := sched.PoolOf(e.Spec).WithSlotLimit(e.Opt.SlotLimit)

	plan := &Plan{Workflow: w.Name}
	var prevSig stateSig
	sigDirty := true

	trOn := e.Opt.Observe.TracerOn()
	// Solver counters accumulate in locals and flush to the metrics
	// registry once per run: shared atomic counters touched per
	// iteration are measurable contention when concurrent requests
	// estimate in parallel (the prediction daemon's hot path).
	iters := int64(0)
	solves, reuses := int64(0), int64(0)

	for iter := 0; remaining > 0; iter++ {
		if iter > 10000*len(s.jobs)+10000 {
			return nil, fmt.Errorf("statemodel: workflow %q did not converge", w.Name)
		}
		iters++
		// Admit submitted jobs whose overhead elapsed.
		for len(s.heap) > 0 && s.heap[0].readyAt <= now+1e-9 {
			j := s.heapPop()
			e.openStage(j, workload.Map, now)
			s.insertRunning(j)
			sigDirty = true
		}
		running := s.running
		if trOn {
			e.Opt.Observe.Tracer.Emit(obs.Event{
				Type: obs.EvEstimatorIter, Time: now, Task: -1,
				Seq: iter, Value: float64(len(running)),
			})
		}
		if len(running) == 0 {
			// Idle gap: jump to the next submit event.
			if len(s.heap) == 0 {
				return nil, fmt.Errorf("statemodel: workflow %q deadlocked at t=%.2fs", w.Name, now)
			}
			now = s.heap[0].readyAt
			continue
		}
		n := len(running)

		// (1) Degree of parallelism per running job.
		reqs := s.reqs[:n]
		for i, j := range running {
			reqs[i] = sched.Request{
				JobID:     j.id,
				MemoryMB:  j.profile.MemoryMB(j.stage),
				VCores:    j.profile.VCores(j.stage),
				Pending:   j.pendingTasks(),
				Cap:       e.Opt.ParallelismCaps[j.id],
				Order:     j.order,
				Queue:     e.Opt.Queues[j.id],
				Gang:      e.Opt.Gangs[j.id],
				Predicted: e.Opt.Predictions[j.id],
			}
		}
		var grants sched.Allocation
		if e.Opt.Hierarchy != nil {
			grants = sched.AllocateHierarchyObserved(pool, e.Opt.Hierarchy, reqs, nil, e.Opt.Observe, now).Grants
		} else {
			grants = sched.GrantObserved(e.Opt.Policy, pool, reqs, nil, e.Opt.Observe, now)
		}

		delta := s.delta[:n]
		for i, j := range running {
			d := grants[j.id]
			if d < 1 {
				// The flat fluid model floors every running job at one
				// container so progress never stalls. Under a hierarchy the
				// floor would forge capacity a quota, limit, or failed gang
				// deliberately withheld — there a zero grant genuinely means
				// zero progress this state.
				if e.Opt.Hierarchy == nil {
					d = 1
				} else {
					d = 0
				}
			}
			delta[i] = d
			j.lastDelta = d
		}

		// (2) Task time per running job via the BOE model (or profiles).
		// Cacheable timers first look every job up in the dist cache; the
		// misses are the dirty set that actually re-solves.
		dists := s.dists[:n]
		elems := s.elems[:n]
		envs := s.envs[:n]
		keys := s.keys[:n]
		hit := s.hit[:n]
		anyMiss := !cacheable
		if cacheable {
			for i, j := range running {
				elems[i] = mix64(mix64(mix64(fnvOffset, j.fp), uint64(j.stage)), uint64(delta[i]))
			}
			for i, j := range running {
				if delta[i] == 0 {
					// Starved under the hierarchy: no containers, no task time
					// to solve. (A starved predecessor can never alias the next
					// job's elems — equal elems imply equal deltas.)
					dists[i] = TaskTimeDist{}
					hit[i] = true
					continue
				}
				if i > 0 && elems[i] == elems[i-1] {
					// Identical adjacent groups see the identical environment
					// sequence: removing either occurrence of an equal pair
					// leaves the same remainder.
					envs[i] = envs[i-1]
				} else {
					envs[i] = envHash(elems, i)
				}
				keys[i] = distKey{conf: conf, self: elems[i], env: envs[i], n: int32(n - 1)}
				if jobSensitive {
					keys[i].job = j.id
				}
				if d, ok := s.dc.get(keys[i]); ok {
					dists[i] = d
					hit[i] = true
					reuses++
				} else {
					hit[i] = false
					anyMiss = true
				}
			}
		}
		if anyMiss {
			groups := s.groups[:n]
			for i, j := range running {
				groups[i] = groupFor(j.profile, j.stage, delta[i])
			}
			// The state's environment is fixed from here on: hand it to
			// the solver once, with each job's resolved stage.
			infos := s.infos[:n]
			if onSolver {
				for i, j := range running {
					infos[i] = j.info
				}
				st.beginState(sv, groups, infos)
			}
			for i, j := range running {
				if delta[i] == 0 {
					dists[i] = TaskTimeDist{}
					continue
				}
				if cacheable && hit[i] {
					continue
				}
				if cacheable {
					// An earlier index this iteration may have solved and
					// cached the same (class, delta, environment) key —
					// identical inputs, so its dist is bitwise reusable.
					// This is what collapses a layer of templated jobs to
					// one solve per profile class.
					if d, ok := s.dc.get(keys[i]); ok {
						dists[i] = d
						reuses++
						continue
					}
				}
				var d TaskTimeDist
				if onSolver {
					d = st.taskDistIn(sv, j.id, groups, i)
				} else {
					d = e.Timer.TaskDist(j.id, groups, i)
				}
				if p := e.Opt.TaskFailureProb; p > 0 {
					// Fault-tolerance correction: a failed attempt wastes half
					// its work in expectation before the re-execution.
					f := 1 + p/2
					d.Mean = time.Duration(float64(d.Mean) * f)
					d.Median = time.Duration(float64(d.Median) * f)
				}
				dists[i] = d
				solves++
				if cacheable {
					s.dc.put(keys[i], d)
				}
			}
			if onSolver {
				for i, j := range running {
					j.info = infos[i]
				}
			}
		}
		rates := s.rates[:n]
		rests := s.rests[:n]
		for i, j := range running {
			if delta[i] == 0 {
				// Starved this state: zero progress; the stage's remaining
				// time is unbounded until another state frees capacity.
				rates[i] = 0
				rests[i] = math.Inf(1)
				continue
			}
			tt := dists[i].ByMode(e.Opt.Mode).Seconds()
			if tt <= 0 {
				return nil, fmt.Errorf("statemodel: workflow %q: job %q %s: non-positive task time",
					w.Name, j.id, j.stage)
			}
			rates[i] = float64(delta[i]) / tt
			rests[i] = e.restTime(s, j, delta[i], dists[i], tt)
			j.lastBottleneck = dists[i].Bottleneck
			se := &j.se[j.stage]
			se.TaskTime = units.Seconds(tt)
			se.Parallelism = delta[i]
		}

		// Record the state if its signature changed. The signature only
		// covers (job, stage) membership, so it needs recomputing only
		// after a membership or stage change.
		if sigDirty {
			sigDirty = false
			if sig := stateSignature(running); sig != prevSig {
				closeState(plan, now)
				prevSig = sig
				st := StateEstimate{
					Seq:         len(plan.States) + 1,
					Start:       units.Seconds(now),
					Parallelism: make(map[string]int, len(running)),
					Bottleneck:  make(map[string]cluster.Resource, len(running)),
				}
				granted := 0
				for i, j := range running {
					st.Running = append(st.Running, j.id+"/"+j.stage.String())
					st.Parallelism[j.id] = delta[i]
					st.Bottleneck[j.id] = dists[i].Bottleneck
					granted += delta[i]
					for r := 0; r < cluster.NumResources; r++ {
						if u := dists[i].Util[r]; u > st.Utilization[r] {
							st.Utilization[r] = u
						}
					}
				}
				if pool.Slots > 0 {
					st.SlotShare = float64(granted) / float64(pool.Slots)
				}
				sort.Strings(st.Running)
				plan.States = append(plan.States, st)
				if trOn {
					e.Opt.Observe.Tracer.Emit(obs.Event{
						Type: obs.EvEstimatorState, Time: now, Task: -1,
						Seq: st.Seq, Detail: strings.Join(st.Running, ","),
					})
				}
			}
		}

		// (3)-(4) Find the job whose stage ends first (or the next submit
		// arrival, whichever is nearer).
		dt := math.Inf(1)
		for i := range running {
			if rests[i] < dt {
				dt = rests[i]
			}
		}
		if len(s.heap) > 0 {
			if r := s.heap[0].readyAt - now; r < dt {
				dt = r
			}
		}
		if math.IsInf(dt, 1) {
			// Every running job is starved and no submit can change that:
			// a quota/limit/gang configuration that never grants capacity.
			return nil, fmt.Errorf("statemodel: workflow %q starved at t=%.2fs (hierarchy grants no parallelism)",
				w.Name, now)
		}
		if dt < 0 {
			dt = 0
		}
		now += dt

		// (5) Update progress of every running job; transition finished
		// stages.
		finished := false
		for i, j := range running {
			j.tasksLeft -= rates[i] * dt
			if delta[i] > 0 {
				j.busy[dists[i].Bottleneck] += dt
			}
			if j.tasksLeft > 1e-9 && rests[i] > dt+1e-9 {
				continue
			}
			j.tasksLeft = 0
			sigDirty = true
			se := &j.se[j.stage]
			se.End = units.Seconds(now)
			se.Bottleneck = j.dominantResource()
			if trOn {
				e.Opt.Observe.Tracer.Emit(obs.Event{
					Type: obs.EvStageFinish,
					Time: se.Start.Seconds(), Dur: se.Duration().Seconds(),
					Job: j.id, Stage: j.stage.String(), Task: -1,
					Resource: se.Bottleneck.String(),
					Value:    float64(se.Parallelism),
				})
			}
			if j.stage == workload.Map && j.profile.ReduceTasks > 0 {
				e.openStage(j, workload.Reduce, now)
				continue
			}
			j.phase = phaseDone
			finished = true
			remaining--
			for _, c := range children[j.id] {
				cj := s.jobs[c]
				cj.waitingOn--
				if cj.waitingOn == 0 && cj.phase == phaseWaiting {
					submit(cj)
				}
			}
		}
		if finished {
			s.compactRunning()
		}
	}
	closeState(plan, now)
	if reg := e.Opt.Observe.Metrics; reg != nil {
		reg.Counter("est_iterations").Add(iters)
		reg.Counter("est_states").Add(int64(len(plan.States)))
		reg.Counter("est_dist_solves").Add(solves)
		reg.Counter("est_dist_reuse").Add(reuses)
		var ws fairshare.Stats
		if sv != nil {
			ws = sv.Stats()
		}
		reg.Counter("est_waterfill_solves").Add(ws.Solves)
		reg.Counter("est_waterfill_memo_hits").Add(ws.MemoHits)
		reg.Counter("est_waterfill_sweeps").Add(ws.Sweeps)
		reg.Counter("est_waterfill_capped").Add(ws.Capped)
		stateDur := reg.Histogram("est_state_duration_s")
		for _, st := range plan.States {
			if st.End > 0 {
				stateDur.Observe(st.Duration().Seconds())
			}
		}
	}
	plan.Makespan = units.Seconds(now)
	for _, j := range s.ordered {
		for _, st := range []workload.Stage{workload.Map, workload.Reduce} {
			if j.seen[st] {
				plan.Stages = append(plan.Stages, j.se[st])
			}
		}
	}
	return plan, nil
}

// restTime estimates the remaining wall-clock time of a job's current
// stage at the state's rate: fluid tasksLeft/rate by default, discrete
// waves if configured, plus the normal-mode straggler correction when the
// stage is in its final wave.
func (e *Estimator) restTime(s *Scratch, j *estJob, delta int, dist TaskTimeDist, taskTime float64) float64 {
	left := j.tasksLeft
	if left <= 0 {
		return 0
	}
	var base float64
	if e.Opt.DiscreteWaves {
		waves := math.Ceil(left / float64(delta))
		base = waves * taskTime
	} else {
		base = left / (float64(delta) / taskTime)
	}
	switch e.Opt.Mode {
	case NormalMode:
		lastWave := int(math.Min(left, float64(delta)))
		if lastWave >= 1 {
			mean := dist.ByMode(e.Opt.Mode)
			tail := ExpectedMaxNormal(mean, dist.Std, lastWave) - mean
			base += tail.Seconds()
		}
	case EmpiricalMode:
		if len(dist.Sample) > 0 {
			// List-schedule the remaining tasks with durations cycled from
			// the measured sample: a distribution-free stage duration.
			n := int(math.Ceil(left))
			if cap(s.tasks) < n {
				s.tasks = make([]time.Duration, n)
			}
			tasks := s.tasks[:n]
			for i := range tasks {
				tasks[i] = dist.Sample[i%len(dist.Sample)]
			}
			return skew.EmpiricalStageDuration(tasks, delta).Seconds()
		}
		// No sample (e.g. a model-driven timer): degrade to the normal fit.
		lastWave := int(math.Min(left, float64(delta)))
		if lastWave >= 1 {
			mean := dist.ByMode(e.Opt.Mode)
			tail := ExpectedMaxNormal(mean, dist.Std, lastWave) - mean
			base += tail.Seconds()
		}
	}
	return base
}

func (e *Estimator) openStage(j *estJob, st workload.Stage, now float64) {
	j.phase = phaseRunning
	j.stage = st
	j.tasksLeft = float64(j.profile.Tasks(st))
	j.lastDelta = 0
	j.busy = [cluster.NumResources]float64{}
	j.lastBottleneck = cluster.CPU
	j.info = nil

	j.se[st] = StageEstimate{Job: j.id, Stage: st, Start: units.Seconds(now)}
	j.seen[st] = true
}

// dominantResource is the resource the job's current stage spent the most
// time bound by — the argmax of busy, ties to the lowest resource index.
// A stage that finishes without accumulating wall-clock time (zero-length
// states) falls back to the final state's task bottleneck.
func (j *estJob) dominantResource() cluster.Resource {
	best := cluster.CPU
	seen := 0.0
	for _, r := range cluster.Resources() {
		seen += j.busy[r]
		if j.busy[r] > j.busy[best] {
			best = r
		}
	}
	if seen <= 0 {
		return j.lastBottleneck
	}
	return best
}

// stateSig identifies a workflow state without allocating: an FNV-1a
// hash over the running (job, stage) pairs plus their count. The count
// guards the (already negligible) hash-collision risk — two states can
// only alias if they also run the same number of jobs.
type stateSig struct {
	h uint64
	n int
}

func stateSignature(running []*estJob) stateSig {
	h := uint64(fnvOffset)
	for _, j := range running {
		for i := 0; i < len(j.id); i++ {
			h = (h ^ uint64(j.id[i])) * fnvPrime
		}
		h = (h ^ 0xff) * fnvPrime // separator: ids cannot bleed into each other
		h = (h ^ uint64(j.stage)) * fnvPrime
	}
	return stateSig{h: h, n: len(running)}
}

func closeState(plan *Plan, end float64) {
	if len(plan.States) == 0 {
		return
	}
	last := &plan.States[len(plan.States)-1]
	if last.End == 0 {
		last.End = units.Seconds(end)
	}
}
