package simulator

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"boedag/internal/cluster"
	"boedag/internal/dag"
	"boedag/internal/fairshare"
	"boedag/internal/obs"
	"boedag/internal/sched"
	"boedag/internal/units"
	"boedag/internal/workload"
)

// Options tune a simulation run.
type Options struct {
	// Seed drives the deterministic task-size skew; runs with the same
	// seed are bit-identical.
	Seed int64
	// TaskStartOverhead is the container launch latency every task pays
	// before processing (default 1 s, typical of YARN container spin-up).
	TaskStartOverhead time.Duration
	// JobSubmitOverhead is the latency between a job becoming eligible and
	// its tasks being schedulable (client submit + AM start; default 2 s).
	JobSubmitOverhead time.Duration
	// SlotLimit overrides the cluster's total task slots when positive.
	SlotLimit int
	// Policy selects the scheduler discipline (default DRF, as the paper).
	Policy sched.Policy
	// TaskFailureProb is the probability that a task attempt fails once
	// mid-flight and is re-executed from scratch (MapReduce's standard
	// fault tolerance). Failures are drawn deterministically from Seed.
	TaskFailureProb float64
	// NodeAware switches resource sharing from cluster-aggregate pools to
	// per-node pools with least-loaded task placement: CPU and disks are
	// local to the node a task runs on, network to its NIC. The analytic
	// models stay aggregate, so this mode measures what the aggregate
	// assumption costs (see the node-awareness study in EXPERIMENTS.md).
	NodeAware bool
	// DisableSkew forces perfectly even task sizes.
	DisableSkew bool
	// Observe attaches the observability layer: a Tracer receiving
	// structured events (task lifecycle, sub-stage bottleneck resolution,
	// state transitions, allocation decisions) and a metrics Registry.
	// The zero value is fully off and costs one branch per emit site.
	Observe obs.Options
}

func (o Options) withDefaults() Options {
	if o.TaskStartOverhead == 0 {
		o.TaskStartOverhead = time.Second
	}
	if o.JobSubmitOverhead == 0 {
		o.JobSubmitOverhead = 2 * time.Second
	}
	return o
}

// Simulator executes DAG workflows on a simulated cluster.
type Simulator struct {
	spec cluster.Spec
	opt  Options
	// trOn caches Observe.TracerOn() so every emit site pays one branch;
	// m holds pre-resolved metric instruments (nil when metrics are off).
	trOn bool
	m    *simMetrics
}

// New returns a Simulator for the cluster with the given options.
func New(spec cluster.Spec, opt Options) *Simulator {
	opt = opt.withDefaults()
	return &Simulator{
		spec: spec,
		opt:  opt,
		trOn: opt.Observe.TracerOn(),
		m:    newSimMetrics(opt.Observe.Metrics),
	}
}

type jobPhase int

const (
	jobWaiting jobPhase = iota
	jobSubmitted
	jobMapping
	jobReducing
	jobDone
)

type simTask struct {
	job        *simJob
	stage      workload.Stage
	index      int
	subStages  []workload.SubStage
	cur        int
	remaining  float64 // fraction of current sub-stage left
	delay      float64 // container-launch seconds left before work begins
	start      float64
	subStart   float64
	subDurs    []float64
	sizeFactor float64
	boundTime  [cluster.NumResources]float64
	rate       float64 // progress rate from the last allocation
	bottleneck cluster.Resource
	// failAt schedules one attempt failure: when the task's current
	// sub-stage index equals failStage and its remaining fraction drops to
	// failAt, the attempt dies and the task restarts from scratch.
	failAt    float64
	failStage int
	willFail  bool
	retries   int
	// node is the task's placement in NodeAware mode (-1 = unplaced).
	node int
}

func (t *simTask) done() bool { return t.cur >= len(t.subStages) }

type simJob struct {
	id        string
	profile   workload.JobProfile
	waitingOn int
	phase     jobPhase
	readyAt   float64
	order     int
	pending   []*simTask
	running   map[*simTask]bool
	finished  int
	stageMeta map[workload.Stage]*StageRecord
	peak      map[workload.Stage]int
	// stageOpenAt is when the current stage materialized its tasks — the
	// baseline for the queue-wait metric.
	stageOpenAt float64
	// seenEpoch is the stateTracker's dedup mark (see observe).
	seenEpoch int
}

// Run simulates the workflow and returns its measurements.
func (s *Simulator) Run(w *dag.Workflow) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	jobs := make(map[string]*simJob, len(w.Jobs))
	children := w.Children()
	for _, j := range w.Jobs {
		jobs[j.ID] = &simJob{
			id:        j.ID,
			profile:   j.Profile,
			waitingOn: len(j.Deps),
			running:   make(map[*simTask]bool),
			stageMeta: make(map[workload.Stage]*StageRecord),
			peak:      make(map[workload.Stage]int),
		}
	}

	res := &Result{Workflow: w.Name}
	now := 0.0
	if s.trOn {
		// Run metadata makes the trace self-describing: offline consumers
		// (trace-driven calibration) read back the node count, the
		// effective slot capacity, and whether task-size skew was live.
		slots := s.spec.TotalSlots()
		if s.opt.SlotLimit > 0 {
			slots = s.opt.SlotLimit
		}
		skew := ""
		if !s.opt.DisableSkew {
			for _, j := range w.Jobs {
				if j.Profile.SkewCV > 0 {
					skew = "skew"
					break
				}
			}
		}
		s.opt.Observe.Tracer.Emit(obs.Event{
			Type: obs.EvRunStart, Time: now, Job: w.Name, Task: -1,
			Seq: s.spec.Nodes, Value: float64(slots), Detail: skew,
		})
	}
	submitSeq := 0
	eligible := func(j *simJob) {
		j.phase = jobSubmitted
		j.readyAt = now + s.opt.JobSubmitOverhead.Seconds()
		j.order = submitSeq
		submitSeq++
		if s.trOn {
			s.opt.Observe.Tracer.Emit(obs.Event{
				Type: obs.EvJobSubmit, Time: now, Job: j.id, Task: -1,
				Value: j.readyAt,
			})
		}
	}
	for _, id := range w.Roots() {
		eligible(jobs[id])
	}

	pool := sched.PoolOf(s.spec).WithSlotLimit(s.opt.SlotLimit)

	// The job set is fixed for the whole run: sort it once and reuse the
	// scheduling scratch buffers across event-loop iterations. All of this
	// is call-local, so concurrent Run calls on one Simulator stay safe.
	ordered := sortedJobs(jobs)
	scratch := &schedScratch{
		reqs:   make([]sched.Request, 0, len(ordered)),
		active: make([]*simJob, 0, len(ordered)),
		held:   make(sched.Allocation, len(ordered)),
	}

	alloc := s.newAllocScratch()

	var running []*simTask
	stateTracker := newStateTracker(s.opt.Observe, s.trOn, s.m)
	nodeLoad := make([]int, s.spec.Nodes)

	remainingJobs := len(jobs)
	for events := 0; remainingJobs > 0; events++ {
		if events > maxEvents {
			return nil, fmt.Errorf("simulator: workflow %q exceeded %d events (livelock?)",
				w.Name, maxEvents)
		}
		if s.m != nil {
			s.m.loopEvents.Inc()
		}

		// Admit jobs whose submit latency elapsed.
		for _, j := range ordered {
			if j.phase == jobSubmitted && j.readyAt <= now+timeEps {
				s.startStage(j, workload.Map, now)
			}
		}

		// Grant free containers via the configured discipline and launch
		// tasks.
		s.schedule(pool, ordered, &running, now, nodeLoad, scratch)
		stateTracker.observe(now, running)

		// Allocate resources among working tasks and find the next event.
		util := s.allocate(running, alloc)
		next := math.Inf(1)
		for _, t := range running {
			var eta float64
			switch {
			case t.delay > 0:
				eta = now + t.delay
			case t.rate > 0:
				eta = now + t.remaining/t.rate
				if t.willFail && t.cur == t.failStage && t.remaining > t.failAt {
					// The attempt dies before the sub-stage completes.
					eta = now + (t.remaining-t.failAt)/t.rate
				}
			default:
				continue // starved; another event must free resources
			}
			if eta < next {
				next = eta
			}
		}
		for _, j := range jobs {
			if j.phase == jobSubmitted && j.readyAt < next {
				next = j.readyAt
			}
		}
		if math.IsInf(next, 1) {
			return nil, fmt.Errorf("simulator: workflow %q deadlocked at t=%.2fs (%d jobs left)",
				w.Name, now, remainingJobs)
		}
		dt := next - now
		if dt < 0 {
			dt = 0
		}
		stateTracker.accumulate(util, dt)
		now = next

		// Advance every working task by dt.
		for _, t := range running {
			if t.delay > 0 {
				t.delay -= dt
				if t.delay <= timeEps {
					t.delay = 0
					t.subStart = now
				}
				continue
			}
			t.remaining -= t.rate * dt
			t.boundTime[t.bottleneck] += dt
		}

		// Retire finished sub-stages and tasks; failed attempts restart.
		completed := running[:0]
		var finishedTasks []*simTask
		for _, t := range running {
			if t.willFail && t.delay == 0 && t.cur == t.failStage &&
				t.remaining <= t.failAt+timeEps {
				// Attempt lost: the framework reruns the task from scratch
				// (container re-launch included).
				t.willFail = false
				t.retries++
				t.cur = 0
				t.remaining = 1
				t.delay = s.opt.TaskStartOverhead.Seconds()
				t.subDurs = t.subDurs[:0]
				t.subStart = now
				if s.trOn {
					s.opt.Observe.Tracer.Emit(obs.Event{
						Type: obs.EvTaskRetry, Time: now,
						Job: t.job.id, Stage: t.stage.String(), Task: t.index,
					})
				}
				if s.m != nil {
					s.m.taskRetries.Inc()
				}
				completed = append(completed, t)
				continue
			}
			if t.delay == 0 && t.remaining <= timeEps*math.Max(1, t.rate) {
				if s.trOn {
					ev := obs.Event{
						Type: obs.EvSubStageFinish,
						Time: t.subStart, Dur: now - t.subStart,
						Job: t.job.id, Stage: t.stage.String(),
						Sub: t.subStages[t.cur].Name, Task: t.index,
						Resource: t.bottleneck.String(),
					}
					// Carry the sub-stage's D_X byte counts (post skew
					// scaling) so the trace alone suffices to invert θ_X.
					for _, op := range t.subStages[t.cur].Ops {
						ev.Demand[op.Resource] = float64(op.Bytes)
					}
					s.opt.Observe.Tracer.Emit(ev)
				}
				t.subDurs = append(t.subDurs, now-t.subStart)
				t.cur++
				t.remaining = 1
				t.subStart = now
				if t.done() {
					finishedTasks = append(finishedTasks, t)
					continue
				}
			}
			completed = append(completed, t)
		}
		running = completed

		for _, t := range finishedTasks {
			s.finishTask(res, t, now)
			if t.node >= 0 {
				nodeLoad[t.node]--
			}
			j := t.job
			delete(j.running, t)
			j.finished++
			stageDone := j.finished == j.profile.Tasks(t.stage)
			if !stageDone {
				continue
			}
			meta := j.stageMeta[t.stage]
			meta.End = units.Seconds(now)
			if s.trOn {
				s.opt.Observe.Tracer.Emit(obs.Event{
					Type: obs.EvStageFinish,
					Time: meta.Start.Seconds(), Dur: (meta.End - meta.Start).Seconds(),
					Job: j.id, Stage: t.stage.String(), Task: -1,
					Resource: meta.Bottleneck.String(),
				})
			}
			if t.stage == workload.Map && j.profile.ReduceTasks > 0 {
				s.startStage(j, workload.Reduce, now)
				continue
			}
			j.phase = jobDone
			remainingJobs--
			for _, c := range children[j.id] {
				cj := jobs[c]
				cj.waitingOn--
				if cj.waitingOn == 0 && cj.phase == jobWaiting {
					eligible(cj)
				}
			}
		}
	}

	stateTracker.observe(now, nil)
	res.States = stateTracker.finish(now)
	res.Makespan = units.Seconds(now)
	if s.m != nil {
		s.m.recordFinalUtilization(res.States)
	}
	for _, j := range ordered {
		for _, st := range []workload.Stage{workload.Map, workload.Reduce} {
			if meta, ok := j.stageMeta[st]; ok {
				meta.MaxParallelism = j.peak[st]
				res.Stages = append(res.Stages, *meta)
			}
		}
	}
	sort.Slice(res.Tasks, func(a, b int) bool {
		ta, tb := res.Tasks[a], res.Tasks[b]
		if ta.Start != tb.Start {
			return ta.Start < tb.Start
		}
		if ta.Job != tb.Job {
			return ta.Job < tb.Job
		}
		return ta.Index < tb.Index
	})
	return res, nil
}

const timeEps = 1e-9

// maxEvents guards against runaway simulations.
const maxEvents = 10_000_000

// startStage materializes the pending tasks of a job stage at model time
// now, applying the deterministic per-task size skew.
func (s *Simulator) startStage(j *simJob, st workload.Stage, now float64) {
	n := j.profile.Tasks(st)
	subs := j.profile.SubStages(st, s.spec)
	cv := j.profile.SkewCV
	if s.opt.DisableSkew {
		cv = 0
	}
	factors := sizeFactors(n, cv, hashSeed(s.opt.Seed, j.id+"/"+st.String()))
	failRng := rand.New(rand.NewSource(hashSeed(s.opt.Seed, "fail/"+j.id+"/"+st.String())))
	j.pending = j.pending[:0]
	j.finished = 0
	for i := 0; i < n; i++ {
		scaled := make([]workload.SubStage, len(subs))
		for k, ss := range subs {
			ops := make([]workload.OpDemand, len(ss.Ops))
			for o, op := range ss.Ops {
				ops[o] = workload.OpDemand{Resource: op.Resource, Bytes: op.Bytes.Scale(factors[i])}
			}
			scaled[k] = workload.SubStage{Name: ss.Name, Ops: ops}
		}
		task := &simTask{
			job: j, stage: st, index: i,
			subStages: scaled, remaining: 1, sizeFactor: factors[i],
		}
		if p := s.opt.TaskFailureProb; p > 0 && failRng.Float64() < p {
			task.willFail = true
			task.failStage = failRng.Intn(len(scaled))
			task.failAt = failRng.Float64() // remaining fraction at death
		}
		j.pending = append(j.pending, task)
	}
	if st == workload.Map {
		j.phase = jobMapping
	} else {
		j.phase = jobReducing
	}
	j.stageMeta[st] = &StageRecord{Job: j.id, Stage: st}
	j.stageOpenAt = now
	if s.trOn {
		s.opt.Observe.Tracer.Emit(obs.Event{
			Type: obs.EvStageStart, Time: now,
			Job: j.id, Stage: st.String(), Task: -1,
			Value: float64(n),
		})
	}
}

// schedScratch holds the per-event-loop buffers of schedule, reused
// across iterations to keep the hot loop allocation-free.
type schedScratch struct {
	reqs   []sched.Request
	active []*simJob
	held   sched.Allocation
}

// allocScratch holds allocate's resource pools and buffers, reused
// across event-loop iterations. Aggregate mode has one pool holding the
// whole cluster's capacity; NodeAware mode has one pool per node.
type allocScratch struct {
	capacity  [cluster.NumResources]units.Rate // of each pool
	pools     [][]*simTask                     // working tasks by pool
	consumers []fairshare.Consumer
	arena     fairshare.Arena
}

func (s *Simulator) newAllocScratch() *allocScratch {
	sc := &allocScratch{pools: make([][]*simTask, 1)}
	for _, r := range cluster.Resources() {
		sc.capacity[r] = s.spec.TotalCapacity(r)
	}
	if s.opt.NodeAware {
		sc.pools = make([][]*simTask, s.spec.Nodes)
		for _, r := range cluster.Resources() {
			sc.capacity[r] = s.spec.Node.Capacity(r)
		}
	}
	return sc
}

// allocate shares each resource pool among the working tasks drawing on
// it, stores every task's progress rate and current bottleneck, and
// returns the utilization per resource class averaged over the pools.
// A task placed on a node draws only on that node's CPU, disks and NIC,
// so the per-node problems are independent and each is solved on its
// own.
func (s *Simulator) allocate(running []*simTask, sc *allocScratch) [cluster.NumResources]float64 {
	for p := range sc.pools {
		sc.pools[p] = sc.pools[p][:0]
	}
	for _, t := range running {
		if t.delay > 0 || t.done() {
			continue
		}
		p := 0
		if s.opt.NodeAware {
			p = t.node
		}
		sc.pools[p] = append(sc.pools[p], t)
	}
	var util [cluster.NumResources]float64
	for _, tasks := range sc.pools {
		if len(tasks) == 0 {
			continue
		}
		sc.consumers = sc.consumers[:0]
		for _, t := range tasks {
			sc.consumers = append(sc.consumers, fairshare.TaskConsumer(s.spec.Node, t.subStages[t.cur].Ops, 1))
		}
		// The result aliases the arena: read it out before the next pool.
		res := sc.arena.Allocate(sc.capacity, sc.consumers)
		for k, t := range tasks {
			t.rate = res.Rate[k]
			t.bottleneck = res.Bottleneck[k]
		}
		for r := range util {
			util[r] += res.Utilization[r]
		}
	}
	for r := range util {
		util[r] /= float64(len(sc.pools))
	}
	return util
}

// schedule grants containers under the configured policy and launches
// pending tasks; in NodeAware mode each launch is placed on the
// least-loaded node. jobs must be sorted by ID (the tie-break order).
func (s *Simulator) schedule(pool sched.Pool, jobs []*simJob, running *[]*simTask, now float64, nodeLoad []int, sc *schedScratch) {
	reqs := sc.reqs[:0]
	active := sc.active[:0]
	clear(sc.held)
	held := sc.held
	for _, j := range jobs {
		if j.phase != jobMapping && j.phase != jobReducing {
			continue
		}
		st := workload.Map
		if j.phase == jobReducing {
			st = workload.Reduce
		}
		reqs = append(reqs, sched.Request{
			JobID:    j.id,
			MemoryMB: j.profile.MemoryMB(st),
			VCores:   j.profile.VCores(st),
			Pending:  len(j.pending),
			Order:    j.order,
		})
		active = append(active, j)
		held[j.id] = len(j.running)
	}
	sc.reqs, sc.active = reqs, active
	if len(reqs) == 0 {
		return
	}
	grants := sched.GrantObserved(s.opt.Policy, pool, reqs, held, s.opt.Observe, now)
	for ri := range reqs {
		r, j := reqs[ri], active[ri]
		for g := grants[r.JobID]; g > 0 && len(j.pending) > 0; g-- {
			t := j.pending[0]
			j.pending = j.pending[1:]
			t.node = -1
			if s.opt.NodeAware {
				t.node = leastLoaded(nodeLoad)
				nodeLoad[t.node]++
			}
			t.start = now
			t.delay = s.opt.TaskStartOverhead.Seconds()
			t.subStart = now
			j.running[t] = true
			*running = append(*running, t)
			if s.trOn {
				s.opt.Observe.Tracer.Emit(obs.Event{
					Type: obs.EvTaskStart, Time: now,
					Job: j.id, Stage: t.stage.String(), Task: t.index,
					Value: now - j.stageOpenAt, // container queue wait
				})
			}
			if s.m != nil {
				s.m.tasksScheduled.Inc()
				s.m.queueWait.Observe(now - j.stageOpenAt)
			}
			meta := j.stageMeta[t.stage]
			if len(j.running)+0 > j.peak[t.stage] {
				j.peak[t.stage] = len(j.running)
			}
			if meta.Start == 0 && meta.End == 0 && len(meta.TaskTimes) == 0 {
				meta.Start = units.Seconds(now)
			}
		}
	}
}

// finishTask converts a completed task into its record and folds its
// duration into the stage metadata.
func (s *Simulator) finishTask(res *Result, t *simTask, now float64) {
	rec := TaskRecord{
		Job:        t.job.id,
		Stage:      t.stage,
		Index:      t.index,
		Start:      units.Seconds(t.start),
		End:        units.Seconds(now),
		SizeFactor: t.sizeFactor,
		Retries:    t.retries,
	}
	for _, d := range t.subDurs {
		rec.SubStages = append(rec.SubStages, units.Seconds(d))
	}
	best, bestT := cluster.CPU, -1.0
	for r, bt := range t.boundTime {
		if bt > bestT {
			best, bestT = cluster.Resource(r), bt
		}
	}
	rec.Bottleneck = best
	res.Tasks = append(res.Tasks, rec)
	if s.trOn {
		s.opt.Observe.Tracer.Emit(obs.Event{
			Type: obs.EvTaskFinish,
			Time: t.start, Dur: now - t.start,
			Job: t.job.id, Stage: t.stage.String(), Task: t.index,
			Resource: best.String(), Value: float64(t.node),
		})
	}
	if s.m != nil {
		s.m.tasksFinished.Inc()
		s.m.taskDur.Observe(now - t.start)
	}

	meta := t.job.stageMeta[t.stage]
	meta.TaskTimes = append(meta.TaskTimes, rec.Duration())
	// Dominant stage bottleneck: majority vote weighted by bound time.
	meta.Bottleneck = stageBottleneck(res, t.job.id, t.stage, meta.Bottleneck, best)
}

// stageBottleneck keeps a simple running mode of task bottlenecks.
func stageBottleneck(res *Result, job string, st workload.Stage, prev, latest cluster.Resource) cluster.Resource {
	counts := make(map[cluster.Resource]int)
	for _, t := range res.Tasks {
		if t.Job == job && t.Stage == st {
			counts[t.Bottleneck]++
		}
	}
	best, bestN := latest, 0
	for r, n := range counts {
		if n > bestN || (n == bestN && r < best) {
			best, bestN = r, n
		}
	}
	_ = prev
	return best
}

func sortedJobs(jobs map[string]*simJob) []*simJob {
	out := make([]*simJob, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	return out
}

// stateTracker turns the evolving set of running (job, stage) pairs into
// the paper's workflow states: a new state opens whenever the set changes.
// observe is called every event-loop iteration, so the steady-state path
// (set unchanged) must not allocate: the running set is deduplicated with
// a per-call epoch mark on the jobs and compared structurally; label
// strings are only built when a state actually opens.
type stateTracker struct {
	cur      []jobStage
	scratch  []jobStage
	epoch    int
	virgin   bool
	start    float64
	labels   []string
	states   []StateRecord
	utilSum  [cluster.NumResources]float64
	utilTime float64
	// Observability sinks, shared with the owning Simulator.
	o    obs.Options
	trOn bool
	m    *simMetrics
}

// jobStage is one element of a workflow state's running set.
type jobStage struct {
	j  *simJob
	st workload.Stage
}

func newStateTracker(o obs.Options, trOn bool, m *simMetrics) *stateTracker {
	return &stateTracker{virgin: true, o: o, trOn: trOn, m: m}
}

func (st *stateTracker) observe(now float64, running []*simTask) {
	// A job runs one stage at a time, so deduplicating by job suffices.
	st.epoch++
	st.scratch = st.scratch[:0]
	for _, t := range running {
		if t.job.seenEpoch != st.epoch {
			t.job.seenEpoch = st.epoch
			st.scratch = append(st.scratch, jobStage{j: t.job, st: t.stage})
		}
	}
	// Insertion sort by job ID: the set is tiny and almost sorted, and
	// sort.Slice would allocate its closure every iteration.
	for i := 1; i < len(st.scratch); i++ {
		for k := i; k > 0 && st.scratch[k].j.id < st.scratch[k-1].j.id; k-- {
			st.scratch[k], st.scratch[k-1] = st.scratch[k-1], st.scratch[k]
		}
	}
	if !st.virgin && jobStagesEqual(st.scratch, st.cur) {
		return
	}
	st.virgin = false
	st.close(now)
	st.cur = append(st.cur[:0], st.scratch...)
	labels := make([]string, len(st.cur))
	for i, p := range st.cur {
		labels[i] = p.j.id + "/" + p.st.String()
	}
	st.start, st.labels = now, labels
	st.utilSum = [cluster.NumResources]float64{}
	st.utilTime = 0
	if st.trOn && len(labels) > 0 {
		st.o.Tracer.Emit(obs.Event{
			Type: obs.EvStateOpen, Time: now, Task: -1,
			Seq:    len(st.states) + 1, // tentative: transients are dropped at close
			Detail: strings.Join(labels, ","),
		})
	}
}

func jobStagesEqual(a, b []jobStage) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// accumulate adds a time-weighted utilization sample to the open state.
func (st *stateTracker) accumulate(util [cluster.NumResources]float64, dt float64) {
	if dt <= 0 {
		return
	}
	for r := 0; r < cluster.NumResources; r++ {
		st.utilSum[r] += util[r] * dt
	}
	st.utilTime += dt
}

func (st *stateTracker) close(now float64) {
	if len(st.labels) == 0 {
		return
	}
	if now-st.start < 1e-6 {
		return // zero-length state: scheduling transient, not a paper state
	}
	rec := StateRecord{
		Seq:     len(st.states) + 1,
		Start:   units.Seconds(st.start),
		End:     units.Seconds(now),
		Running: st.labels,
	}
	if st.utilTime > 0 {
		for r := 0; r < cluster.NumResources; r++ {
			rec.Utilization[r] = st.utilSum[r] / st.utilTime
		}
	}
	st.states = append(st.states, rec)
	if st.trOn {
		dom := rec.DominantResource()
		st.o.Tracer.Emit(obs.Event{
			Type: obs.EvStateClose,
			Time: st.start, Dur: now - st.start,
			Seq: rec.Seq, Task: -1,
			Detail:   strings.Join(st.labels, ","),
			Resource: dom.String(),
			Value:    rec.Utilization[dom],
		})
	}
	if st.m != nil {
		st.m.states.Inc()
		st.m.stateDur.Observe(now - st.start)
	}
}

func (st *stateTracker) finish(now float64) []StateRecord {
	st.close(now)
	return st.states
}

// leastLoaded returns the node with the fewest running tasks (lowest
// index on ties), the placement rule of NodeAware mode.
func leastLoaded(load []int) int {
	best := 0
	for i, l := range load {
		if l < load[best] {
			best = i
		}
	}
	return best
}
