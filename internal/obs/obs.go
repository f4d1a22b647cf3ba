// Package obs is the runtime observability layer of this repository: a
// zero-dependency (standard library only) instrumentation substrate
// shared by the discrete-event simulator, the state-based estimator and
// the scheduler model. It provides
//
//   - a Tracer interface receiving structured Events — task lifecycle,
//     per-sub-stage bottleneck resolution, workflow state transitions,
//     scheduler allocation decisions, estimator iterations — with an
//     in-memory Recorder and a no-op default;
//   - a metrics Registry of counters, gauges and histograms;
//   - exporters: Chrome trace_event JSON (loadable in chrome://tracing
//     or Perfetto), a plain-text summary report, and a JSON metrics dump.
//
// Instrumented code must stay allocation-free when tracing is off: every
// emit site is guarded behind an enabled check, e.g.
//
//	if o.TracerOn() {
//	    o.Tracer.Emit(obs.Event{...})
//	}
//
// so the Event literal is never materialized on the disabled path
// (TestDisabledTracerAllocatesNothing in internal/simulator pins it, and
// hack/overhead_guard.sh holds BenchmarkSimulatorInstrumentationRatio's
// median disabled/enabled time ratio under 1.05).
package obs

import (
	"fmt"
	"sync"
)

// EventType classifies an Event. The taxonomy covers both producers: the
// simulator (ground truth) and the state-based estimator (prediction).
type EventType uint8

const (
	// EvNone is the zero event type (never emitted).
	EvNone EventType = iota
	// EvJobSubmit marks a job becoming eligible (its DAG dependencies
	// cleared); Value carries the instant its submit overhead elapses.
	EvJobSubmit
	// EvStageStart marks a job stage materializing its pending tasks.
	EvStageStart
	// EvStageFinish spans a completed job stage (Time = start, Dur = span).
	EvStageFinish
	// EvTaskStart marks a task launching in a granted container.
	EvTaskStart
	// EvTaskFinish spans a completed task (Time = start, Dur = span);
	// Resource names the bottleneck the task was bound by longest, Value
	// the node it ran on in node-aware mode (-1 otherwise).
	EvTaskFinish
	// EvTaskRetry marks a failed task attempt being re-executed.
	EvTaskRetry
	// EvSubStageFinish spans one pipelined sub-stage of a task (Time =
	// start, Dur = span); Resource names the sub-stage's resolved
	// bottleneck at completion — the paper's per-sub-stage BOE view.
	EvSubStageFinish
	// EvStateOpen marks a workflow state opening (the running job/stage
	// set changed); Detail lists the set.
	EvStateOpen
	// EvStateClose spans a closed workflow state (Time = start, Dur =
	// span); Resource names the dominant resource, Value its utilization.
	EvStateClose
	// EvAllocGrant records a scheduler allocation decision: Job received
	// Value containers under the Detail policy.
	EvAllocGrant
	// EvEstimatorIter marks one iteration of Algorithm 1's state loop;
	// Seq is the iteration, Value the number of running jobs.
	EvEstimatorIter
	// EvEstimatorState marks the estimator opening a predicted workflow
	// state; Detail lists the running job/stage set.
	EvEstimatorState
	// EvPoolJob spans one job executed by the parallel evaluation engine
	// (Time = start, Dur = span, both wall clock relative to the pool's
	// start); Seq is the job's input index, Detail the pool label, and
	// Value 1 when the job returned an error, 0 otherwise.
	EvPoolJob
	// EvRunStart is emitted once when a producer begins a run, making the
	// trace self-describing for offline consumers (trace-driven
	// calibration reads it back): Job carries the workflow name, Seq the
	// cluster's node count, Value its effective total task slots, and
	// Detail is "skew" when task-size skew is active for the run.
	EvRunStart
	// EvRequest spans one HTTP request served by the prediction daemon
	// (Time = seconds since server start, Dur = handling span); Detail is
	// "METHOD /path", Value the response status code, and Seq the
	// server-assigned request ordinal tying the request to its
	// EvRequestPhase children.
	EvRequest
	// EvRequestPhase spans one phase of a served request — decode,
	// coalesce-wait, estimate, encode — (Time = seconds since server
	// start, Dur = phase span); Detail names the phase and Seq carries
	// the owning request's ordinal, so exporters can nest phases under
	// their request like sub-stages under a task.
	EvRequestPhase
)

// String names the event type as exporters print it.
func (t EventType) String() string {
	switch t {
	case EvJobSubmit:
		return "job_submit"
	case EvStageStart:
		return "stage_start"
	case EvStageFinish:
		return "stage_finish"
	case EvTaskStart:
		return "task_start"
	case EvTaskFinish:
		return "task_finish"
	case EvTaskRetry:
		return "task_retry"
	case EvSubStageFinish:
		return "substage_finish"
	case EvStateOpen:
		return "state_open"
	case EvStateClose:
		return "state_close"
	case EvAllocGrant:
		return "alloc_grant"
	case EvEstimatorIter:
		return "estimator_iter"
	case EvEstimatorState:
		return "estimator_state"
	case EvPoolJob:
		return "pool_job"
	case EvRunStart:
		return "run_start"
	case EvRequest:
		return "request"
	case EvRequestPhase:
		return "request_phase"
	}
	return fmt.Sprintf("event(%d)", uint8(t))
}

// Event is one structured observation. It is a flat value type — no
// pointers, no maps — so constructing one on the enabled path costs a
// stack write and skipping one on the disabled path costs a single
// branch. Span-shaped events (Ev*Finish, EvStateClose) carry Time as the
// span's start and Dur as its length; instant events leave Dur zero.
type Event struct {
	Type EventType
	// Time is seconds since workflow submission (model time, not wall
	// clock) — the span start for *Finish/*Close events.
	Time float64
	// Dur is the span length in seconds for span-shaped events.
	Dur float64
	// Job and Stage locate the event in the workflow ("" when global).
	Job   string
	Stage string
	// Sub names the pipelined sub-stage for EvSubStageFinish.
	Sub string
	// Task is the task ordinal within its stage (-1 when not task-scoped).
	Task int
	// Seq numbers states and estimator iterations.
	Seq int
	// Resource names the resolved bottleneck for bottleneck-carrying
	// events (task, sub-stage, state).
	Resource string
	// Value is a generic numeric payload (granted containers, node index,
	// dominant utilization, running-job count — see each type's doc).
	Value float64
	// Detail is a generic string payload (state member sets, policy name).
	Detail string
	// Demand carries the bytes an EvSubStageFinish moved per resource
	// class — the D_X the sub-stage was derived from, post skew scaling.
	// Indices follow internal/cluster.Resource declaration order (see
	// DemandResourceNames); zero for events that move no data. Recording
	// demands alongside durations makes traces invertible: offline
	// calibration recovers θ_X = D_X/duration without rerunning anything.
	Demand [NumDemandResources]float64
}

// NumDemandResources sizes Event.Demand. It must equal
// internal/cluster.NumResources (asserted at compile time in
// internal/simulator); obs stays standard-library-only, so the constant
// is mirrored here rather than imported.
const NumDemandResources = 4

// DemandResourceNames names each Event.Demand slot, in index order,
// matching internal/cluster.Resource.String(). Exporters use these names
// so trace consumers can key byte counts by resource without importing
// the cluster package.
var DemandResourceNames = [NumDemandResources]string{
	"cpu", "disk-read", "disk-write", "network",
}

// Tracer receives structured events. Implementations must be safe for
// concurrent use; the simulator and estimator emit from a single
// goroutine but nothing stops callers from sharing one tracer across
// runs. Emit is only called after Enabled() returned true, so a
// permanently disabled tracer never sees events (and the caller never
// builds them).
type Tracer interface {
	// Enabled reports whether the tracer wants events at all. Callers
	// check it once per emit site — the allocation-free-when-disabled
	// contract.
	Enabled() bool
	// Emit delivers one event.
	Emit(Event)
}

// nop is the default tracer: disabled, drops everything.
type nop struct{}

func (nop) Enabled() bool { return false }
func (nop) Emit(Event)    {}

// Nop is the no-op Tracer: Enabled is false and Emit discards.
var Nop Tracer = nop{}

// Recorder is an in-memory Tracer: it appends every event to a slice,
// ready for export. Safe for concurrent emitters.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns an empty enabled recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Enabled implements Tracer (always true).
func (r *Recorder) Enabled() bool { return true }

// Emit implements Tracer.
func (r *Recorder) Emit(ev Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Events returns a copy of everything recorded, in emission order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// ByType returns the recorded events of one type, in emission order.
func (r *Recorder) ByType(t EventType) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, ev := range r.events {
		if ev.Type == t {
			out = append(out, ev)
		}
	}
	return out
}

// Options bundles the two observability sinks an instrumented component
// accepts. The zero value is fully disabled and costs one branch per
// emit site.
type Options struct {
	// Tracer receives structured events (nil or Nop = off).
	Tracer Tracer
	// Metrics receives counter/gauge/histogram updates (nil = off).
	Metrics *Registry
}

// TracerOn reports whether event emission is live. Call it before
// constructing an Event so the disabled path allocates nothing.
func (o Options) TracerOn() bool { return o.Tracer != nil && o.Tracer.Enabled() }

// MetricsOn reports whether metric recording is live.
func (o Options) MetricsOn() bool { return o.Metrics != nil }
