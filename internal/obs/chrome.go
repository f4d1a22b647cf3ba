package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace_event format (the JSON
// Object Format of the Trace Event specification, consumed by
// chrome://tracing and Perfetto). Timestamps and durations are in
// microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level object format envelope.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Track assignment: pid 0 is the workflow-global track (states, scheduler
// decisions, estimator iterations); each job gets its own pid ≥ 1 with
// one thread row per task index, so the task execution plan reads like
// the paper's Figure 1 when opened in Perfetto.
const (
	workflowPID  = 0
	statesTID    = 0
	schedTID     = 1
	estimatorTID = 2
	evalpoolTID  = 3
	runMetaTID   = 4
)

// demandArgs renders a non-zero Event.Demand as a bytes-by-resource map,
// nil when the event moved no data. The keys are DemandResourceNames —
// the load-bearing half of the trace schema contract: offline
// calibration (internal/calibrate) reads these fields back to recover
// θ_X from recorded runs.
func demandArgs(ev Event) map[string]any {
	var out map[string]any
	for i, b := range ev.Demand {
		if b <= 0 {
			continue
		}
		if out == nil {
			out = make(map[string]any, NumDemandResources)
		}
		out[DemandResourceNames[i]] = b
	}
	return out
}

const usPerSec = 1e6

// WriteChromeTrace exports recorded events as Chrome trace_event JSON.
// Load the file in chrome://tracing or https://ui.perfetto.dev: task and
// sub-stage spans appear on per-job tracks, workflow states and
// scheduler allocation decisions on the workflow track.
func WriteChromeTrace(w io.Writer, events []Event) error {
	return WriteChromeTraceAnnotated(w, events, nil)
}

// WriteChromeTraceAnnotated is WriteChromeTrace with derived analysis
// annotations merged into the matching spans' args. Annotations never
// replace recorded args: on a key collision the recorded value wins
// (see mergeArgs), so e.g. a sub-stage's "bytes" map and the run
// metadata the calibration parser depends on survive annotation.
func WriteChromeTraceAnnotated(w io.Writer, events []Event, ann *TraceAnnotations) error {
	trace := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}

	// Deterministic pid per job: sorted job names, starting at 1.
	jobSet := make(map[string]bool)
	for _, ev := range events {
		// EvRunStart's Job is the workflow name, not a job: it renders on
		// the workflow track, not a per-job one.
		if ev.Job != "" && ev.Type != EvRunStart {
			jobSet[ev.Job] = true
		}
	}
	jobNames := make([]string, 0, len(jobSet))
	for j := range jobSet {
		jobNames = append(jobNames, j)
	}
	sort.Strings(jobNames)
	jobPID := make(map[string]int, len(jobNames))
	for i, j := range jobNames {
		jobPID[j] = i + 1
	}

	// Service requests (the prediction daemon's EvRequest/EvRequestPhase
	// spans) get their own process track after the jobs; each request's
	// ordinal is its thread row, so concurrent requests stack and a
	// request's phases nest inside its span like sub-stages in a task.
	servicePID := len(jobNames) + 1
	hasRequests := false
	for _, ev := range events {
		if ev.Type == EvRequest || ev.Type == EvRequestPhase {
			hasRequests = true
			break
		}
	}

	meta := func(pid int, name string) {
		trace.TraceEvents = append(trace.TraceEvents,
			chromeEvent{Name: "process_name", Phase: "M", PID: pid,
				Args: map[string]any{"name": name}},
			chromeEvent{Name: "process_sort_index", Phase: "M", PID: pid,
				Args: map[string]any{"sort_index": pid}},
		)
	}
	meta(workflowPID, "workflow")
	for _, j := range jobNames {
		meta(jobPID[j], "job "+j)
	}
	if hasRequests {
		meta(servicePID, "service")
	}

	for _, ev := range events {
		switch ev.Type {
		case EvTaskFinish:
			trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
				Name: fmt.Sprintf("%s[%d]", ev.Stage, ev.Task), Cat: "task",
				Phase: "X", TS: ev.Time * usPerSec, Dur: ev.Dur * usPerSec,
				PID: jobPID[ev.Job], TID: ev.Task,
				Args: map[string]any{
					"bottleneck": ev.Resource, "node": int(ev.Value),
					"job": ev.Job, "stage": ev.Stage, "task": ev.Task,
				},
			})
		case EvSubStageFinish:
			args := map[string]any{
				"bottleneck": ev.Resource,
				"job":        ev.Job, "stage": ev.Stage, "task": ev.Task, "sub": ev.Sub,
			}
			if d := demandArgs(ev); d != nil {
				args["bytes"] = d
			}
			trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
				Name: ev.Sub, Cat: "substage",
				Phase: "X", TS: ev.Time * usPerSec, Dur: ev.Dur * usPerSec,
				PID: jobPID[ev.Job], TID: ev.Task,
				Args: args,
			})
		case EvStageFinish:
			args := map[string]any{
				"job": ev.Job, "stage": ev.Stage, "bottleneck": ev.Resource,
			}
			trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
				Name: ev.Job + "/" + ev.Stage, Cat: "stage",
				Phase: "X", TS: ev.Time * usPerSec, Dur: ev.Dur * usPerSec,
				PID: jobPID[ev.Job], TID: -1,
				Args: mergeArgs(args, ann.stageArgs(ev.Job, ev.Stage)),
			})
		case EvStateClose:
			trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
				Name: fmt.Sprintf("state %d", ev.Seq), Cat: "state",
				Phase: "X", TS: ev.Time * usPerSec, Dur: ev.Dur * usPerSec,
				PID: workflowPID, TID: statesTID,
				Args: mergeArgs(map[string]any{
					"running": ev.Detail, "dominant": ev.Resource,
					"utilization": ev.Value,
				}, ann.stateArgs(ev.Seq)),
			})
		case EvAllocGrant:
			trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
				Name: "grant " + ev.Job, Cat: "sched",
				Phase: "i", TS: ev.Time * usPerSec,
				PID: workflowPID, TID: schedTID, Scope: "t",
				Args: map[string]any{
					"job": ev.Job, "granted": int(ev.Value), "policy": ev.Detail,
				},
			})
		case EvTaskRetry:
			trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
				Name: fmt.Sprintf("retry %s[%d]", ev.Stage, ev.Task), Cat: "task",
				Phase: "i", TS: ev.Time * usPerSec,
				PID: jobPID[ev.Job], TID: ev.Task, Scope: "t",
			})
		case EvJobSubmit:
			trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
				Name: "submit " + ev.Job, Cat: "job",
				Phase: "i", TS: ev.Time * usPerSec,
				PID: jobPID[ev.Job], TID: -1, Scope: "p",
			})
		case EvEstimatorState:
			trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
				Name: fmt.Sprintf("est state %d", ev.Seq), Cat: "estimator",
				Phase: "i", TS: ev.Time * usPerSec,
				PID: workflowPID, TID: estimatorTID, Scope: "t",
				Args: map[string]any{"running": ev.Detail},
			})
		case EvRunStart:
			trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
				Name: "run", Cat: "meta",
				Phase: "i", TS: ev.Time * usPerSec,
				PID: workflowPID, TID: runMetaTID, Scope: "g",
				Args: mergeArgs(map[string]any{
					"workflow": ev.Job,
					"nodes":    ev.Seq,
					"slots":    int(ev.Value),
					"skew":     ev.Detail == "skew",
				}, ann.runArgs()),
			})
		case EvPoolJob:
			trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
				Name: fmt.Sprintf("%s[%d]", ev.Detail, ev.Seq), Cat: "evalpool",
				Phase: "X", TS: ev.Time * usPerSec, Dur: ev.Dur * usPerSec,
				PID: workflowPID, TID: evalpoolTID,
				Args: map[string]any{"index": ev.Seq, "failed": ev.Value > 0},
			})
		case EvRequest:
			trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
				Name: ev.Detail, Cat: "request",
				Phase: "X", TS: ev.Time * usPerSec, Dur: ev.Dur * usPerSec,
				PID: servicePID, TID: ev.Seq,
				Args: map[string]any{"request": ev.Seq, "status": int(ev.Value)},
			})
		case EvRequestPhase:
			trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
				Name: ev.Detail, Cat: "reqphase",
				Phase: "X", TS: ev.Time * usPerSec, Dur: ev.Dur * usPerSec,
				PID: servicePID, TID: ev.Seq,
				Args: map[string]any{"request": ev.Seq, "phase": ev.Detail},
			})
		// EvTaskStart, EvStageStart, EvStateOpen and EvEstimatorIter are
		// redundant with the span events above in the Chrome view; they
		// stay in the raw stream for programmatic consumers.
		default:
		}
	}

	enc := json.NewEncoder(w)
	if err := enc.Encode(trace); err != nil {
		return fmt.Errorf("obs: write chrome trace: %w", err)
	}
	return nil
}
