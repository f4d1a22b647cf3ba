package progress

import (
	"time"

	"boedag/internal/obs"
	"boedag/internal/statemodel"
	"boedag/internal/workload"
)

// LiveOptions tunes the online tracker.
type LiveOptions struct {
	// MinInterval throttles task-finish re-estimates in model time:
	// structural events (stage starts/finishes, state transitions) always
	// re-estimate, individual task finishes only after this much model time
	// has passed since the last estimate. ≤ 0 means the 5 s default.
	MinInterval time.Duration
}

// followBuffer is the subscriber channel capacity Follow uses: room for
// a run's events, since a dropped event skews the live task counts until
// the next stage boundary resets them.
const followBuffer = 1 << 16

func (o LiveOptions) minInterval() float64 {
	if o.MinInterval <= 0 {
		return 5.0
	}
	return o.MinInterval.Seconds()
}

// LivePoint is one online progress sample: at model instant Elapsed the
// indicator predicted PredictedRemaining more time. Unlike Point there is
// no ActualRemaining — the run is still in flight.
type LivePoint struct {
	Elapsed            time.Duration
	PredictedRemaining time.Duration
	// PercentComplete is measured task completion (finished / total tasks).
	PercentComplete float64
	// Err reports an estimation failure for this sample; the fold state
	// itself stays consistent and later samples may succeed.
	Err error
}

// liveJob is the fold state for one job: its phase plus done/running
// counts of the current stage, exactly the JobSnapshot fields.
type liveJob struct {
	phase     statemodel.JobPhase
	stage     workload.Stage
	done      int
	running   int
	hasReduce bool
}

// Tracker folds the simulator's observation events into a live
// statemodel.Snapshot and re-runs Algorithm 1 from that state — the
// online half of the progress indicator. Feed it events in emission
// order via Observe; it is a synchronous state machine (deterministic,
// no goroutines) so replayed event logs estimate identically to live
// streams. Use Follow for the streaming wrapper.
//
// The tracker must only see events from the real execution: estimator
// tracers re-emit predicted EvStageFinish events that would corrupt the
// fold, so the Indicator's estimator must not share the observed stream.
type Tracker struct {
	in      *Indicator
	opt     LiveOptions
	jobs    map[string]*liveJob
	total   int // tasks across all jobs and stages
	done    int // tasks finished so far
	elapsed float64
	lastEst float64
}

// NewTracker builds a tracker for the indicator's workflow. All jobs
// start pending.
func NewTracker(in *Indicator, opt LiveOptions) *Tracker {
	t := &Tracker{in: in, opt: opt, jobs: make(map[string]*liveJob, len(in.Flow.Jobs))}
	for _, j := range in.Flow.Jobs {
		t.jobs[j.ID] = &liveJob{hasReduce: j.Profile.ReduceTasks > 0}
		t.total += j.Profile.Tasks(workload.Map) + j.Profile.Tasks(workload.Reduce)
	}
	return t
}

// Observe folds one event. When the event warrants a re-estimate it
// returns the fresh sample and true; bookkeeping-only events return
// false. Elapsed advances monotonically to the latest instant any event
// has touched.
func (t *Tracker) Observe(ev obs.Event) (LivePoint, bool) {
	if end := ev.Time + ev.Dur; end > t.elapsed {
		t.elapsed = end
	}
	j := t.jobs[ev.Job]
	trigger := false
	switch ev.Type {
	case obs.EvStageStart:
		if j == nil {
			return LivePoint{}, false
		}
		j.done, j.running = 0, 0
		if ev.Stage == workload.Reduce.String() {
			j.stage, j.phase = workload.Reduce, statemodel.JobReducing
		} else {
			j.stage, j.phase = workload.Map, statemodel.JobMapping
		}
		trigger = true
	case obs.EvTaskStart:
		if j == nil {
			return LivePoint{}, false
		}
		j.running++
	case obs.EvTaskFinish:
		if j == nil {
			return LivePoint{}, false
		}
		if j.running > 0 {
			j.running--
		}
		j.done++
		t.done++
		trigger = t.elapsed-t.lastEst >= t.opt.minInterval()
	case obs.EvStageFinish:
		if j == nil {
			return LivePoint{}, false
		}
		// The map-stage finish of a two-stage job keeps the job in
		// JobMapping with every map done — the same convention SnapshotAt
		// uses; the reduce EvStageStart moves it on.
		if j.stage == workload.Reduce || !j.hasReduce {
			j.phase = statemodel.JobFinished
		}
		trigger = true
	case obs.EvStateOpen:
		trigger = true
	default:
		return LivePoint{}, false
	}
	if !trigger {
		return LivePoint{}, false
	}
	return t.estimate(), true
}

// Snapshot exports the current fold state in the estimator's input form.
func (t *Tracker) Snapshot() statemodel.Snapshot {
	snap := statemodel.Snapshot{
		Elapsed: seconds(t.elapsed),
		Jobs:    make(map[string]statemodel.JobSnapshot, len(t.jobs)),
	}
	for id, j := range t.jobs {
		snap.Jobs[id] = statemodel.JobSnapshot{
			Phase:        j.phase,
			TasksDone:    j.done,
			TasksRunning: j.running,
			// RunningProgress stays zero: the event stream carries task
			// boundaries, not per-task completion fractions, so the
			// estimator's half-done default applies.
		}
	}
	return snap
}

// estimate runs Algorithm 1 from the current fold state.
func (t *Tracker) estimate() LivePoint {
	t.lastEst = t.elapsed
	p := LivePoint{Elapsed: seconds(t.elapsed)}
	if t.total > 0 {
		p.PercentComplete = 100 * float64(t.done) / float64(t.total)
	}
	p.PredictedRemaining, p.Err = t.in.Remaining(t.Snapshot())
	return p
}

func seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// Follow subscribes to the stream and runs a Tracker over it in a
// goroutine, delivering one LivePoint per re-estimate. The returned
// channel closes once the stream does (after its buffered tail is
// drained), so `for p := range Follow(...)` terminates when the observed
// run finishes and the producer closes the stream.
//
// The subscriber uses the DropNewest policy: under overload the early
// structural events survive and the fold degrades by undercounting
// recent finishes rather than by losing stage boundaries.
func Follow(stream *obs.Stream, in *Indicator, opt LiveOptions) <-chan LivePoint {
	sub := stream.SubscribeWith(followBuffer, obs.DropNewest)
	out := make(chan LivePoint, 16)
	tr := NewTracker(in, opt)
	go func() {
		defer close(out)
		for ev := range sub.Events() {
			if p, ok := tr.Observe(ev); ok {
				out <- p
			}
		}
	}()
	return out
}
