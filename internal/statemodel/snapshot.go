package statemodel

import (
	"fmt"
	"math"
	"time"

	"boedag/internal/dag"
	"boedag/internal/workload"
)

// JobPhase describes where a job stands in a Snapshot.
type JobPhase int

const (
	// JobPending has not started (dependencies may still be running).
	JobPending JobPhase = iota
	// JobMapping is in its map stage.
	JobMapping
	// JobReducing is in its reduce stage.
	JobReducing
	// JobFinished has completed both stages.
	JobFinished
)

// String names the phase.
func (p JobPhase) String() string {
	switch p {
	case JobPending:
		return "pending"
	case JobMapping:
		return "mapping"
	case JobReducing:
		return "reducing"
	case JobFinished:
		return "finished"
	}
	return "phase(?)"
}

// JobSnapshot is one job's observed progress.
type JobSnapshot struct {
	Phase JobPhase
	// TasksDone counts finished tasks of the current stage.
	TasksDone int
	// TasksRunning counts tasks currently in flight.
	TasksRunning int
	// RunningProgress is the mean completion fraction of the in-flight
	// tasks, as resource managers report per task; zero means unknown and
	// defaults to one half.
	RunningProgress float64
}

// Snapshot captures a workflow mid-flight: the input of online progress
// estimation (the ParaTimer use case the paper's introduction lists as
// "progress estimation"). Jobs absent from the map are treated as
// pending.
type Snapshot struct {
	Elapsed time.Duration
	Jobs    map[string]JobSnapshot
}

// EstimateRemainingWith predicts how much longer the workflow will run
// from the snapshotted state, using the same state-based iteration as
// Estimate. In-flight tasks are assumed half done on average. The
// returned plan's clock starts at zero = the snapshot instant.
//
// It runs on the given scratch arena, which must not be shared with a
// concurrent run; nil falls back to a fresh arena. Progress indicators
// that tick the same workflow hold one scratch across ticks, so each
// tick re-solves only the states its snapshot delta touched.
func (e *Estimator) EstimateRemainingWith(s *Scratch, w *dag.Workflow, snap Snapshot) (time.Duration, *Plan, error) {
	if s == nil {
		s = NewScratch()
	}
	if err := w.Validate(); err != nil {
		return 0, nil, err
	}
	doneJobs := make(map[string]bool)
	for _, j := range w.Jobs {
		if snap.Jobs[j.ID].Phase == JobFinished {
			doneJobs[j.ID] = true
		}
	}
	s.reset(len(w.Jobs))
	remaining := 0
	submitSeq := 0
	for _, j := range w.Jobs {
		js := snap.Jobs[j.ID]
		waiting := 0
		for _, d := range j.Deps {
			if !doneJobs[d] {
				waiting++
			}
		}
		ej := s.newJob(j.ID, j.Profile, waiting)
		if js.Phase != JobPending {
			ej.order = submitSeq // declaration order approximates history
			submitSeq++
		}
		switch js.Phase {
		case JobFinished:
			ej.phase = phaseDone
		case JobMapping, JobReducing:
			st := workload.Map
			if js.Phase == JobReducing {
				st = workload.Reduce
			}
			total := j.Profile.Tasks(st)
			if js.TasksDone > total {
				return 0, nil, fmt.Errorf("statemodel: snapshot: job %q has %d done of %d %s tasks",
					j.ID, js.TasksDone, total, st)
			}
			ej.phase = phaseRunning
			ej.stage = st
			prog := js.RunningProgress
			if prog <= 0 || prog > 1 {
				prog = 0.5 // unknown: assume half done on average
			}
			left := float64(total-js.TasksDone) - float64(js.TasksRunning)*prog
			ej.tasksLeft = math.Max(left, 0.25)
			ej.lastDelta = js.TasksRunning
			ej.se[st] = StageEstimate{Job: j.ID, Stage: st}
			ej.seen[st] = true
		default:
			if ej.waitingOn == 0 {
				// Dependencies satisfied but not yet observed running: it is
				// in the submit pipeline.
				ej.phase = phaseSubmitted
				ej.readyAt = e.Opt.JobSubmitOverhead.Seconds()
			} else {
				ej.phase = phaseWaiting
			}
		}
		if ej.phase != phaseDone {
			remaining++
		}
	}
	if remaining == 0 {
		return 0, &Plan{Workflow: w.Name}, nil
	}
	plan, err := e.run(s, w, remaining)
	if err != nil {
		return 0, nil, err
	}
	return plan.Makespan, plan, nil
}
