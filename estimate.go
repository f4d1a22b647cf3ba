package boedag

import (
	"io"

	"boedag/internal/baseline"
	"boedag/internal/metrics"
	"boedag/internal/profile"
	"boedag/internal/simulator"
	"boedag/internal/statemodel"
	"boedag/internal/trace"
)

// Workflow-level estimation (the paper's §IV state-based approach).
type (
	// Estimator predicts DAG execution plans with Algorithm 1.
	Estimator = statemodel.Estimator
	// EstimatorOptions tune the estimator.
	EstimatorOptions = statemodel.Options
	// SkewMode selects mean / median / normal-distribution skew handling.
	SkewMode = statemodel.SkewMode
	// TaskTimer supplies task-time distributions to the estimator.
	TaskTimer = statemodel.TaskTimer
	// TaskTimeDist summarizes a predicted task-time distribution.
	TaskTimeDist = statemodel.TaskTimeDist
	// BOETimer drives the estimator with the BOE model.
	BOETimer = statemodel.BOETimer
	// ProfileTimer drives the estimator with measured profiles.
	ProfileTimer = statemodel.ProfileTimer
	// Plan is an estimated execution plan.
	Plan = statemodel.Plan
	// StageEstimate is one predicted job stage.
	StageEstimate = statemodel.StageEstimate
	// StateEstimate is one predicted workflow state.
	StateEstimate = statemodel.StateEstimate
)

// Skew modes (the paper's Table III rows).
const (
	// MeanMode is Alg1-Mean.
	MeanMode = statemodel.MeanMode
	// MedianMode is Alg1-Mid.
	MedianMode = statemodel.MedianMode
	// NormalMode is Alg2-Normal (expected-maximum straggler correction).
	NormalMode = statemodel.NormalMode
)

// NewEstimator returns a state-based estimator over the given task timer.
func NewEstimator(spec ClusterSpec, timer TaskTimer, opt EstimatorOptions) *Estimator {
	return statemodel.New(spec, timer, opt)
}

// SkewModes lists the three skew modes in table order.
func SkewModes() []SkewMode { return statemodel.Modes() }

// Profiles (historical job knowledge).
type (
	// ProfileSet holds measured per-stage task-time distributions.
	ProfileSet = profile.Set
	// StageProfile is one stage's measured distribution.
	StageProfile = profile.StageProfile
)

// CaptureProfiles extracts a profile set from a simulation result.
func CaptureProfiles(res *simulator.Result) *ProfileSet { return profile.Capture(res) }

// LoadProfiles reads a profile set saved with ProfileSet.Save.
func LoadProfiles(r io.Reader) (*ProfileSet, error) { return profile.Load(r) }

// Baselines (§V-B comparison models).
type (
	// ProfileReplay is the Starfish/MRTuner-style best-case baseline.
	ProfileReplay = baseline.ProfileReplay
	// Ernest is the scaling-law regression baseline.
	Ernest = baseline.Ernest
	// ErnestTrainingPoint is one (parallelism, task time) observation.
	ErnestTrainingPoint = baseline.TrainingPoint
)

// NewProfileReplay returns the profile-replay baseline over profiles.
func NewProfileReplay(p *ProfileSet) *ProfileReplay { return baseline.NewProfileReplay(p) }

// Accuracy is the paper's estimation accuracy: 1 − |est−actual|/actual,
// clamped to [0, 1].
var Accuracy = metrics.Accuracy

// RenderGantt prints a simulation result as a text Gantt chart with
// workflow states marked (the paper's Figure 1 layout).
var RenderGantt = trace.Gantt

// RenderPlan prints an estimated plan in the same layout for side-by-side
// comparison with RenderGantt output.
var RenderPlan = trace.Plan
