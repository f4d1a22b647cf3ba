package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"boedag/internal/boe"
	"boedag/internal/dag"
	"boedag/internal/experiments"
	"boedag/internal/metrics"
	"boedag/internal/obs"
	"boedag/internal/serve"
	"boedag/internal/simulator"
	"boedag/internal/statemodel"
	"boedag/internal/units"
)

// scenario is an estimate request materialized the way the service
// documents it (boepredict's defaults: the paper's cluster and
// overheads, the BOE task timer), re-derived here from the wire body so
// the benchmark can check the service against the library directly.
type scenario struct {
	flow *dag.Workflow
	cfg  experiments.Config
	opt  statemodel.Options
}

func scenarioOf(sc *serve.EstimateRequest) (*scenario, error) {
	cfg := experiments.Default()
	if sc.Options.MicroGB > 0 {
		cfg.MicroInput = units.Bytes(sc.Options.MicroGB) * units.GB
	}
	if sc.Options.TPCHScale > 0 {
		cfg.TPCHScale = sc.Options.TPCHScale
	}
	var flow *dag.Workflow
	var err error
	if len(sc.Spec) > 0 {
		flow, err = dag.LoadWorkflow(bytes.NewReader(sc.Spec))
	} else {
		flow, err = experiments.BuildNamed(sc.Workflow, cfg)
	}
	if err != nil {
		return nil, err
	}
	opt := statemodel.Options{JobSubmitOverhead: cfg.JobSubmitOverhead}
	switch sc.Options.Mode {
	case "median":
		opt.Mode = statemodel.MedianMode
	case "normal":
		opt.Mode = statemodel.NormalMode
	}
	if sc.Options.PerNode > 0 {
		opt.SlotLimit = sc.Options.PerNode * cfg.Spec.Nodes
	}
	return &scenario{flow: flow, cfg: cfg, opt: opt}, nil
}

func (s *scenario) boeTimer() *statemodel.BOETimer {
	return &statemodel.BOETimer{Model: boe.New(s.cfg.Spec), TaskStartOverhead: s.cfg.TaskStartOverhead}
}

// estimate runs the estimator directly with the given task timer,
// flushing its solver counters into reg (nil = none).
func (s *scenario) estimate(timer statemodel.TaskTimer, reg *obs.Registry) (*statemodel.Plan, error) {
	opt := s.opt
	opt.Observe.Metrics = reg
	return statemodel.New(s.cfg.Spec, timer, opt).Estimate(s.flow)
}

// simulate runs the scenario on the simulated cluster: the ground truth
// the paper's accuracy is measured against.
func (s *scenario) simulate() (time.Duration, error) {
	opt := s.cfg.SimOptions(s.cfg.Seed)
	opt.SlotLimit = s.opt.SlotLimit
	res, err := simulator.New(s.cfg.Spec, opt).Run(s.flow)
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// makespanOf reads makespan_s from an /v1/estimate response body.
func makespanOf(body []byte) (float64, error) {
	var resp serve.EstimateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("decode estimate response: %w", err)
	}
	return resp.MakespanS, nil
}

// accuracyPct is the mean of the paper's Table III accuracy over the
// sample: each served makespan against the simulator's makespan of the
// same scenario, as a percentage.
func accuracyPct(reqs []*serve.EstimateRequest, bodies [][]byte) (float64, error) {
	if len(reqs) == 0 {
		return 0, fmt.Errorf("accuracy: empty sample")
	}
	var accs []float64
	for k, sc := range reqs {
		predicted, err := makespanOf(bodies[k])
		if err != nil {
			return 0, err
		}
		s, err := scenarioOf(sc)
		if err != nil {
			return 0, err
		}
		actual, err := s.simulate()
		if err != nil {
			return 0, fmt.Errorf("accuracy: simulate %s: %w", s.flow.Name, err)
		}
		accs = append(accs, metrics.Accuracy(units.Seconds(predicted), actual))
	}
	return 100 * metrics.Mean(accs), nil
}
