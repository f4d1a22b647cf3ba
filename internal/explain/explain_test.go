package explain

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"boedag/internal/boe"
	"boedag/internal/evalpool"
	"boedag/internal/experiments"
	"boedag/internal/profile"
	"boedag/internal/statemodel"
)

// testEstimator builds the standard BOE-backed estimator the CLIs use,
// over a scaled-down configuration so the full registry stays fast.
func testEstimator(cfg experiments.Config) *statemodel.Estimator {
	return statemodel.New(cfg.Spec,
		&statemodel.BOETimer{Model: boe.New(cfg.Spec), TaskStartOverhead: cfg.TaskStartOverhead},
		statemodel.Options{Mode: statemodel.NormalMode, JobSubmitOverhead: cfg.JobSubmitOverhead})
}

// TestCriticalPathExactAcrossRegistry is the acceptance gate: for every
// registered workflow (TPC-H, HiBench, micro, hybrid, probes) the
// critical path is a contiguous chain from 0 to the makespan whose
// interval durations sum to it exactly, and both attributions cover
// 100% of the makespan, in integer time.Duration arithmetic.
func TestCriticalPathExactAcrossRegistry(t *testing.T) {
	cfg := experiments.Scaled(8)
	est := testEstimator(cfg)
	for _, name := range experiments.WorkflowNames() {
		if name == "synth-10k" {
			// A 10k-job estimate is ~a minute of CPU (tens of minutes
			// under -race) and exercises nothing this test doesn't already
			// cover at synth-1k; the 10k point is pinned by
			// BenchmarkEstimate10kJobs instead.
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			flow, err := experiments.BuildNamed(name, cfg)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			// The attribution alone: the θ-sensitivity re-runs have
			// their own test.
			plan, err := est.Estimate(flow)
			if err != nil {
				t.Fatalf("estimate: %v", err)
			}
			e := &Explanation{Makespan: plan.Makespan, CriticalPath: criticalPath(plan, flow), Resources: resourceShares(plan)}
			e.Jobs = jobShares(plan.Makespan, e.CriticalPath)
			if e.Makespan <= 0 {
				t.Fatalf("makespan = %v", e.Makespan)
			}
			if len(e.CriticalPath) == 0 {
				t.Fatal("empty critical path")
			}
			// Contiguity: starts at 0, ends at the makespan, no gaps.
			if got := e.CriticalPath[0].Start; got != 0 {
				t.Errorf("path starts at %v, want 0", got)
			}
			if got := e.CriticalPath[len(e.CriticalPath)-1].End; got != e.Makespan {
				t.Errorf("path ends at %v, want makespan %v", got, e.Makespan)
			}
			var sum time.Duration
			for i, iv := range e.CriticalPath {
				if iv.End <= iv.Start {
					t.Errorf("interval %d empty: %+v", i, iv)
				}
				if i > 0 && iv.Start != e.CriticalPath[i-1].End {
					t.Errorf("gap before interval %d: %v != %v",
						i, e.CriticalPath[i-1].End, iv.Start)
				}
				if iv.Resource == "" {
					t.Errorf("interval %d untagged: %+v", i, iv)
				}
				sum += iv.Duration()
			}
			if sum != e.Makespan {
				t.Errorf("critical path sums to %v, want exactly %v", sum, e.Makespan)
			}
			var res time.Duration
			for _, rs := range e.Resources {
				res += rs.Dur
			}
			if res != e.Makespan {
				t.Errorf("resource attribution covers %v of %v", res, e.Makespan)
			}
			var jobs time.Duration
			for _, js := range e.Jobs {
				jobs += js.Dur
			}
			if jobs != e.Makespan {
				t.Errorf("job attribution covers %v of %v", jobs, e.Makespan)
			}
		})
	}
}

// TestSensitivityTable checks the θ table: one row per resource class,
// perturbed makespans no slower than base (more throughput can't hurt a
// work-conserving model), the best flag on the largest saving, and the
// single-flight cache making the second explanation free.
func TestSensitivityTable(t *testing.T) {
	cfg := experiments.Scaled(8)
	est := testEstimator(cfg)
	flow, err := experiments.BuildNamed("wc+ts", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := evalpool.NewPlanCache()
	e, err := Explain(context.Background(), est, flow, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Sensitivity) != 4 {
		t.Fatalf("got %d sensitivity rows, want 4", len(e.Sensitivity))
	}
	bestN, bestDelta := 0, 0.0
	for _, s := range e.Sensitivity {
		if s.Epsilon != 0.10 {
			t.Errorf("%s: epsilon %v, want default 0.10", s.Parameter, s.Epsilon)
		}
		if s.BaseS != e.MakespanS {
			t.Errorf("%s: base %v != makespan %v", s.Parameter, s.BaseS, e.MakespanS)
		}
		// More throughput is almost never slower, but the fluid state
		// stepping is not strictly monotone — allow sub-percent wiggle.
		if s.PerturbedS <= 0 || s.PerturbedS > s.BaseS*1.01 {
			t.Errorf("%s: perturbed %v vs base %v", s.Parameter, s.PerturbedS, s.BaseS)
		}
		if s.Best {
			bestN++
			bestDelta = s.DeltaS
		}
		if s.DeltaS > 0 && s.GradientS >= 0 {
			t.Errorf("%s: saving %v but gradient %v not negative", s.Parameter, s.DeltaS, s.GradientS)
		}
	}
	if bestN != 1 {
		t.Fatalf("got %d best flags, want 1", bestN)
	}
	for _, s := range e.Sensitivity {
		if s.DeltaS > bestDelta+1e-12 {
			t.Errorf("%s saves %v > flagged best %v", s.Parameter, s.DeltaS, bestDelta)
		}
	}

	_, misses0 := cache.Stats()
	if _, err := Explain(context.Background(), est, flow, Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if _, misses := cache.Stats(); misses != misses0 {
		t.Errorf("second explanation recomputed plans: misses %d -> %d", misses0, misses)
	}
}

// TestExplainDeterministicAcrossWorkers pins the satellite contract:
// the JSON report is byte-identical at 1 and 8 workers.
func TestExplainDeterministicAcrossWorkers(t *testing.T) {
	cfg := experiments.Scaled(8)
	est := testEstimator(cfg)
	for _, name := range []string{"wc+ts", "q5", "pagerank"} {
		flow, err := experiments.BuildNamed(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got [2]bytes.Buffer
		for i, workers := range []int{1, 8} {
			e, err := Explain(context.Background(), est, flow, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.WriteJSON(&got[i]); err != nil {
				t.Fatal(err)
			}
		}
		if got[0].String() != got[1].String() {
			t.Errorf("%s: explain JSON differs between -workers 1 and 8", name)
		}
	}
}

// TestProfileTimerSkipsSensitivity: profiles carry no θ to perturb.
func TestProfileTimerSkipsSensitivity(t *testing.T) {
	cfg := experiments.Scaled(8)
	flow, err := experiments.BuildNamed("wc", cfg)
	if err != nil {
		t.Fatal(err)
	}
	boeEst := testEstimator(cfg)
	est := statemodel.New(cfg.Spec,
		&statemodel.ProfileTimer{Profiles: &profile.Set{}, Fallback: boeEst.Timer},
		boeEst.Opt)
	e, err := Explain(context.Background(), est, flow, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Sensitivity) != 0 {
		t.Fatalf("profile-backed estimator produced a θ table: %+v", e.Sensitivity)
	}
	if len(e.CriticalPath) == 0 {
		t.Fatal("critical path should not depend on the timer kind")
	}
}

// TestReportText sanity-checks the human-readable rendering.
func TestReportText(t *testing.T) {
	cfg := experiments.Scaled(8)
	est := testEstimator(cfg)
	flow, err := experiments.BuildNamed("webanalytics", cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Explain(context.Background(), est, flow, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"critical path", "resource attribution", "job attribution",
		"θ-sensitivity", "← best",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
}

// TestTraceAnnotations checks the exporter bridge: critical stages get
// args.critical=true, states their dominant tag, the run its overall
// bottleneck and best θ parameter.
func TestTraceAnnotations(t *testing.T) {
	cfg := experiments.Scaled(8)
	est := testEstimator(cfg)
	flow, err := experiments.BuildNamed("wc+ts", cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Explain(context.Background(), est, flow, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := e.TraceAnnotations()
	if len(a.Stage) == 0 {
		t.Fatal("no stage annotations")
	}
	for key, m := range a.Stage {
		if m["critical"] != true {
			t.Errorf("%s: critical arg = %v", key, m["critical"])
		}
		if s, ok := m["critical_s"].(float64); !ok || s <= 0 {
			t.Errorf("%s: critical_s = %v", key, m["critical_s"])
		}
		if r, ok := m["critical_resource"].(string); !ok || r == "" {
			t.Errorf("%s: critical_resource = %v", key, m["critical_resource"])
		}
	}
	if len(a.State) != len(e.States) {
		t.Errorf("annotated %d states, want %d", len(a.State), len(e.States))
	}
	if _, ok := a.Run["bottleneck"].(string); !ok {
		t.Errorf("run bottleneck = %v", a.Run["bottleneck"])
	}
	if _, ok := a.Run["best_parameter"].(string); !ok {
		t.Errorf("run best_parameter = %v", a.Run["best_parameter"])
	}
}
