package statemodel_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"boedag/internal/boe"
	"boedag/internal/dag"
	"boedag/internal/experiments"
	"boedag/internal/sched"
	"boedag/internal/statemodel"
	"boedag/internal/synthdag"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenShapes are the benchmark's layered DAG shapes (layers × width,
// 100 to 250 jobs, fan-in 3).
var goldenShapes = [][2]int{{10, 10}, {16, 10}, {12, 12}, {8, 16}, {25, 10}}

// goldenPlan estimates flow the way the prediction service does (the
// paper cluster, BOE timer, default overheads) and returns the SHA-256
// of the plan's JSON.
func goldenPlan(t *testing.T, flow *dag.Workflow, opt statemodel.Options) string {
	t.Helper()
	cfg := experiments.Default()
	timer := &statemodel.BOETimer{Model: boe.New(cfg.Spec), TaskStartOverhead: cfg.TaskStartOverhead}
	opt.JobSubmitOverhead = cfg.JobSubmitOverhead
	plan, err := statemodel.New(cfg.Spec, timer, opt).Estimate(flow)
	if err != nil {
		t.Fatalf("%s: %v", flow.Name, err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(planJSON(t, plan)))
}

// TestPlanGolden pins the plan JSON, bit for bit, of the layered DAG
// shapes under every paper skew mode and two seeds, the wc+ts and
// ts+q21 hybrids under the FIFO, Fair and SPJF policies, so an
// allocator or solver change that moves any float or grant shows up. Regenerate with
// `go test ./internal/statemodel -run TestPlanGolden -update` only when
// the model changes on purpose.
func TestPlanGolden(t *testing.T) {
	var lines []string
	for _, shape := range goldenShapes {
		for _, seed := range []int64{1, 2} {
			flow := synthdag.Generate(synthdag.Config{Layers: shape[0], Width: shape[1], FanIn: 3, Seed: seed})
			for _, mode := range statemodel.Modes() {
				sum := goldenPlan(t, flow, statemodel.Options{Mode: mode})
				lines = append(lines, fmt.Sprintf("synth-l%d-w%d-s%d %s %s", shape[0], shape[1], seed, mode, sum))
			}
		}
	}
	for _, name := range []string{"wc+ts", "ts+q21"} {
		flow, err := experiments.BuildNamed(name, experiments.Default())
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []sched.Policy{sched.PolicyFIFO, sched.PolicyFair, sched.PolicySPJF} {
			for _, mode := range statemodel.Modes() {
				sum := goldenPlan(t, flow, statemodel.Options{Mode: mode, Policy: policy})
				lines = append(lines, fmt.Sprintf("%s/%s %s %s", name, policy, mode, sum))
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "plan_sha256.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got == string(want) {
		return
	}
	wl := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got, "\n") {
		if i >= len(wl) || line != wl[i] {
			t.Errorf("plan changed: got %s", line)
		}
	}
	t.Fatalf("plan golden mismatch (golden has %d lines)", len(wl))
}
