package profile

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"boedag/internal/cluster"
	"boedag/internal/dag"
	"boedag/internal/simulator"
	"boedag/internal/units"
	"boedag/internal/workload"
)

func sampleProfile() StageProfile {
	return StageProfile{
		Job:         "wc",
		Stage:       workload.Map,
		Parallelism: 8,
		TaskTimes: []time.Duration{
			10 * time.Second, 12 * time.Second, 8 * time.Second,
			11 * time.Second, 9 * time.Second,
		},
		Bottleneck: cluster.CPU,
	}
}

func TestStatistics(t *testing.T) {
	p := sampleProfile()
	if got := p.Median(); got != 10*time.Second {
		t.Errorf("Median = %v, want 10s", got)
	}
	if got := p.Mean(); got != 10*time.Second {
		t.Errorf("Mean = %v, want 10s", got)
	}
	// Sample std of {8,9,10,11,12} s = sqrt(2.5) ≈ 1.5811 s.
	want := math.Sqrt(2.5)
	if got := p.StdDev().Seconds(); math.Abs(got-want) > 1e-6 {
		t.Errorf("StdDev = %vs, want %vs", got, want)
	}
}

func TestStatisticsEmptyAndSingle(t *testing.T) {
	var empty StageProfile
	if empty.Median() != 0 || empty.Mean() != 0 || empty.StdDev() != 0 {
		t.Error("empty profile stats not zero")
	}
	one := StageProfile{TaskTimes: []time.Duration{5 * time.Second}}
	if one.Median() != 5*time.Second || one.Mean() != 5*time.Second {
		t.Error("single-task stats wrong")
	}
	if one.StdDev() != 0 {
		t.Error("single-task std should be 0")
	}
}

func TestMedianEvenCount(t *testing.T) {
	p := StageProfile{TaskTimes: []time.Duration{
		4 * time.Second, 1 * time.Second, 3 * time.Second, 2 * time.Second,
	}}
	if got := p.Median(); got != 2500*time.Millisecond {
		t.Errorf("even-count median = %v, want 2.5s", got)
	}
}

func TestQuantile(t *testing.T) {
	p := StageProfile{TaskTimes: []time.Duration{
		1 * time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second, 5 * time.Second,
	}}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0, time.Second},
		{1, 5 * time.Second},
		{-1, time.Second},
		{2, 5 * time.Second},
		{0.5, 3 * time.Second},
		{0.25, 2 * time.Second},
	}
	for _, c := range cases {
		if got := p.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	var empty StageProfile
	if empty.Quantile(0.5) != 0 {
		t.Error("empty quantile not zero")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	p := StageProfile{TaskTimes: []time.Duration{3 * time.Second, 1 * time.Second, 2 * time.Second}}
	before := append([]time.Duration(nil), p.TaskTimes...)
	p.Quantile(0.5)
	p.Median()
	if !reflect.DeepEqual(before, p.TaskTimes) {
		t.Error("quantile computation reordered the profile")
	}
}

func TestCaptureFromSimulation(t *testing.T) {
	p := workload.WordCount(5 * units.GB)
	res, err := simulator.New(cluster.PaperCluster(), simulator.Options{Seed: 1}).Run(dag.Single(p))
	if err != nil {
		t.Fatal(err)
	}
	set := Capture(res)
	if set.Workflow != "WC" {
		t.Errorf("workflow = %q", set.Workflow)
	}
	mp, ok := set.Stage("WC", workload.Map)
	if !ok {
		t.Fatal("map profile missing")
	}
	if len(mp.TaskTimes) != p.MapTasks() {
		t.Errorf("map profile has %d tasks, want %d", len(mp.TaskTimes), p.MapTasks())
	}
	if mp.Parallelism <= 0 {
		t.Error("no profiling parallelism recorded")
	}
	if _, ok := set.Stage("WC", workload.Reduce); !ok {
		t.Error("reduce profile missing")
	}
	if _, ok := set.Stage("nope", workload.Map); ok {
		t.Error("found a profile for an unknown job")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	set := &Set{
		Workflow: "test",
		Stages: map[string][]StageProfile{
			"wc": {sampleProfile()},
		},
	}
	var buf bytes.Buffer
	if err := set.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "task_times") {
		t.Error("JSON missing task_times field")
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(set, back) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", set, back)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}
