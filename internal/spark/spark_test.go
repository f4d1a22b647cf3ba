package spark

import (
	"strings"
	"testing"

	"boedag/internal/cluster"
	"boedag/internal/simulator"
	"boedag/internal/units"
	"boedag/internal/workload"
)

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		l    *Lineage
		want string
	}{
		{"no name", &Lineage{Stages: []Stage{{ID: "a", InputBytes: units.GB}}}, "name"},
		{"no stages", &Lineage{Name: "x"}, "no stages"},
		{"empty id", &Lineage{Name: "x", Stages: []Stage{{InputBytes: units.GB}}}, "empty ID"},
		{"dup id", &Lineage{Name: "x", Stages: []Stage{
			{ID: "a", InputBytes: units.GB}, {ID: "a", InputBytes: units.GB},
		}}, "duplicate"},
		{"orphan", &Lineage{Name: "x", Stages: []Stage{{ID: "a"}}}, "no input"},
		{"unknown parent", &Lineage{Name: "x", Stages: []Stage{
			{ID: "a", Parents: []StageID{"zzz"}},
		}}, "unknown"},
		{"self parent", &Lineage{Name: "x", Stages: []Stage{
			{ID: "a", InputBytes: units.GB, Parents: []StageID{"a"}},
		}}, "itself"},
		{"negative shape", &Lineage{Name: "x", Stages: []Stage{
			{ID: "a", InputBytes: units.GB, CPUCost: -1},
		}}, "negative"},
	}
	for _, c := range cases {
		err := c.l.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.want)
		}
	}
}

func TestTranslateWordCount(t *testing.T) {
	w, err := Translate(WordCountLineage(10 * units.GB))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) != 2 {
		t.Fatalf("got %d jobs, want 2", len(w.Jobs))
	}
	tokenize := w.Job("tokenize")
	if tokenize == nil {
		t.Fatal("tokenize job missing")
	}
	// The stage above a shuffle boundary carries a reduce side.
	if tokenize.Profile.ReduceTasks == 0 {
		t.Error("shuffle-producing stage has no exchange")
	}
	counts := w.Job("counts")
	if counts == nil || len(counts.Deps) != 1 || counts.Deps[0] != "tokenize" {
		t.Fatalf("counts job wrong: %+v", counts)
	}
	// Terminal stage is map-only (the action writes its result).
	if counts.Profile.ReduceTasks != 0 {
		t.Error("terminal stage has a reduce side")
	}
	// Sizes propagate: counts reads tokenize's output.
	if counts.Profile.InputBytes != tokenize.Profile.OutputBytes() {
		t.Errorf("counts input %v != tokenize output %v",
			counts.Profile.InputBytes, tokenize.Profile.OutputBytes())
	}
}

func TestTranslateRejectsForwardReferences(t *testing.T) {
	l := &Lineage{Name: "x", Stages: []Stage{
		{ID: "child", Parents: []StageID{"parent"}},
		{ID: "parent", InputBytes: units.GB},
	}}
	if _, err := Translate(l); err == nil {
		t.Fatal("forward reference accepted")
	}
}

func TestTranslatedLineageSimulates(t *testing.T) {
	w, err := Translate(PageRankLineage(5*units.GB, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) != 4 {
		t.Fatalf("PageRank lineage → %d jobs, want 4", len(w.Jobs))
	}
	res, err := simulator.New(cluster.PaperCluster(), simulator.Options{Seed: 1}).Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("no makespan")
	}
	// The rank stages must run one after another (iterative dependency).
	for i := 1; i <= 2; i++ {
		cur := res.StageOf(w.Jobs[i].ID, workload.Map)
		next := res.StageOf(w.Jobs[i+1].ID, workload.Map)
		if cur == nil || next == nil {
			t.Fatalf("missing stage records for jobs %d/%d", i, i+1)
		}
		if next.Start < cur.End {
			t.Errorf("iteration %d started before %d finished", i+1, i)
		}
	}
}

func TestPartitionsDeriveFromInput(t *testing.T) {
	l := &Lineage{Name: "x", Stages: []Stage{
		{ID: "scan", InputBytes: units.GB}, // 1 GB / 128 MB → 9 partitions
	}}
	w, err := Translate(l)
	if err != nil {
		t.Fatal(err)
	}
	got := w.Jobs[0].Profile.MapTasks()
	if got < 8 || got > 10 {
		t.Errorf("derived %d partitions for 1 GB, want ≈ 9", got)
	}
}

func TestReducePartitionsClamped(t *testing.T) {
	if got := reducePartitions(units.MB); got != 2 {
		t.Errorf("tiny exchange → %d partitions, want 2", got)
	}
	if got := reducePartitions(100 * units.GB); got != 200 {
		t.Errorf("huge exchange → %d partitions, want 200", got)
	}
}

func TestDefaultsFillIn(t *testing.T) {
	l := &Lineage{Name: "x", Stages: []Stage{
		{ID: "scan", InputBytes: units.GB}, // zero selectivity/CPU default to 1
	}}
	w, err := Translate(l)
	if err != nil {
		t.Fatal(err)
	}
	p := w.Jobs[0].Profile
	if p.MapSelectivity != 1 || p.MapCPUCost != 1 {
		t.Errorf("defaults not applied: %+v", p)
	}
}
