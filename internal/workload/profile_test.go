package workload

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"boedag/internal/cluster"
	"boedag/internal/units"
)

func validProfile() JobProfile {
	return JobProfile{
		Name:              "test",
		InputBytes:        10 * units.GB,
		SplitBytes:        128 * units.MB,
		ReduceTasks:       16,
		MapSelectivity:    0.5,
		ReduceSelectivity: 0.8,
		MapCPUCost:        2.0,
		ReduceCPUCost:     1.0,
		Replicas:          3,
		SortBufferBytes:   100 * units.MB,
	}
}

func paperSpec() cluster.Spec { return cluster.PaperCluster() }

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*JobProfile)
		want   string
	}{
		{"empty name", func(p *JobProfile) { p.Name = "" }, "name"},
		{"zero input", func(p *JobProfile) { p.InputBytes = 0 }, "input"},
		{"zero split", func(p *JobProfile) { p.SplitBytes = 0 }, "split"},
		{"negative reduces", func(p *JobProfile) { p.ReduceTasks = -1 }, "reduce tasks"},
		{"negative map sel", func(p *JobProfile) { p.MapSelectivity = -0.1 }, "selectivit"},
		{"negative reduce sel", func(p *JobProfile) { p.ReduceSelectivity = -0.1 }, "selectivit"},
		{"negative map cpu", func(p *JobProfile) { p.MapCPUCost = -1 }, "CPU"},
		{"negative replicas", func(p *JobProfile) { p.Replicas = -1 }, "replicas"},
		{"bad compression ratio", func(p *JobProfile) {
			p.Compression = Compression{Enabled: true, Ratio: 1.5}
		}, "compression"},
		{"zero compression ratio", func(p *JobProfile) {
			p.Compression = Compression{Enabled: true, Ratio: 0}
		}, "compression"},
		{"negative skew", func(p *JobProfile) { p.SkewCV = -0.5 }, "skew"},
	}
	for _, c := range cases {
		p := validProfile()
		c.mutate(&p)
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: Validate() accepted invalid profile", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	if err := validProfile().Validate(); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
}

func TestMapTasksRoundsUp(t *testing.T) {
	p := validProfile()
	p.InputBytes = 129 * units.MB // just over one split
	if got := p.MapTasks(); got != 2 {
		t.Errorf("MapTasks = %d, want 2", got)
	}
	p.InputBytes = 128 * units.MB
	if got := p.MapTasks(); got != 1 {
		t.Errorf("MapTasks = %d, want 1", got)
	}
	p.InputBytes = 1
	if got := p.MapTasks(); got != 1 {
		t.Errorf("MapTasks(min) = %d, want 1", got)
	}
}

func TestTasksPerStage(t *testing.T) {
	p := validProfile()
	if got := p.Tasks(Map); got != p.MapTasks() {
		t.Errorf("Tasks(Map) = %d, want %d", got, p.MapTasks())
	}
	if got := p.Tasks(Reduce); got != 16 {
		t.Errorf("Tasks(Reduce) = %d, want 16", got)
	}
}

func TestOutputByteAlgebra(t *testing.T) {
	p := validProfile() // 10 GB in, map sel 0.5, reduce sel 0.8
	wantMapOut := 5 * units.GB
	if got := p.MapOutputBytes(); math.Abs(float64(got-wantMapOut)) > 1 {
		t.Errorf("MapOutputBytes = %v, want %v", got, wantMapOut)
	}
	wantOut := 4 * units.GB
	if got := p.OutputBytes(); math.Abs(float64(got-wantOut)) > 1 {
		t.Errorf("OutputBytes = %v, want %v", got, wantOut)
	}
	// Compression shrinks the map output but not the logical reduce output.
	p.Compression = Compression{Enabled: true, Ratio: 0.4}
	if got := p.MapOutputBytes(); math.Abs(float64(got-2*units.GB)) > 1 {
		t.Errorf("compressed MapOutputBytes = %v, want 2GB", got)
	}
	if got := p.OutputBytes(); math.Abs(float64(got-wantOut)) > 1 {
		t.Errorf("OutputBytes with compression = %v, want %v (logical)", got, wantOut)
	}
}

func TestMapOnlyOutput(t *testing.T) {
	p := validProfile()
	p.ReduceTasks = 0
	want := p.InputBytes.Scale(p.MapSelectivity)
	if got := p.OutputBytes(); got != want {
		t.Errorf("map-only OutputBytes = %v, want %v", got, want)
	}
	if got := p.ReduceTaskInput(); got != 0 {
		t.Errorf("map-only ReduceTaskInput = %v, want 0", got)
	}
	if got := p.ReduceSubStages(paperSpec()); got != nil {
		t.Errorf("map-only ReduceSubStages = %v, want nil", got)
	}
}

func TestContainerDefaults(t *testing.T) {
	p := validProfile()
	if got := p.MemoryMB(Map); got != 1024 {
		t.Errorf("default MemoryMB = %d, want 1024", got)
	}
	if got := p.VCores(Reduce); got != 1 {
		t.Errorf("default VCores = %d, want 1", got)
	}
	p.MapMemoryMB, p.ReduceMemoryMB = 2048, 4096
	p.MapVCores, p.ReduceVCores = 2, 4
	if got := p.MemoryMB(Map); got != 2048 {
		t.Errorf("MemoryMB(Map) = %d, want 2048", got)
	}
	if got := p.MemoryMB(Reduce); got != 4096 {
		t.Errorf("MemoryMB(Reduce) = %d, want 4096", got)
	}
	if got := p.VCores(Map); got != 2 {
		t.Errorf("VCores(Map) = %d, want 2", got)
	}
	if got := p.VCores(Reduce); got != 4 {
		t.Errorf("VCores(Reduce) = %d, want 4", got)
	}
}

func TestMapSubStagesShape(t *testing.T) {
	p := validProfile()
	p.SortBufferBytes = 1000 * units.GB // never spill
	subs := p.MapSubStages(paperSpec())
	if len(subs) != 1 {
		t.Fatalf("map sub-stages = %d, want 1 (no spill)", len(subs))
	}
	ss := subs[0]
	in := p.MapTaskInput()
	if got := ss.Demand(cluster.DiskRead); got != in {
		t.Errorf("map read demand = %v, want split %v", got, in)
	}
	if got := ss.Demand(cluster.CPU); math.Abs(float64(got-in.Scale(2.0))) > 1 {
		t.Errorf("map cpu demand = %v, want %v", got, in.Scale(2.0))
	}
	if got := ss.Demand(cluster.DiskWrite); math.Abs(float64(got-in.Scale(0.5))) > 1 {
		t.Errorf("map write demand = %v, want %v", got, in.Scale(0.5))
	}
	if got := ss.Demand(cluster.Network); got != 0 {
		t.Errorf("map network demand = %v, want 0 (local write)", got)
	}
}

func TestMapSpillSubStage(t *testing.T) {
	p := validProfile()
	p.MapSelectivity = 1.0
	p.SortBufferBytes = 10 * units.MB // force a spill: 128 MB output
	subs := p.MapSubStages(paperSpec())
	if len(subs) != 2 {
		t.Fatalf("map sub-stages = %d, want 2 (spill merge)", len(subs))
	}
	if subs[1].Name != "spill-merge" {
		t.Errorf("second sub-stage = %q, want spill-merge", subs[1].Name)
	}
	out := p.MapTaskInput()
	if got := subs[1].Demand(cluster.DiskRead); math.Abs(float64(got-out)) > 1 {
		t.Errorf("spill read = %v, want %v", got, out)
	}
}

func TestCompressionAddsCPUAndShrinksOutput(t *testing.T) {
	base := validProfile()
	comp := base
	comp.Compression = Compression{Enabled: true, Ratio: 0.4, CPUOverhead: 0.5}

	b := base.MapSubStages(paperSpec())[0]
	c := comp.MapSubStages(paperSpec())[0]
	if c.Demand(cluster.DiskWrite) >= b.Demand(cluster.DiskWrite) {
		t.Error("compression did not shrink map output write")
	}
	if c.Demand(cluster.CPU) <= b.Demand(cluster.CPU) {
		t.Error("compression did not add CPU cost")
	}
}

func TestReduceSubStagesShape(t *testing.T) {
	p := validProfile()
	spec := paperSpec()
	subs := p.ReduceSubStages(spec)
	if len(subs) != 2 {
		t.Fatalf("reduce sub-stages = %d, want 2 (shuffle + reduce)", len(subs))
	}
	shuffle, reduce := subs[0], subs[1]
	if shuffle.Name != "shuffle" || reduce.Name != "reduce" {
		t.Fatalf("sub-stage names = %q, %q", shuffle.Name, reduce.Name)
	}
	in := p.ReduceTaskInput()
	// The shuffle reads nothing from disk (OS buffer cache on the map side)
	// and materializes its input once.
	if got := shuffle.Demand(cluster.DiskRead); got != 0 {
		t.Errorf("shuffle disk read = %v, want 0", got)
	}
	if got := shuffle.Demand(cluster.DiskWrite); math.Abs(float64(got-in)) > 1 {
		t.Errorf("shuffle disk write = %v, want %v", got, in)
	}
	// 10 of 11 nodes' worth of input crosses the network.
	wantNet := in.Scale(1 - 1.0/11)
	if got := shuffle.Demand(cluster.Network); math.Abs(float64(got-wantNet)) > 1 {
		t.Errorf("shuffle network = %v, want %v", got, wantNet)
	}
	// Replication: 3 disk writes and 2 network copies of the output.
	out := in.Scale(p.ReduceSelectivity)
	if got := reduce.Demand(cluster.DiskWrite); math.Abs(float64(got-out.Scale(3))) > 1 {
		t.Errorf("reduce disk write = %v, want 3 replicas %v", got, out.Scale(3))
	}
	if got := reduce.Demand(cluster.Network); math.Abs(float64(got-out.Scale(2))) > 1 {
		t.Errorf("reduce network = %v, want 2 remote replicas %v", got, out.Scale(2))
	}
}

func TestSingleReplicaHasNoReplicaTraffic(t *testing.T) {
	p := validProfile()
	p.Replicas = 1
	reduce := p.ReduceSubStages(paperSpec())[1]
	out := p.ReduceTaskInput().Scale(p.ReduceSelectivity)
	if got := reduce.Demand(cluster.DiskWrite); math.Abs(float64(got-out)) > 1 {
		t.Errorf("1-replica disk write = %v, want %v", got, out)
	}
	if got := reduce.Demand(cluster.Network); got != 0 {
		t.Errorf("1-replica network = %v, want 0", got)
	}
}

func TestSingleNodeClusterKeepsEverythingLocal(t *testing.T) {
	p := validProfile()
	spec := cluster.SingleNode(cluster.ExampleNode())
	shuffle := p.ReduceSubStages(spec)[0]
	if got := shuffle.Demand(cluster.Network); got != 0 {
		t.Errorf("single-node shuffle network = %v, want 0", got)
	}
	reduce := p.ReduceSubStages(spec)[1]
	if got := reduce.Demand(cluster.Network); got != 0 {
		t.Errorf("single-node replica network = %v, want 0", got)
	}
}

func TestStageString(t *testing.T) {
	if Map.String() != "map" || Reduce.String() != "reduce" {
		t.Errorf("Stage strings = %q, %q", Map, Reduce)
	}
}

func TestSubStageDemandMissingResource(t *testing.T) {
	ss := SubStage{Name: "x", Ops: []OpDemand{{Resource: cluster.CPU, Bytes: 5}}}
	if got := ss.Demand(cluster.Network); got != 0 {
		t.Errorf("Demand(missing) = %v, want 0", got)
	}
}

func TestTotalDemand(t *testing.T) {
	subs := []SubStage{
		{Ops: []OpDemand{{Resource: cluster.CPU, Bytes: 5}}},
		{Ops: []OpDemand{{Resource: cluster.CPU, Bytes: 7}, {Resource: cluster.Network, Bytes: 3}}},
	}
	if got := TotalDemand(subs, cluster.CPU); got != 12 {
		t.Errorf("TotalDemand(CPU) = %v, want 12", got)
	}
	if got := TotalDemand(subs, cluster.Network); got != 3 {
		t.Errorf("TotalDemand(Network) = %v, want 3", got)
	}
}

// Property: sub-stage demands scale linearly with input size.
func TestDemandLinearity(t *testing.T) {
	f := func(gb uint8) bool {
		in := units.Bytes(gb%32+1) * units.GB
		p := validProfile()
		p.InputBytes = in
		p.SplitBytes = in // one map task, so demands track the whole input
		p2 := p
		p2.InputBytes = in * 2
		p2.SplitBytes = in * 2
		a := p.MapSubStages(paperSpec())[0]
		b := p2.MapSubStages(paperSpec())[0]
		for _, r := range cluster.Resources() {
			x, y := float64(a.Demand(r)), float64(b.Demand(r))
			if math.Abs(y-2*x) > math.Max(1, x*1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: demands are never negative, whatever the selectivities.
func TestDemandsNonNegative(t *testing.T) {
	f := func(sel, rsel uint8, reduces uint8) bool {
		p := validProfile()
		p.MapSelectivity = float64(sel) / 64
		p.ReduceSelectivity = float64(rsel) / 64
		p.ReduceTasks = int(reduces)
		spec := paperSpec()
		for _, st := range []Stage{Map, Reduce} {
			for _, ss := range p.SubStages(st, spec) {
				for _, op := range ss.Ops {
					if op.Bytes < 0 {
						return false
					}
					if op.Bytes == 0 {
						return false // trimOps must drop zero ops
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMicroProfilesMatchTableI(t *testing.T) {
	in := 100 * units.GB
	wc := WordCount(in)
	if !wc.Compression.Enabled || wc.Replicas != 3 {
		t.Errorf("WC should be C=Y R=3, got C=%v R=%d", wc.Compression.Enabled, wc.Replicas)
	}
	tsc := TeraSortCompressed(in)
	if !tsc.Compression.Enabled || tsc.Replicas != 1 {
		t.Errorf("TSC should be C=Y R=1, got C=%v R=%d", tsc.Compression.Enabled, tsc.Replicas)
	}
	ts := TeraSort(in)
	if ts.Compression.Enabled || ts.Replicas != 1 {
		t.Errorf("TS should be C=N R=1, got C=%v R=%d", ts.Compression.Enabled, ts.Replicas)
	}
	ts3 := TeraSort3R(in)
	if ts3.Compression.Enabled || ts3.Replicas != 3 {
		t.Errorf("TS3R should be C=N R=3, got C=%v R=%d", ts3.Compression.Enabled, ts3.Replicas)
	}
	ts2 := TeraSort2R(in)
	if ts2.Replicas != 2 {
		t.Errorf("TS2R replicas = %d, want 2", ts2.Replicas)
	}
	for _, p := range []JobProfile{wc, tsc, ts, ts3, ts2} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if p.InputBytes != in {
			t.Errorf("%s input = %v, want %v", p.Name, p.InputBytes, in)
		}
	}
}
