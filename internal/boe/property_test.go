package boe

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"boedag/internal/cluster"
	"boedag/internal/units"
	"boedag/internal/workload"
)

// randomStage draws a task of one to four sub-stages, each demanding a
// random subset of the resources (at least one) in whole megabytes.
func randomStage(rng *rand.Rand) []workload.SubStage {
	subs := make([]workload.SubStage, 1+rng.Intn(4))
	for i := range subs {
		for len(subs[i].Ops) == 0 {
			for _, r := range cluster.Resources() {
				if rng.Intn(2) == 0 {
					subs[i].Ops = append(subs[i].Ops, workload.OpDemand{Resource: r, Bytes: units.Bytes(1+rng.Intn(4096)) * units.MB})
				}
			}
		}
	}
	return subs
}

// loneTaskTime is the task time of one of par identical tasks running
// subs with no other job on the cluster.
func loneTaskTime(m *Model, subs []workload.SubStage, par int) time.Duration {
	sv := GetSolver()
	defer PutSolver(sv)
	m.BeginState(sv, []TaskGroup{{Parallelism: par}}, []*StageInfo{{subs: subs, agg: aggregate(subs)}})
	return m.TaskTimeInState(sv, 0).Duration
}

// raise returns node with resource r's throughput θ_r multiplied by f.
func raise(node cluster.NodeSpec, r cluster.Resource, f float64) cluster.NodeSpec {
	switch r {
	case cluster.CPU:
		node.CoreThroughput = units.Rate(float64(node.CoreThroughput) * f)
	case cluster.DiskRead:
		node.DiskReadRate = units.Rate(float64(node.DiskReadRate) * f)
	case cluster.DiskWrite:
		node.DiskWriteRate = units.Rate(float64(node.DiskWriteRate) * f)
	case cluster.Network:
		node.NetworkRate = units.Rate(float64(node.NetworkRate) * f)
	}
	return node
}

// TestRaisingThroughputNeverSlowsTask: t = max_X D_X/(μ_X(Δ)·θ_X) falls
// or stays as any θ_X rises. A lone job's task time, over seeded tasks,
// degrees of parallelism and factors, never rises when one resource's
// throughput does.
func TestRaisingThroughputNeverSlowsTask(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	spec := cluster.PaperCluster()
	for tc := 0; tc < 400; tc++ {
		subs := randomStage(rng)
		par := 1 + rng.Intn(3*spec.TotalSlots())
		base := loneTaskTime(New(spec), subs, par)
		for _, r := range cluster.Resources() {
			faster := spec
			faster.Node = raise(spec.Node, r, 1+rng.Float64()*3)
			if got := loneTaskTime(New(faster), subs, par); got > base {
				t.Fatalf("case %d (Δ=%d): raising θ_%s raised the task time %v → %v", tc, par, r, base, got)
			}
		}
	}
}

// TestScalingDemandScalesLoneTask: multiplying every D_X by k multiplies
// a lone task's time by k, to 1e-9 relative — the per-task cap and the
// fair share are both rates, so the bottleneck stays put.
func TestScalingDemandScalesLoneTask(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	m := New(cluster.PaperCluster())
	for tc := 0; tc < 400; tc++ {
		subs := randomStage(rng)
		par := 1 + rng.Intn(3*m.Spec.TotalSlots())
		k := 2 + rng.Intn(9)
		scaled := make([]workload.SubStage, len(subs))
		for i, ss := range subs {
			for _, op := range ss.Ops {
				op.Bytes *= units.Bytes(k)
				scaled[i].Ops = append(scaled[i].Ops, op)
			}
		}
		base, got := loneTaskTime(m, subs, par), loneTaskTime(m, scaled, par)
		want := float64(k) * float64(base)
		if math.Abs(float64(got)-want) > 1e-9*want {
			t.Fatalf("case %d (Δ=%d, k=%d): task time %v, want %d × %v", tc, par, k, got, k, base)
		}
	}
}
