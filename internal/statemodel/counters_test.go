package statemodel_test

import (
	"flag"
	"testing"

	"boedag/internal/obs"
	"boedag/internal/statemodel"
	"boedag/internal/synthdag"
)

var synth10k = flag.Bool("synth10k", false, "also pin the synth-10k dist counters (about 25 s; hack/verify.sh sets it)")

// TestColdDistCounters pins est_dist_solves and est_dist_reuse of one
// estimate on a fresh scratch. Nearly all of a cold run's reuse is a job
// taking the dist its neighbour in the running list just solved; the
// rest reaches at most a few hundred solves back, so any dist cache that
// keeps a run's recent states reproduces these counts exactly.
// Alg1-Mean and Alg1-Mid share their states under the BOE timer (its
// mean and median coincide), hence their counts.
func TestColdDistCounters(t *testing.T) {
	pins := []struct {
		flow          string
		mode          statemodel.SkewMode
		solves, reuse int64
	}{
		{"synth-1k", statemodel.MeanMode, 35033, 21306},
		{"synth-1k", statemodel.MedianMode, 35033, 21306},
		{"synth-1k", statemodel.NormalMode, 33289, 20149},
		{"synth-10k", statemodel.MeanMode, 573488, 535534},
		{"synth-10k", statemodel.NormalMode, 561480, 524384},
	}
	for _, p := range pins {
		if p.flow == "synth-10k" && !*synth10k {
			continue
		}
		c, ok := synthdag.Parse(p.flow)
		if !ok {
			t.Fatalf("unknown corpus point %s", p.flow)
		}
		reg := obs.NewRegistry()
		est := newEstimator(p.mode, false)
		est.Opt.Observe = obs.Options{Metrics: reg}
		if _, err := est.EstimateWith(statemodel.NewScratch(), synthdag.Generate(c)); err != nil {
			t.Fatalf("%s/%s: %v", p.flow, p.mode, err)
		}
		solves, reuse := reg.Counter("est_dist_solves").Value(), reg.Counter("est_dist_reuse").Value()
		if solves != p.solves || reuse != p.reuse {
			t.Errorf("%s/%s: %d solves, %d reused; pinned %d, %d", p.flow, p.mode, solves, reuse, p.solves, p.reuse)
		}
	}
}
