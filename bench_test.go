// Benchmarks regenerating every table and figure of the paper's
// evaluation (§V), plus ablations of the design choices called out in
// DESIGN.md §5 and micro-benchmarks of the hot paths. Experiment benches
// run at one tenth of the paper's data scale so `go test -bench=.` stays
// interactive; `cmd/benchtables` regenerates everything at full scale.
//
// Accuracy-style results are attached to the benchmark output as custom
// metrics (accuracy%, improvement-x), so `go test -bench` output doubles
// as the reproduction record; EXPERIMENTS.md interprets them against the
// paper's numbers.
package boedag_test

import (
	"testing"
	"time"

	"boedag"
	"boedag/internal/baseline"
	"boedag/internal/boe"
	"boedag/internal/calibrate"
	"boedag/internal/cluster"
	"boedag/internal/experiments"
	"boedag/internal/fairshare"
	"boedag/internal/metrics"
	"boedag/internal/profile"
	"boedag/internal/progress"
	"boedag/internal/sched"
	"boedag/internal/simulator"
	"boedag/internal/spark"
	"boedag/internal/statemodel"
	"boedag/internal/tuning"
	"boedag/internal/units"
	"boedag/internal/workload"
)

func benchConfig() experiments.Config { return experiments.Scaled(10) }

// BenchmarkFigure1WebAnalytics simulates the paper's Figure 1 four-job
// web-analytics DAG and reports how far the same job's map-task time
// drifts across contention regimes (the paper: 27 s → 24 s → 20 s).
func BenchmarkFigure1WebAnalytics(b *testing.B) {
	cfg := experiments.Default() // full size: the drift needs real waves
	flow := experiments.WebAnalytics(cfg.MicroInput / 2)
	var drift float64
	for i := 0; i < b.N; i++ {
		res, err := simulator.New(cfg.Spec, cfg.SimOptions(int64(i))).Run(flow)
		if err != nil {
			b.Fatal(err)
		}
		drift = mapTimeDrift(res)
	}
	b.ReportMetric(drift*100, "task-drift-%")
}

// mapTimeDrift compares j2's map-task mean before and after j3 leaves its
// map stage.
func mapTimeDrift(res *simulator.Result) float64 {
	j3 := res.StageOf("j3", workload.Map)
	if j3 == nil {
		return 0
	}
	var early, late time.Duration
	var nEarly, nLate int
	for _, task := range res.Tasks {
		if task.Job != "j2" || task.Stage != workload.Map {
			continue
		}
		if task.Start < j3.End {
			early += task.Duration()
			nEarly++
		} else {
			late += task.Duration()
			nLate++
		}
	}
	if nEarly == 0 || nLate == 0 {
		return 0
	}
	e := early.Seconds() / float64(nEarly)
	l := late.Seconds() / float64(nLate)
	return (e - l) / e
}

// BenchmarkFigure4BOEExample measures the task-level BOE model itself on
// the paper's worked example shape: it must be microseconds, not
// milliseconds, to be usable inside optimizers.
func BenchmarkFigure4BOEExample(b *testing.B) {
	model := boe.New(cluster.SingleNode(cluster.ExampleNode()))
	p := workload.JobProfile{
		Name:       "fig4",
		InputBytes: 10000 * units.MB, SplitBytes: 2000 * units.MB,
		MapSelectivity: 0, MapCPUCost: 1, Replicas: 1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		est := model.TaskTime(p, workload.Map, 5)
		if est.Duration <= 0 {
			b.Fatal("no estimate")
		}
	}
}

// BenchmarkTable1Workloads regenerates the Table I workload overview.
func BenchmarkTable1Workloads(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFigure6Sweep regenerates the Figure 6 degree-of-parallelism
// sweep and reports the paper's headline numbers: the BOE model's average
// accuracy and its improvement factor over the Starfish/MRTuner-style
// baseline at 12 tasks per node (paper: 4.1x–10.6x).
func BenchmarkFigure6Sweep(b *testing.B) {
	cfg := benchConfig()
	var accBOE, accBase, factor float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.Figure6(cfg, experiments.Figure6Options{})
		if err != nil {
			b.Fatal(err)
		}
		var boeAccs, baseAccs, factors []float64
		for _, s := range series {
			boeAccs = append(boeAccs, s.AvgAccuracyBOE())
			baseAccs = append(baseAccs, s.AvgAccuracyBaseline())
			if f := s.ImprovementAt(12); f > 0 && f < 1e6 {
				factors = append(factors, f)
			}
		}
		accBOE, accBase, factor = metrics.Mean(boeAccs), metrics.Mean(baseAccs), metrics.Mean(factors)
	}
	b.ReportMetric(accBOE*100, "BOE-accuracy-%")
	b.ReportMetric(accBase*100, "baseline-accuracy-%")
	b.ReportMetric(factor, "improvement-x")
}

// BenchmarkTable2ParallelJobs regenerates the Table II task-level
// accuracy for the two-job DAGs and reports the first-state average
// (paper: 99.7 % / 99.9 %).
func BenchmarkTable2ParallelJobs(b *testing.B) {
	cfg := benchConfig()
	var s1 float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var accs []float64
		for _, r := range rows {
			if c := r.Cell(1); c != nil {
				accs = append(accs, c.Accuracy())
			}
		}
		s1 = metrics.Mean(accs)
	}
	b.ReportMetric(s1*100, "state1-accuracy-%")
}

// BenchmarkTable3Workflows regenerates the full 51-workflow Table III
// (simulate → profile → estimate under all three skew modes) and reports
// each mode's average accuracy (paper: 95.00 / 93.50 / 96.38 %).
func BenchmarkTable3Workflows(b *testing.B) {
	cfg := benchConfig()
	var sum *experiments.Table3Summary
	for i := 0; i < b.N; i++ {
		var err error
		sum, err = experiments.Table3(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sum.AvgAccuracy[statemodel.MeanMode]*100, "mean-accuracy-%")
	b.ReportMetric(sum.AvgAccuracy[statemodel.MedianMode]*100, "median-accuracy-%")
	b.ReportMetric(sum.AvgAccuracy[statemodel.NormalMode]*100, "normal-accuracy-%")
	b.ReportMetric(sum.MinAccuracy[statemodel.NormalMode]*100, "normal-min-accuracy-%")
}

// BenchmarkEstimatorOverhead measures the cost of one state-based
// estimation of the deepest workflow (WC+Q21: 10 jobs, ~20 states). The
// paper requires well under a second; this is the §V-C "Execution time"
// experiment.
func BenchmarkEstimatorOverhead(b *testing.B) {
	cfg := experiments.Default() // full scale: overhead must not depend on it
	flow, err := experiments.BuildNamed("wc+q21", cfg)
	if err != nil {
		b.Fatal(err)
	}
	timer := &statemodel.BOETimer{Model: boe.New(cfg.Spec), TaskStartOverhead: cfg.TaskStartOverhead}
	est := statemodel.New(cfg.Spec, timer, statemodel.Options{Mode: statemodel.NormalMode})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := est.Estimate(flow); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator measures raw simulator throughput on the WC+TS
// hybrid (≈ 350 tasks at bench scale): the substrate every experiment
// rests on.
func BenchmarkSimulator(b *testing.B) {
	cfg := benchConfig()
	flow, err := experiments.BuildNamed("wc+ts", cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := simulator.New(cfg.Spec, cfg.SimOptions(int64(i))).Run(flow); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAllocator compares the progressive-filling max-min
// allocation against the naive equal-split μ(Δ)=1/Δ rule (DESIGN.md §5):
// it reports each variant's end-to-end accuracy on WC+TS.
func BenchmarkAblationAllocator(b *testing.B) {
	cfg := benchConfig()
	flow, err := experiments.BuildNamed("wc+ts", cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := simulator.New(cfg.Spec, cfg.SimOptions(0)).Run(flow)
	if err != nil {
		b.Fatal(err)
	}
	var accFair, accNaive float64
	for i := 0; i < b.N; i++ {
		for _, equalSplit := range []bool{false, true} {
			model := &boe.Model{Spec: cfg.Spec, EqualSplit: equalSplit}
			timer := &statemodel.BOETimer{Model: model, TaskStartOverhead: cfg.TaskStartOverhead}
			plan, err := statemodel.New(cfg.Spec, timer,
				statemodel.Options{Mode: statemodel.MeanMode}).Estimate(flow)
			if err != nil {
				b.Fatal(err)
			}
			acc := metrics.Accuracy(plan.Makespan, res.Makespan)
			if equalSplit {
				accNaive = acc
			} else {
				accFair = acc
			}
		}
	}
	b.ReportMetric(accFair*100, "maxmin-accuracy-%")
	b.ReportMetric(accNaive*100, "equalsplit-accuracy-%")
}

// BenchmarkAblationWaves compares the fluid stage-duration rule against
// discrete ⌈N/Δ⌉ waves (DESIGN.md §5) on a single Word Count.
func BenchmarkAblationWaves(b *testing.B) {
	cfg := benchConfig()
	flow, err := experiments.BuildNamed("wc", cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := simulator.New(cfg.Spec, cfg.SimOptions(0)).Run(flow)
	if err != nil {
		b.Fatal(err)
	}
	timer := &statemodel.BOETimer{Model: boe.New(cfg.Spec), TaskStartOverhead: cfg.TaskStartOverhead}
	var accFluid, accWaves float64
	for i := 0; i < b.N; i++ {
		for _, discrete := range []bool{false, true} {
			plan, err := statemodel.New(cfg.Spec, timer, statemodel.Options{
				Mode: statemodel.MeanMode, DiscreteWaves: discrete,
			}).Estimate(flow)
			if err != nil {
				b.Fatal(err)
			}
			acc := metrics.Accuracy(plan.Makespan, res.Makespan)
			if discrete {
				accWaves = acc
			} else {
				accFluid = acc
			}
		}
	}
	b.ReportMetric(accFluid*100, "fluid-accuracy-%")
	b.ReportMetric(accWaves*100, "waves-accuracy-%")
}

// BenchmarkAblationSkewModes compares the three skew rules on the
// highest-skew workflow (TS+PageRank): the normal-mode straggler
// correction is the paper's "skew-aware" claim.
func BenchmarkAblationSkewModes(b *testing.B) {
	cfg := benchConfig()
	flow, err := experiments.BuildNamed("ts+pagerank", cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := simulator.New(cfg.Spec, cfg.SimOptions(0)).Run(flow)
	if err != nil {
		b.Fatal(err)
	}
	timer := &statemodel.ProfileTimer{Profiles: profile.Capture(res)}
	accs := map[statemodel.SkewMode]float64{}
	for i := 0; i < b.N; i++ {
		for _, mode := range statemodel.Modes() {
			plan, err := statemodel.New(cfg.Spec, timer,
				statemodel.Options{Mode: mode}).Estimate(flow)
			if err != nil {
				b.Fatal(err)
			}
			accs[mode] = metrics.Accuracy(plan.Makespan, res.Makespan)
		}
	}
	b.ReportMetric(accs[statemodel.MeanMode]*100, "mean-accuracy-%")
	b.ReportMetric(accs[statemodel.MedianMode]*100, "median-accuracy-%")
	b.ReportMetric(accs[statemodel.NormalMode]*100, "normal-accuracy-%")
}

// BenchmarkAblationErnest measures the Ernest-style single-job regression
// against the BOE model on the Figure 6 setting it was built for: predict
// WC map task time at Δ/node = 12 after training on 1, 2 and 4.
func BenchmarkAblationErnest(b *testing.B) {
	cfg := experiments.Default() // full scale: Δ=132 must not exceed the task count
	wc := workload.WordCount(cfg.MicroInput)
	actualAt := func(perNode int) time.Duration {
		opts := simulator.Options{Seed: 1, SlotLimit: perNode * cfg.Spec.Nodes}
		res, err := simulator.New(cfg.Spec, opts).Run(boedag.Single(wc))
		if err != nil {
			b.Fatal(err)
		}
		return res.StageOf("WC", workload.Map).MedianTaskTime()
	}
	var pts []baseline.TrainingPoint
	for _, d := range []int{1, 2, 4} {
		pts = append(pts, baseline.TrainingPoint{Parallelism: d * cfg.Spec.Nodes, TaskTime: actualAt(d)})
	}
	actual12 := actualAt(12)
	model := boe.New(cfg.Spec)

	var accErnest, accBOE float64
	for i := 0; i < b.N; i++ {
		var e baseline.Ernest
		if err := e.Fit(pts); err != nil {
			b.Fatal(err)
		}
		pred, err := e.Predict(12 * cfg.Spec.Nodes)
		if err != nil {
			b.Fatal(err)
		}
		accErnest = metrics.Accuracy(pred, actual12)
		est := model.TaskTime(wc, workload.Map, 12*cfg.Spec.Nodes)
		accBOE = metrics.Accuracy(est.Duration+cfg.TaskStartOverhead, actual12)
	}
	b.ReportMetric(accErnest*100, "ernest-accuracy-%")
	b.ReportMetric(accBOE*100, "BOE-accuracy-%")
}

// BenchmarkFairshareAllocate measures the progressive-filling solver —
// the innermost loop of the estimator and the simulator — at a realistic
// population (132 tasks in 4 groups), on a reused Arena as both callers
// run it.
func BenchmarkFairshareAllocate(b *testing.B) {
	spec := cluster.PaperCluster()
	var caps [cluster.NumResources]units.Rate
	for _, r := range cluster.Resources() {
		caps[r] = spec.TotalCapacity(r)
	}
	var consumers []fairshare.Consumer
	for g := 0; g < 4; g++ {
		c := fairshare.Consumer{Count: 33, MaxRate: 0.4, CapResource: cluster.CPU}
		c.Demand[cluster.CPU] = float64(100+g*50) * float64(units.MB)
		c.Demand[cluster.DiskRead] = float64(128) * float64(units.MB)
		c.Demand[cluster.Network] = float64(g*40) * float64(units.MB)
		consumers = append(consumers, c)
	}
	var arena fairshare.Arena
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := arena.Allocate(caps, consumers)
		if res.Rate[0] <= 0 {
			b.Fatal("starved")
		}
	}
}

// BenchmarkDRF measures the scheduler model at the evaluation's job
// counts.
func BenchmarkDRF(b *testing.B) {
	pool := sched.PoolOf(cluster.PaperCluster())
	reqs := []sched.Request{
		{JobID: "a", MemoryMB: 1024, VCores: 1, Pending: 400},
		{JobID: "b", MemoryMB: 2048, VCores: 1, Pending: 100},
		{JobID: "c", MemoryMB: 1024, VCores: 2, Pending: 50},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := sched.DRF(pool, reqs, nil); got.Total() == 0 {
			b.Fatal("nothing granted")
		}
	}
}

// BenchmarkExtensionSkewSweep runs the skew-sensitivity study (the
// paper's named follow-up work): as task-size CV grows, the mean/median
// rules degrade while the normal and empirical corrections hold.
func BenchmarkExtensionSkewSweep(b *testing.B) {
	cfg := benchConfig()
	var rows []experiments.SkewRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.SkewSweep(cfg, []float64{0, 0.2, 0.4})
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.Accuracy[statemodel.MeanMode]*100, "mean@cv0.4-%")
	b.ReportMetric(last.Accuracy[statemodel.NormalMode]*100, "normal@cv0.4-%")
	b.ReportMetric(last.Accuracy[statemodel.EmpiricalMode]*100, "empirical@cv0.4-%")
}

// BenchmarkExtensionSchedulerPolicies runs the scheduler-policy study:
// how much the discipline changes the makespan and how well the models
// track each.
func BenchmarkExtensionSchedulerPolicies(b *testing.B) {
	cfg := benchConfig()
	var rows []experiments.PolicyRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.PolicyStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Accuracy*100, r.Policy.String()+"-accuracy-%")
	}
}

// BenchmarkExtensionProgress measures the online progress indicator: the
// mean accuracy of the predicted remaining time across the run.
func BenchmarkExtensionProgress(b *testing.B) {
	cfg := benchConfig()
	flow, err := experiments.BuildNamed("wc+ts", cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := simulator.New(cfg.Spec, cfg.SimOptions(0)).Run(flow)
	if err != nil {
		b.Fatal(err)
	}
	timer := &statemodel.ProfileTimer{
		Profiles: profile.Capture(res),
		Fallback: &statemodel.BOETimer{Model: boe.New(cfg.Spec), TaskStartOverhead: cfg.TaskStartOverhead},
	}
	in := &progress.Indicator{
		Estimator: statemodel.New(cfg.Spec, timer, statemodel.Options{Mode: statemodel.NormalMode}),
		Flow:      flow,
	}
	var mean float64
	for i := 0; i < b.N; i++ {
		points, err := progress.Curve(in, res, []float64{0.1, 0.3, 0.5, 0.7, 0.9})
		if err != nil {
			b.Fatal(err)
		}
		var accs []float64
		for _, p := range points {
			accs = append(accs, p.Accuracy())
		}
		mean = metrics.Mean(accs)
	}
	b.ReportMetric(mean*100, "remaining-accuracy-%")
}

// BenchmarkExtensionTuner measures the auto-tuner end to end on a
// misconfigured TeraSort and reports the improvement it finds.
func BenchmarkExtensionTuner(b *testing.B) {
	cfg := benchConfig()
	bad := workload.TeraSort(cfg.MicroInput)
	bad.ReduceTasks = 4
	bad.SortBufferBytes = 10 * units.MB
	flow := boedag.Single(bad)
	var improvement float64
	for i := 0; i < b.N; i++ {
		rec, err := tuning.New(cfg.Spec, tuning.Options{}).Tune(flow)
		if err != nil {
			b.Fatal(err)
		}
		improvement = rec.Improvement()
	}
	b.ReportMetric(improvement*100, "improvement-%")
}

// BenchmarkExtensionSparkTranslate measures the Spark lineage adapter:
// translate + simulate a 3-iteration PageRank lineage.
func BenchmarkExtensionSparkTranslate(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		flow, err := spark.Translate(spark.PageRankLineage(cfg.MicroInput/10, 3))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := simulator.New(cfg.Spec, cfg.SimOptions(int64(i))).Run(flow); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionCalibration measures the full probe suite against the
// simulated PaperCluster and reports the recovered core throughput (spec:
// 50 MB/s).
func BenchmarkExtensionCalibration(b *testing.B) {
	spec := cluster.PaperCluster()
	var est *calibrate.Estimate
	for i := 0; i < b.N; i++ {
		var err error
		est, err = calibrate.Cluster(calibrate.SimulatorRunner(spec), spec.TotalSlots(), spec.Nodes)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(est.CoreThroughput)/float64(units.MBps), "core-MBps")
}
