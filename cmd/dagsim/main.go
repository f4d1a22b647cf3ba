// Command dagsim executes a named DAG workflow on the simulated cluster
// and prints the measured task execution plan — the ground-truth side of
// every experiment in this repository. With -mode or -profiles it first
// predicts the plan with the paper's state-based BOE estimator, then
// runs the workflow and reports the prediction's end-to-end accuracy:
// the paper's predict → run → compare loop as one command.
//
// Usage:
//
//	dagsim -workflow wc                 # 100 GB Word Count alone
//	dagsim -workflow wc+ts              # the paper's parallel micro DAG
//	dagsim -workflow q21 -scale 80      # TPC-H Q21 (9 jobs)
//	dagsim -workflow webanalytics       # the paper's Figure 1 DAG
//	dagsim -workflow wc -pernode 4      # cap parallelism at 4 tasks/node
//	dagsim -workflow wc,ts,q5 -workers 3  # simulate several workflows concurrently
//	dagsim -workflow wc+q5 -trace-out t.json  # Chrome trace for chrome://tracing
//	dagsim -workflow wc+ts -live-progress     # online remaining-time estimates
//	dagsim -workflow q21 -otlp-out o.json     # OTLP/JSON spans + metrics
//	dagsim -workflow wc+ts -explain           # explain the model's prediction
//	dagsim -workflow ts+q21 -mode normal      # predict (Alg2-Normal), run, compare
//	dagsim -workflow wc+ts -validate=false -explain  # predict and explain only
//	dagsim -workflow wc -save-profiles p.json   # profile a run for later
//	dagsim -workflow wc+q5 -profiles p.json     # predict from saved profiles
//	dagsim -workflow synth-l5-w8-f2-s7  # seeded synthetic layered DAG (40 jobs)
//	dagsim -workflow wc+ts -policy fifo # schedule containers FIFO instead of DRF
//	dagsim -sched-study -seed 7         # policy-vs-policy arrival-stream comparison
//	dagsim -list                        # show every known workflow name
//
// The synthetic family scales to estimator stress tests: synth-1k and
// synth-10k are the canonical 1 000- and 10 000-job points (simulating
// them takes correspondingly long; the incremental estimator is far
// faster, but a 10k-job estimate still takes close to a minute — see
// BenchmarkEstimate10kJobs in internal/statemodel).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"boedag/internal/boe"
	"boedag/internal/cliobs"
	"boedag/internal/cluster"
	"boedag/internal/dag"
	"boedag/internal/evalpool"
	"boedag/internal/experiments"
	"boedag/internal/explain"
	"boedag/internal/metrics"
	"boedag/internal/obs"
	"boedag/internal/profile"
	"boedag/internal/progress"
	"boedag/internal/sched"
	"boedag/internal/simulator"
	"boedag/internal/statemodel"
	"boedag/internal/trace"
	"boedag/internal/units"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dagsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name      = flag.String("workflow", "wc+ts", "workflow name, or comma-separated names to run concurrently (see -list)")
		specFile  = flag.String("spec", "", "load the workflow from this JSON spec instead of -workflow")
		list      = flag.Bool("list", false, "list available workflow names")
		scale     = flag.Float64("scale", 80, "TPC-H scale factor (GB)")
		microGB   = flag.Float64("micro-gb", 100, "Word Count / TeraSort input size in GB")
		perNode   = flag.Int("pernode", 0, "cap tasks per node (0 = cluster slots)")
		seed      = flag.Int64("seed", 1, "skew RNG seed")
		tasks     = flag.Bool("tasks", false, "also print per-task wave timings")
		tasksCSV  = flag.String("tasks-csv", "", "write per-task records to this CSV file")
		stagesCSV = flag.String("stages-csv", "", "write per-stage records to this CSV file")
		jsonOut   = flag.String("json", "", "write the run summary to this JSON file")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulations for a multi-workflow run (1 = serial)")
		clusterIn = flag.String("cluster", "", "simulate this cluster spec JSON (e.g. from `calibrate -spec-out`) instead of the paper cluster")
		policy    = flag.String("policy", "drf", "container scheduling policy of the simulation and the prediction: drf, fifo, fair, or spjf (spjf equals fifo here: the engines carry no predicted runtimes)")
		study     = flag.Bool("sched-study", false, "replay the seeded arrival scenarios under every policy and print the comparison table")
		mode      = flag.String("mode", "", "predict the plan with the BOE estimator first, under this skew mode: mean | median | normal")
		validate  = flag.Bool("validate", true, "run the simulation; false predicts without simulating")
		profIn    = flag.String("profiles", "", "predict from this saved profile JSON, with the BOE model for unprofiled jobs")
		profOut   = flag.String("save-profiles", "", "write the simulated run's task profiles to this JSON file")
	)
	var ob cliobs.Flags
	ob.RegisterLive(nil)
	ob.RegisterExplain(nil)
	flag.Parse()

	if *list {
		for _, n := range experiments.WorkflowNames() {
			fmt.Println(n)
		}
		return nil
	}

	cfg := experiments.Default()
	cfg.Seed = *seed
	cfg.TPCHScale = *scale
	cfg.MicroInput = units.Bytes(*microGB) * units.GB
	if *clusterIn != "" {
		spec, err := cluster.ReadSpecFile(*clusterIn)
		if err != nil {
			return err
		}
		cfg.Spec = spec
	}

	// -sched-study is the estimator-in-the-loop policy comparison: the
	// registry workflows become a seeded arrival stream, replayed under
	// every policy (FIFO/DRF/Fair vs the prediction-guided pair).
	if *study {
		rows, err := experiments.SchedPolicyStudy(cfg, cfg.Seed)
		if err != nil {
			return err
		}
		experiments.RenderSchedPolicy(os.Stdout, rows)
		return nil
	}

	opt := simulator.Options{Seed: cfg.Seed}
	var err error
	if opt.Policy, err = sched.ParsePolicy(*policy); err != nil {
		return err
	}
	if *perNode > 0 {
		opt.SlotLimit = *perNode * cfg.Spec.Nodes
	}
	skew, err := statemodel.ParseSkewMode(*mode)
	if err != nil {
		return err
	}
	predict := *mode != "" || *profIn != "" || !*validate
	exports := []struct {
		path  string
		write func(io.Writer, *simulator.Result) error
	}{
		{*tasksCSV, trace.ExportTasksCSV},
		{*stagesCSV, trace.ExportStagesCSV},
		{*jsonOut, trace.ExportResultJSON},
		{*profOut, func(w io.Writer, res *simulator.Result) error { return profile.Capture(res).Save(w) }},
	}
	exporting := false
	for _, e := range exports {
		exporting = exporting || e.path != ""
	}
	if !*validate && (exporting || ob.LiveProgress) {
		return errors.New("exports and -live-progress need the simulation that -validate=false skips")
	}
	if opt.Observe, err = ob.Options(); err != nil {
		return err
	}

	// Comma-separated names run every workflow concurrently through the
	// evaluation pool, then print the reports sequentially in input order.
	if names := strings.Split(*name, ","); *specFile == "" && len(names) > 1 {
		if exporting || predict || ob.Stream() != nil || ob.ExplainRequested() {
			return errors.New("exports, prediction, -live-progress and -explain support a single workflow")
		}
		return runMulti(names, cfg, opt, *workers, *tasks, &ob)
	}

	flow, err := loadFlow(*specFile, *name, cfg)
	if err != nil {
		return err
	}
	// One estimator configuration, built from the run's own settings,
	// serves the prediction, the explanation and the live tracker, so all
	// three model the cluster, policy and slot cap the simulation runs.
	timer, err := newTimer(cfg, *profIn)
	if err != nil {
		return err
	}
	estOpt := statemodel.Options{
		Mode:              skew,
		JobSubmitOverhead: cfg.JobSubmitOverhead,
		SlotLimit:         opt.SlotLimit,
		Policy:            opt.Policy,
		Observe:           opt.Observe,
	}
	est := statemodel.New(cfg.Spec, timer, estOpt)
	estOpt.Observe = obs.Options{}
	silent := statemodel.New(cfg.Spec, timer, estOpt)

	var plan *statemodel.Plan
	if predict {
		start := time.Now()
		if plan, err = est.Estimate(flow); err != nil {
			return err
		}
		trace.Plan(os.Stdout, plan)
		fmt.Printf("estimation cost: %s\n", time.Since(start))
	}
	// -explain adds the critical path, per-resource bottleneck attribution
	// and θ-sensitivity, reusing the printed plan when there is one (the
	// sensitivity table is empty when predicting from profiles: no θ to
	// perturb).
	if ob.ExplainRequested() {
		var expl *explain.Explanation
		xopt := explain.Options{Workers: *workers}
		if plan != nil {
			expl, err = explain.ExplainPlan(context.Background(), est, flow, plan, xopt)
		} else {
			expl, err = explain.Explain(context.Background(), silent, flow, xopt)
		}
		if err != nil {
			return err
		}
		if err := ob.WriteExplanation(expl); err != nil {
			return err
		}
	}
	if !*validate {
		return ob.Finish()
	}

	// The live tracker subscribes only now, after the prediction, and
	// runs the silent estimator, so no estimator event reaches its fold.
	wait := followLive(ob.Stream(), silent, flow)
	res, err := simulator.New(cfg.Spec, opt).Run(flow)
	// Close the stream (and wait out the printer) before the Gantt chart so
	// live lines never interleave with the post-run report.
	ob.CloseStream()
	wait()
	if err != nil {
		return err
	}
	if plan != nil || ob.Explain {
		fmt.Println()
	}
	trace.Gantt(os.Stdout, res)
	if *tasks {
		fmt.Println()
		for _, s := range res.Stages {
			trace.TaskWaves(os.Stdout, res, s.Job, s.Stage)
		}
	}
	for _, e := range exports {
		if e.path == "" {
			continue
		}
		f, err := os.Create(e.path)
		if err != nil {
			return err
		}
		err = e.write(f, res)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", e.path)
	}
	if plan != nil {
		fmt.Printf("\nend-to-end accuracy (%s): %.2f%%\n",
			skew, 100*metrics.Accuracy(plan.Makespan, res.Makespan))
	}
	return ob.Finish()
}

// newTimer returns the BOE task timer, or, given a saved profile file,
// a profile timer that falls back to BOE for jobs without a profile.
func newTimer(cfg experiments.Config, profPath string) (statemodel.TaskTimer, error) {
	boeTimer := &statemodel.BOETimer{Model: boe.New(cfg.Spec), TaskStartOverhead: cfg.TaskStartOverhead}
	if profPath == "" {
		return boeTimer, nil
	}
	f, err := os.Open(profPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	profs, err := profile.Load(f)
	if err != nil {
		return nil, err
	}
	return &statemodel.ProfileTimer{Profiles: profs, Fallback: boeTimer}, nil
}

// followLive prints the live remaining-time estimates that est derives
// from the streamed simulation events; the returned wait blocks until the
// closed stream has drained. A nil stream (no -live-progress) follows
// nothing. Call it before Run: the simulator snapshots Tracer.Enabled at
// startup.
func followLive(stream *obs.Stream, est *statemodel.Estimator, flow *dag.Workflow) (wait func()) {
	if stream == nil {
		return func() {}
	}
	points := progress.Follow(stream, &progress.Indicator{Estimator: est, Flow: flow}, progress.LiveOptions{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range points {
			if p.Err != nil {
				fmt.Fprintln(os.Stderr, "dagsim: live estimate:", p.Err)
				continue
			}
			fmt.Printf("live: t=%8.1fs  %5.1f%% done  ~%v remaining\n",
				p.Elapsed.Seconds(), p.PercentComplete,
				p.PredictedRemaining.Round(100*time.Millisecond))
		}
	}()
	return func() {
		<-done
		fmt.Println()
	}
}

// runMulti simulates every named workflow through the evaluation pool —
// each with its own simulator instance, all feeding the shared
// observability sinks — and prints the Gantt reports sequentially in
// input order, so the output is identical at any worker count.
func runMulti(names []string, cfg experiments.Config, opt simulator.Options, workers int, tasks bool, ob *cliobs.Flags) error {
	flows := make([]*dag.Workflow, len(names))
	for i, n := range names {
		flow, err := experiments.BuildNamed(strings.TrimSpace(n), cfg)
		if err != nil {
			return err
		}
		flows[i] = flow
	}
	jobs := make([]func() (*simulator.Result, error), len(flows))
	for i, flow := range flows {
		flow := flow
		jobs[i] = func() (*simulator.Result, error) {
			return simulator.New(cfg.Spec, opt).Run(flow)
		}
	}
	if workers < 1 {
		workers = 1
	}
	results, err := evalpool.RunObserved(context.Background(), jobs, evalpool.Options{
		Workers: workers,
		Label:   "dagsim",
		Observe: opt.Observe,
	})
	if err != nil {
		return err
	}
	for i, res := range results {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("== %s ==\n", flows[i].Name)
		trace.Gantt(os.Stdout, res)
		if tasks {
			fmt.Println()
			for _, s := range res.Stages {
				trace.TaskWaves(os.Stdout, res, s.Job, s.Stage)
			}
		}
	}
	return ob.Finish()
}

// loadFlow builds the workflow from a JSON spec file when given, or from
// the named registry otherwise.
func loadFlow(specFile, name string, cfg experiments.Config) (*dag.Workflow, error) {
	if specFile == "" {
		return experiments.BuildNamed(name, cfg)
	}
	f, err := os.Open(specFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dag.LoadWorkflow(f)
}
