// Command dagsim executes a named DAG workflow on the simulated cluster
// and prints the measured task execution plan — the ground-truth side of
// every experiment in this repository.
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
	"flag"
	"fmt"
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
	"boedag/internal/progress"
	"boedag/internal/sched"
	"boedag/internal/simulator"
	"boedag/internal/statemodel"
	"boedag/internal/trace"
	"boedag/internal/units"
)

func main() {
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
		policy    = flag.String("policy", "drf", "container scheduling policy: drf, fifo, fair, or spjf")
		study     = flag.Bool("sched-study", false, "replay the seeded arrival scenarios under every policy and print the comparison table")
	)
	var ob cliobs.Flags
	ob.RegisterLive(nil)
	ob.RegisterExplain(nil)
	flag.Parse()

	if *list {
		for _, n := range experiments.WorkflowNames() {
			fmt.Println(n)
		}
		return
	}

	cfg := experiments.Default()
	cfg.Seed = *seed
	cfg.TPCHScale = *scale
	cfg.MicroInput = units.Bytes(*microGB) * units.GB
	if *clusterIn != "" {
		spec, err := cluster.ReadSpecFile(*clusterIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dagsim:", err)
			os.Exit(1)
		}
		cfg.Spec = spec
	}

	// -sched-study is the estimator-in-the-loop policy comparison: the
	// registry workflows become a seeded arrival stream, replayed under
	// every policy (FIFO/DRF/Fair vs the prediction-guided pair).
	if *study {
		rows, err := experiments.SchedPolicyStudy(cfg, cfg.Seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dagsim:", err)
			os.Exit(1)
		}
		experiments.RenderSchedPolicy(os.Stdout, rows)
		return
	}

	opt := simulator.Options{Seed: cfg.Seed}
	if pol, err := sched.ParsePolicy(*policy); err != nil {
		fmt.Fprintln(os.Stderr, "dagsim:", err)
		os.Exit(1)
	} else {
		opt.Policy = pol
	}
	if *perNode > 0 {
		opt.SlotLimit = *perNode * cfg.Spec.Nodes
	}
	var err error
	if opt.Observe, err = ob.Options(); err != nil {
		fmt.Fprintln(os.Stderr, "dagsim:", err)
		os.Exit(1)
	}

	// Comma-separated names run every workflow concurrently through the
	// evaluation pool, then print the reports sequentially in input order.
	if names := strings.Split(*name, ","); *specFile == "" && len(names) > 1 {
		if *tasksCSV != "" || *stagesCSV != "" || *jsonOut != "" {
			fmt.Fprintln(os.Stderr, "dagsim: CSV/JSON exports support a single workflow")
			os.Exit(1)
		}
		if ob.Stream() != nil {
			fmt.Fprintln(os.Stderr, "dagsim: -live-progress supports a single workflow")
			os.Exit(1)
		}
		if ob.ExplainRequested() {
			fmt.Fprintln(os.Stderr, "dagsim: -explain supports a single workflow")
			os.Exit(1)
		}
		if err := runMulti(names, cfg, opt, *workers, *tasks, &ob); err != nil {
			fmt.Fprintln(os.Stderr, "dagsim:", err)
			os.Exit(1)
		}
		return
	}

	flow, err := loadFlow(*specFile, *name, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dagsim:", err)
		os.Exit(1)
	}
	// The live estimator re-runs Algorithm 1 from streamed events while the
	// simulation executes. It must be subscribed before Run: the simulator
	// snapshots Tracer.Enabled at startup.
	var liveDone chan struct{}
	if stream := ob.Stream(); stream != nil {
		in := &progress.Indicator{
			Estimator: statemodel.New(cfg.Spec,
				&statemodel.BOETimer{Model: boe.New(cfg.Spec), TaskStartOverhead: cfg.TaskStartOverhead},
				statemodel.Options{JobSubmitOverhead: cfg.JobSubmitOverhead}),
			Flow: flow,
		}
		points := progress.Follow(stream, in, progress.LiveOptions{})
		liveDone = make(chan struct{})
		go func() {
			defer close(liveDone)
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
	}
	res, err := simulator.New(cfg.Spec, opt).Run(flow)
	// Close the stream (and wait out the printer) before the Gantt chart so
	// live lines never interleave with the post-run report.
	ob.CloseStream()
	if liveDone != nil {
		<-liveDone
		fmt.Println()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dagsim:", err)
		os.Exit(1)
	}
	trace.Gantt(os.Stdout, res)
	if *tasks {
		fmt.Println()
		for _, s := range res.Stages {
			trace.TaskWaves(os.Stdout, res, s.Job, s.Stage)
		}
	}
	type export struct {
		path  string
		write func(*os.File) error
	}
	for _, e := range []export{
		{*tasksCSV, func(f *os.File) error { return trace.ExportTasksCSV(f, res) }},
		{*stagesCSV, func(f *os.File) error { return trace.ExportStagesCSV(f, res) }},
		{*jsonOut, func(f *os.File) error { return trace.ExportResultJSON(f, res) }},
	} {
		if e.path == "" {
			continue
		}
		f, err := os.Create(e.path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dagsim:", err)
			os.Exit(1)
		}
		if err := e.write(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "dagsim:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote %s\n", e.path)
	}
	// -explain runs the paper's estimator for the measured scenario and
	// explains its prediction: critical path, per-resource bottleneck
	// attribution, and θ-sensitivity, next to the simulated ground truth.
	if ob.ExplainRequested() {
		est := statemodel.New(cfg.Spec,
			&statemodel.BOETimer{Model: boe.New(cfg.Spec), TaskStartOverhead: cfg.TaskStartOverhead},
			statemodel.Options{JobSubmitOverhead: cfg.JobSubmitOverhead})
		expl, err := explain.Explain(context.Background(), est, flow,
			explain.Options{Workers: *workers})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dagsim:", err)
			os.Exit(1)
		}
		if err := ob.WriteExplanation(expl); err != nil {
			fmt.Fprintln(os.Stderr, "dagsim:", err)
			os.Exit(1)
		}
	}
	if err := ob.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "dagsim:", err)
		os.Exit(1)
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
