package simulator

import (
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"boedag/internal/cluster"
	"boedag/internal/dag"
	"boedag/internal/obs"
	"boedag/internal/units"
	"boedag/internal/workload"
)

// obsFlow is the instrumentation test workload: two parallel jobs so the
// run crosses several workflow states.
func obsFlow() *dag.Workflow {
	return dag.Parallel("obs-demo",
		dag.Single(workload.WordCount(5*units.GB)),
		dag.Single(workload.TeraSort(5*units.GB)))
}

func TestSimulatorEmitsEvents(t *testing.T) {
	rec := obs.NewRecorder()
	reg := obs.NewRegistry()
	opt := Options{Seed: 1, Observe: obs.Options{Tracer: rec, Metrics: reg}}
	res, err := New(cluster.PaperCluster(), opt).Run(obsFlow())
	if err != nil {
		t.Fatal(err)
	}

	finishes := rec.ByType(obs.EvTaskFinish)
	if len(finishes) != len(res.Tasks) {
		t.Errorf("EvTaskFinish count = %d, want %d (one per task)", len(finishes), len(res.Tasks))
	}
	if got := len(rec.ByType(obs.EvStateClose)); got != len(res.States) {
		t.Errorf("EvStateClose count = %d, want %d", got, len(res.States))
	}
	if got := len(rec.ByType(obs.EvStageFinish)); got != len(res.Stages) {
		t.Errorf("EvStageFinish count = %d, want %d", got, len(res.Stages))
	}
	for _, want := range []obs.EventType{
		obs.EvJobSubmit, obs.EvStageStart, obs.EvTaskStart,
		obs.EvSubStageFinish, obs.EvStateOpen, obs.EvAllocGrant,
	} {
		if len(rec.ByType(want)) == 0 {
			t.Errorf("no %s events emitted", want)
		}
	}
	// Span events carry (start, duration) consistent with the records.
	for _, ev := range finishes {
		if ev.Dur <= 0 || ev.Time < 0 {
			t.Errorf("task finish span invalid: %+v", ev)
		}
		if ev.Resource == "" {
			t.Errorf("task finish missing bottleneck: %+v", ev)
		}
	}

	if got := reg.Counter("sim_tasks_finished").Value(); got != int64(len(res.Tasks)) {
		t.Errorf("sim_tasks_finished = %d, want %d", got, len(res.Tasks))
	}
	if got := reg.Counter("sim_tasks_scheduled").Value(); got < int64(len(res.Tasks)) {
		t.Errorf("sim_tasks_scheduled = %d, want ≥ %d", got, len(res.Tasks))
	}
	if reg.Histogram("sim_task_duration_s").Count() == 0 {
		t.Error("task duration histogram empty")
	}
	if reg.Gauge("sim_mean_utilization_cpu").Value() <= 0 {
		t.Error("cpu utilization gauge not set")
	}
	if reg.Counter("sched_grant_rounds").Value() == 0 {
		t.Error("scheduler grant rounds not counted")
	}
}

func TestSimulatorRetryEventsWithFailures(t *testing.T) {
	rec := obs.NewRecorder()
	opt := Options{Seed: 1, TaskFailureProb: 0.2, Observe: obs.Options{Tracer: rec}}
	res, err := New(cluster.PaperCluster(), opt).Run(dag.Single(workload.WordCount(5 * units.GB)))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rec.ByType(obs.EvTaskRetry)); got != res.TotalRetries() {
		t.Errorf("EvTaskRetry count = %d, want %d", got, res.TotalRetries())
	}
}

// TestObservationDoesNotPerturb is the Heisenberg guard: attaching the
// full observability stack must not change a single simulated number.
func TestObservationDoesNotPerturb(t *testing.T) {
	base, err := New(cluster.PaperCluster(), Options{Seed: 7}).Run(obsFlow())
	if err != nil {
		t.Fatal(err)
	}
	obsOpt := Options{Seed: 7, Observe: obs.Options{Tracer: obs.NewRecorder(), Metrics: obs.NewRegistry()}}
	traced, err := New(cluster.PaperCluster(), obsOpt).Run(obsFlow())
	if err != nil {
		t.Fatal(err)
	}
	if base.Makespan != traced.Makespan {
		t.Errorf("makespan drifted under observation: %v vs %v", base.Makespan, traced.Makespan)
	}
	if len(base.Tasks) != len(traced.Tasks) || len(base.States) != len(traced.States) {
		t.Errorf("record counts drifted: %d/%d tasks, %d/%d states",
			len(base.Tasks), len(traced.Tasks), len(base.States), len(traced.States))
	}
	for i := range base.Tasks {
		if base.Tasks[i].End != traced.Tasks[i].End {
			t.Fatalf("task %d end drifted", i)
		}
	}
}

// TestDisabledTracerAllocatesNothing is the exact form of the zero-cost
// contract: a stream with no subscribers reports Enabled() == false, so a
// run traced into it must allocate exactly as much as an untraced run.
// The collector is off while counting: a collection may empty a
// sync.Pool mid-run and charge the refill to whichever side is measured.
func TestDisabledTracerAllocatesNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	spec := cluster.PaperCluster()
	flow := obsFlow()
	stream := obs.NewStream()
	allocs := func(o obs.Options) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := New(spec, Options{Seed: 1, Observe: o}).Run(flow); err != nil {
				t.Fatal(err)
			}
		})
	}
	off := allocs(obs.Options{})
	disabled := allocs(obs.Options{Tracer: stream})
	if disabled != off {
		t.Errorf("a subscriber-less stream costs %v allocations per run, an untraced run %v", disabled, off)
	}
}

// BenchmarkSimulatorInstrumentationRatio is what hack/overhead_guard.sh
// judges: each iteration runs the workflow once with observability off
// and once fully instrumented, back to back and alternating which runs
// first, and the benchmark reports the median of the iterations'
// disabled/enabled time ratios as "off/on". Pairing single runs lets
// drift in the machine's speed reach both halves of a pair alike, and
// the median ignores the pairs a burst of load from elsewhere splits.
// The workflow is obsFlow's at 1 GB per job (about 18 ms a run instead
// of 36 ms), so a fixed cost on the disabled path weighs twice as much
// against the 5% bound.
func BenchmarkSimulatorInstrumentationRatio(b *testing.B) {
	spec := cluster.PaperCluster()
	flow := dag.Parallel("obs-guard",
		dag.Single(workload.WordCount(units.GB)),
		dag.Single(workload.TeraSort(units.GB)))
	run := func(o obs.Options) time.Duration {
		start := time.Now()
		if _, err := New(spec, Options{Seed: 1, Observe: o}).Run(flow); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	on := func() time.Duration {
		return run(obs.Options{Tracer: obs.NewRecorder(), Metrics: obs.NewRegistry()})
	}
	ratios := make([]float64, b.N)
	for i := range ratios {
		var off, with time.Duration
		if i%2 == 0 {
			off, with = run(obs.Options{}), on()
		} else {
			with, off = on(), run(obs.Options{})
		}
		ratios[i] = float64(off) / float64(with)
	}
	sort.Float64s(ratios)
	b.ReportMetric(ratios[len(ratios)/2], "off/on")
}
