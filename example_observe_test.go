package boedag_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"

	"boedag"
)

// observedRun simulates a small Word Count job with the given tracer and
// metrics registry attached.
func observedRun(tr boedag.Tracer, reg *boedag.MetricsRegistry) *boedag.SimResult {
	spec := boedag.PaperCluster()
	opt := boedag.WithMetrics(boedag.WithTracer(boedag.SimOptions{Seed: 1}, tr), reg)
	res, err := boedag.NewSimulator(spec, opt).Run(boedag.Single(boedag.WordCount(2 * boedag.GB)))
	if err != nil {
		panic(err)
	}
	return res
}

// ExampleTeeTracers records a run while a live stream with no subscriber
// rides along: the tee forwards every event to the recorder, and the idle
// stream costs nothing.
func ExampleTeeTracers() {
	rec := boedag.NewTraceRecorder()
	res := observedRun(boedag.TeeTracers(rec, boedag.NewTraceStream()), nil)

	finished := 0
	for _, ev := range rec.Events() {
		if ev.Type.String() == "task_finish" {
			finished++
		}
	}
	fmt.Printf("%d tasks ran, %d task_finish events recorded\n", len(res.Tasks), finished)
	// Output:
	// 82 tasks ran, 82 task_finish events recorded
}

// ExampleWithMetrics attaches a registry to a simulation; the simulator
// counts every task it finishes.
func ExampleWithMetrics() {
	reg := boedag.NewMetricsRegistry()
	res := observedRun(nil, reg)
	fmt.Printf("tasks %d, sim_tasks_finished %d\n", len(res.Tasks), reg.Counter("sim_tasks_finished").Value())
	// Output:
	// tasks 82, sim_tasks_finished 82
}

// ExampleWriteMetricsJSON builds a registry by hand and dumps it as
// JSON.
func ExampleWriteMetricsJSON() {
	reg := boedag.NewMetricsRegistry()
	reg.Counter("requests").Add(3)
	reg.Gauge("queue_depth").Set(2)
	if err := boedag.WriteMetricsJSON(os.Stdout, reg); err != nil {
		fmt.Println(err)
	}
	// Output:
	// {
	//   "counters": {
	//     "requests": 3
	//   },
	//   "gauges": {
	//     "queue_depth": 2
	//   },
	//   "histograms": {}
	// }
}

// ExampleWriteMetricsPrometheus renders a registry in the Prometheus text
// exposition format (version 0.0.4).
func ExampleWriteMetricsPrometheus() {
	reg := boedag.NewMetricsRegistry()
	reg.Counter("requests").Add(3)
	reg.Gauge("queue_depth").Set(2)
	if err := boedag.WriteMetricsPrometheus(os.Stdout, reg); err != nil {
		fmt.Println(err)
	}
	// Output:
	// # HELP requests boedag counter requests.
	// # TYPE requests counter
	// requests 3
	// # HELP queue_depth boedag gauge queue_depth.
	// # TYPE queue_depth gauge
	// queue_depth 2
}

// ExampleWriteTraceSummary prints the plain-text digest of a recorded
// run.
func ExampleWriteTraceSummary() {
	rec := boedag.NewTraceRecorder()
	observedRun(rec, nil)
	boedag.WriteTraceSummary(os.Stdout, rec.Events())
	// Output:
	// observability summary: 324 events over 13.6s
	// events by type:
	//   job_submit         1
	//   stage_start        2
	//   stage_finish       2
	//   task_start         82
	//   task_finish        82
	//   substage_finish    148
	//   state_open         2
	//   state_close        2
	//   alloc_grant        2
	//   run_start          1
	// duration quantiles:
	//   stage_finish       n=2     p50=   1.4s p90=  10.2s p99=  10.2s
	//   task_finish        n=82    p50=   1.4s p90=   8.8s p99=  10.2s
	//   substage_finish    n=148   p50=   0.3s p90=   7.2s p99=   8.9s
	//   state_close        n=2     p50=   1.4s p90=  10.2s p99=  10.2s
	// tasks by job:
	//   WC             82 tasks, mean    2.9s, 0 retries
	// workflow states:
	//   state  1 [    2.0s ..    12.2s] WC/map — bound on cpu (19%)
	//   state  2 [   12.2s ..    13.6s] WC/reduce — bound on network (28%)
}

// ExampleExportOTLP writes a run's spans and metrics as one OTLP/JSON
// document.
func ExampleExportOTLP() {
	rec := boedag.NewTraceRecorder()
	reg := boedag.NewMetricsRegistry()
	observedRun(rec, reg)

	var buf bytes.Buffer
	if err := boedag.ExportOTLP(&buf, rec.Events(), reg, boedag.OTLPOptions{}); err != nil {
		fmt.Println(err)
		return
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		fmt.Println(err)
		return
	}
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println(keys)
	// Output:
	// [resourceMetrics resourceSpans]
}

// ExamplePostOTLP ships a run to an OTLP/HTTP collector, here an
// in-process test server that records what it receives.
func ExamplePostOTLP() {
	var mu sync.Mutex
	var got []string
	collector := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got = append(got, r.Method+" "+r.URL.Path+" "+r.Header.Get("Content-Type"))
		mu.Unlock()
	}))
	defer collector.Close()

	rec := boedag.NewTraceRecorder()
	reg := boedag.NewMetricsRegistry()
	observedRun(rec, reg)
	if err := boedag.PostOTLP(collector.URL, rec.Events(), reg, boedag.OTLPOptions{}); err != nil {
		fmt.Println(err)
		return
	}
	mu.Lock()
	defer mu.Unlock()
	sort.Strings(got)
	for _, line := range got {
		fmt.Println(line)
	}
	// Output:
	// POST /v1/metrics application/json
	// POST /v1/traces application/json
}
