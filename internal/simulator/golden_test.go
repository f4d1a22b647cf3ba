package simulator_test

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"boedag/internal/cluster"
	"boedag/internal/dag"
	"boedag/internal/experiments"
	"boedag/internal/sched"
	"boedag/internal/simulator"
	"boedag/internal/synthdag"
	"boedag/internal/tpch"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenRun is one simulation of the pinned corpus.
type goldenRun struct {
	name string
	flow *dag.Workflow
	opt  simulator.Options
}

// goldenFlows is the workflow half of the corpus: named workflows at
// eighth scale, the given TPC-H queries at scale factor 2 and
// synthSeeds seeded random DAGs. Every one carries the default
// task-size skew.
func goldenFlows(t *testing.T, queries []int, synthSeeds int) []goldenRun {
	t.Helper()
	cfg := experiments.Scaled(8)
	var runs []goldenRun
	for _, name := range []string{"wc+ts", "webanalytics", "kmeans", "pagerank"} {
		flow, err := experiments.BuildNamed(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, goldenRun{name: name, flow: flow, opt: cfg.SimOptions(1)})
	}
	for _, q := range queries {
		flow, err := tpch.Query(q, tpch.Schema{ScaleFactor: 2})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, goldenRun{name: fmt.Sprintf("tpch-q%d", q), flow: flow, opt: cfg.SimOptions(2)})
	}
	for seed := int64(1); seed <= int64(synthSeeds); seed++ {
		flow := synthdag.Generate(synthdag.Config{Layers: 3, Width: 3, FanIn: 2, Seed: seed})
		runs = append(runs, goldenRun{name: fmt.Sprintf("synth-s%d", seed), flow: flow, opt: cfg.SimOptions(seed)})
	}
	return runs
}

// withFailures doubles runs: each as given, then with one in ten task
// attempts failing.
func withFailures(runs []goldenRun) []goldenRun {
	out := append([]goldenRun(nil), runs...)
	for _, r := range runs {
		r.name += "/fail0.1"
		r.opt.TaskFailureProb = 0.1
		out = append(out, r)
	}
	return out
}

func simulate(t *testing.T, r goldenRun) *simulator.Result {
	t.Helper()
	res, err := simulator.New(cluster.PaperCluster(), r.opt).Run(r.flow)
	if err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	return res
}

// checkGolden compares got with testdata/name, rewriting it first under
// -update; lines that differ are handed to same, which reports whether
// they still agree.
func checkGolden(t *testing.T, name, got string, same func(got, want string) bool) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(raw), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d lines, golden has %d", name, len(gl), len(wl))
	}
	bad := 0
	for i := range gl {
		if gl[i] != wl[i] && !same(gl[i], wl[i]) {
			if bad++; bad <= 10 {
				t.Errorf("%s line %d:\n got %s\nwant %s", name, i+1, gl[i], wl[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%s: %d lines differ", name, bad)
	}
}

// TestAggregateGolden pins, bit for bit, the full Result of
// aggregate-mode runs: named workflows, TPC-H queries and random DAGs,
// each with and without task failures, plus skew, the Fair and FIFO
// scheduling policies. Aggregate mode is the ground truth behind every
// accuracy table, so any change to its physics shows up here. Regenerate with
// `go test ./internal/simulator -run TestAggregateGolden -update` only
// when the simulator changes on purpose.
func TestAggregateGolden(t *testing.T) {
	queries := make([]int, 22)
	for i := range queries {
		queries[i] = i + 1
	}
	runs := withFailures(goldenFlows(t, queries, 2))
	fair := runs[0]
	fair.name += "/fair"
	fair.opt.Policy = sched.PolicyFair
	fifo := runs[0]
	fifo.name += "/fifo"
	fifo.opt.Policy = sched.PolicyFIFO
	runs = append(runs, fair, fifo)

	var b strings.Builder
	for _, r := range runs {
		js, err := json.Marshal(simulate(t, r))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %x\n", r.name, sha256.Sum256(js))
	}
	checkGolden(t, "aggregate_sha256.golden", b.String(), func(string, string) bool { return false })
}

// TestNodeAwareGolden pins node-aware runs record by record: makespan,
// each task's start, end, bottleneck and retries, and each state's
// span, running set and utilization. Times may move by 10 ns and
// utilizations by 1e-9 relative — below the fair-share solver's own
// 1e-10 stopping rule once it compounds over a run — but every label
// and count must match exactly. Regenerate with
// `go test ./internal/simulator -run TestNodeAwareGolden -update`.
func TestNodeAwareGolden(t *testing.T) {
	runs := withFailures(goldenFlows(t, []int{1, 5, 9, 18, 21}, 0))
	var b strings.Builder
	for _, r := range runs {
		r.opt.NodeAware = true
		res := simulate(t, r)
		fmt.Fprintf(&b, "run\t%s\t%d\n", r.name, int64(res.Makespan))
		for _, k := range res.Tasks {
			fmt.Fprintf(&b, "task\t%s\t%s\t%d\t%d\t%d\t%s\t%d\n",
				k.Job, k.Stage, k.Index, int64(k.Start), int64(k.End), k.Bottleneck, k.Retries)
		}
		for _, s := range res.States {
			fmt.Fprintf(&b, "state\t%d\t%d\t%s", int64(s.Start), int64(s.End), strings.Join(s.Running, ","))
			for _, u := range s.Utilization {
				fmt.Fprintf(&b, "\t%s", strconv.FormatFloat(u, 'g', -1, 64))
			}
			b.WriteByte('\n')
		}
	}
	checkGolden(t, "nodeaware.golden", b.String(), nodeAwareLinesClose)
}

// nodeAwareLinesClose reports whether two node-aware golden lines agree
// within the stated tolerances.
func nodeAwareLinesClose(got, want string) bool {
	g, w := strings.Split(got, "\t"), strings.Split(want, "\t")
	if len(g) != len(w) || g[0] != w[0] {
		return false
	}
	var times, utils []int // field indices compared with tolerance
	switch g[0] {
	case "run":
		times = []int{2}
	case "task":
		times = []int{4, 5}
	case "state":
		times, utils = []int{1, 2}, []int{4, 5, 6, 7}
	}
	loose := map[int]bool{}
	for _, i := range times {
		loose[i] = true
		a, err1 := strconv.ParseInt(g[i], 10, 64)
		b, err2 := strconv.ParseInt(w[i], 10, 64)
		if err1 != nil || err2 != nil || a-b > 10 || b-a > 10 {
			return false
		}
	}
	for _, i := range utils {
		loose[i] = true
		a, err1 := strconv.ParseFloat(g[i], 64)
		b, err2 := strconv.ParseFloat(w[i], 64)
		if err1 != nil || err2 != nil || math.Abs(a-b) > 1e-9*math.Max(math.Abs(a), math.Abs(b)) {
			return false
		}
	}
	for i := range g {
		if !loose[i] && g[i] != w[i] {
			return false
		}
	}
	return true
}

// BenchmarkSimulateNodeAware measures the node-aware simulator on the
// WC+TS hybrid at paper scale: every event solves each node's pools.
func BenchmarkSimulateNodeAware(b *testing.B) {
	cfg := experiments.Default()
	flow, err := experiments.BuildNamed("wc+ts", cfg)
	if err != nil {
		b.Fatal(err)
	}
	opt := cfg.SimOptions(1)
	opt.NodeAware = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := simulator.New(cfg.Spec, opt).Run(flow); err != nil {
			b.Fatal(err)
		}
	}
}
