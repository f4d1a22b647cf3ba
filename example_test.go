package boedag_test

import (
	"fmt"
	"os"
	"strings"
	"time"

	"boedag"
)

// ExampleBOEModel_TaskTime reproduces the paper's core observation: the
// same Word Count map task slows down once the cluster's six cores per
// node are oversubscribed, and the BOE model names the bottleneck.
func ExampleBOEModel_TaskTime() {
	spec := boedag.PaperCluster()
	model := boedag.NewBOE(spec)
	wc := boedag.WordCount(100 * boedag.GB)

	low := model.TaskTime(wc, boedag.Map, 6*spec.Nodes)
	high := model.TaskTime(wc, boedag.Map, 12*spec.Nodes)
	fmt.Printf("6 tasks/node:  %s\n", low)
	fmt.Printf("12 tasks/node: %s\n", high)
	// Output:
	// 6 tasks/node:  map 7.9s [cpu]
	// 12 tasks/node: map 15.8s [cpu]
}

// ExampleSimulator_deterministic shows that simulation runs are exactly
// reproducible for a given seed.
func ExampleSimulator_deterministic() {
	spec := boedag.PaperCluster()
	flow := boedag.Single(boedag.TeraSort(10 * boedag.GB))

	a, _ := boedag.NewSimulator(spec, boedag.SimOptions{Seed: 7}).Run(flow)
	b, _ := boedag.NewSimulator(spec, boedag.SimOptions{Seed: 7}).Run(flow)
	fmt.Println(a.Makespan == b.Makespan)
	// Output:
	// true
}

// ExampleTPCHQuery shows the Hive-style compilation of a TPC-H query
// into a DAG of MapReduce jobs — Q21 is the paper's nine-job example.
func ExampleTPCHQuery() {
	q21, err := boedag.TPCHQuery(21, boedag.PaperTPCHSchema())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("Q21 compiles to %d jobs\n", len(q21.Jobs))
	roots := q21.Roots()
	fmt.Printf("%d jobs can start immediately\n", len(roots))
	// Output:
	// Q21 compiles to 9 jobs
	// 4 jobs can start immediately
}

// ExampleEstimator_Estimate predicts a workflow end to end and reports
// the paper's accuracy metric against a simulated run.
func ExampleEstimator_Estimate() {
	spec := boedag.PaperCluster()
	flow := boedag.Single(boedag.WordCount(20 * boedag.GB))

	timer := &boedag.BOETimer{Model: boedag.NewBOE(spec), TaskStartOverhead: time.Second}
	est := boedag.NewEstimator(spec, timer, boedag.EstimatorOptions{Mode: boedag.NormalMode})
	plan, _ := est.Estimate(flow)
	res, _ := boedag.NewSimulator(spec, boedag.SimOptions{Seed: 1}).Run(flow)

	fmt.Printf("accuracy ≥ 90%%: %v\n", boedag.Accuracy(plan.Makespan, res.Makespan) >= 0.9)
	// Output:
	// accuracy ≥ 90%: true
}

// ExampleTranslateSpark compiles a Spark-style lineage onto the same
// models, backing the paper's generality claim.
func ExampleTranslateSpark() {
	flow, err := boedag.TranslateSpark(boedag.SparkPageRank(5*boedag.GB, 3))
	if err != nil {
		fmt.Println(err)
		return
	}
	order, _ := flow.TopoOrder()
	fmt.Println(order)
	// Output:
	// [edges rank1 rank2 rank3]
}

// ExampleCalibrateCluster recovers the θ_X throughputs of a cluster from a
// recorded probe-session trace instead of a live cluster: the parsed
// session feeds its measurements through the calibration arithmetic.
func ExampleCalibrateCluster() {
	f, err := os.Open("internal/calibrate/testdata/probe_session.trace.json")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer f.Close()
	session, err := boedag.ParseProbeTrace(f)
	if err != nil {
		fmt.Println(err)
		return
	}
	est, err := boedag.CalibrateCluster(boedag.TraceCalibrationRunner(session), session.Slots, session.Nodes)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("session: %d nodes, %d slots\n", session.Nodes, session.Slots)
	fmt.Printf("core %v, disk read %v, network %v\n", est.CoreThroughput, est.DiskReadPool, est.NetworkPool)
	// Output:
	// session: 3 nodes, 6 slots
	// core 50.02MB/s, disk read 450.88MB/s, network 180.00MB/s
}

// ExampleLoadWorkflowSpec builds a workflow from the JSON specification
// that dagsim -spec reads; omitted fields take the documented defaults.
func ExampleLoadWorkflowSpec() {
	spec := `{
	  "name": "etl",
	  "jobs": [
	    {"id": "extract", "input_mb": 4096, "map_selectivity": 0.4, "reduce_tasks": 8},
	    {"id": "load", "deps": ["extract"], "input_mb": 1024}
	  ]
	}`
	flow, err := boedag.LoadWorkflowSpec(strings.NewReader(spec))
	if err != nil {
		fmt.Println(err)
		return
	}
	order, _ := flow.TopoOrder()
	fmt.Println(flow.Name, order)
	fmt.Println("extract map tasks:", flow.Jobs[0].Profile.MapTasks())
	// Output:
	// etl [extract load]
	// extract map tasks: 32
}
