package boedag

import (
	"boedag/internal/dag"
	"boedag/internal/experiments"
	"boedag/internal/hibench"
	"boedag/internal/tpch"
	"boedag/internal/units"
)

// TPC-H (the paper's query workload, §V-A: 80 GB over 8 tables).
type (
	// TPCHSchema is a TPC-H instance at a scale factor.
	TPCHSchema = tpch.Schema
	// TPCHTable names one of the eight base tables.
	TPCHTable = tpch.Table
)

// PaperTPCHSchema returns the paper's 80 GB instance.
func PaperTPCHSchema() TPCHSchema { return tpch.PaperSchema() }

// TPCHQuery compiles TPC-H query q (1..22) to a DAG workflow of
// MapReduce jobs, as Hive's planner would.
func TPCHQuery(q int, schema TPCHSchema) (*Workflow, error) { return tpch.Query(q, schema) }

// TPCHNumQueries is 22.
const TPCHNumQueries = tpch.NumQueries

// HiBench analytics workloads (§V-A: huge data sets).
type (
	// KMeansConfig sizes a KMeans workflow.
	KMeansConfig = hibench.KMeansConfig
	// PageRankConfig sizes a PageRank workflow.
	PageRankConfig = hibench.PageRankConfig
)

// KMeans builds the HiBench-style KMeans DAG (iterations + classify).
func KMeans(cfg KMeansConfig) *Workflow { return hibench.KMeans(cfg) }

// PageRank builds the HiBench-style PageRank DAG (init + iterations).
func PageRank(cfg PageRankConfig) *Workflow { return hibench.PageRank(cfg) }

// DefaultKMeans matches HiBench's huge profile (20 GB, 5 iterations).
func DefaultKMeans() KMeansConfig { return hibench.DefaultKMeans() }

// DefaultPageRank matches HiBench's huge profile (5 GB edges, 3 rounds).
func DefaultPageRank() PageRankConfig { return hibench.DefaultPageRank() }

// WebAnalytics builds the paper's Figure 1 motivating DAG: four jobs over
// a page-view log whose parallel middle jobs make task times drift with
// the workflow state.
func WebAnalytics(logBytes units.Bytes) *dag.Workflow {
	return experiments.WebAnalytics(logBytes)
}

// Additional HiBench workloads (beyond the paper's KMeans and PageRank).
var (
	// HiBenchSort is the Sort micro-benchmark profile.
	HiBenchSort = hibench.Sort
	// HiBenchAggregation is the SQL Aggregation scan profile.
	HiBenchAggregation = hibench.Aggregation
	// HiBenchJoin is the two-job SQL Join workflow.
	HiBenchJoin = hibench.Join
	// HiBenchBayes is the three-job naive-Bayes training workflow.
	HiBenchBayes = hibench.Bayes
)

// BayesConfig sizes the Bayes workflow.
type BayesConfig = hibench.BayesConfig

// LoadWorkflowSpec parses a JSON workflow specification (the format the
// dagsim -spec flag consumes).
var LoadWorkflowSpec = dag.LoadWorkflow

// SaveWorkflowSpec writes a workflow as a JSON spec that
// LoadWorkflowSpec round-trips.
var SaveWorkflowSpec = dag.SaveWorkflow
