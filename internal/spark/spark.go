// Package spark translates Spark-style stage lineages into the MapReduce
// workflow model, backing the paper's claim that "the result is easy to
// be extended to other cluster-based distributed systems such as Spark
// and Tez, of which the key mechanisms for execution model, task
// distribution and fault-tolerance are similar" (§I).
//
// A Spark job is a DAG of stages separated by shuffle boundaries; narrow
// dependencies fuse into a single stage. The translation maps every
// shuffle boundary onto one MapReduce job: the upstream stage's fused
// pipeline becomes the map side (scan + compute + shuffle write) and the
// downstream stage's shuffle read becomes the reduce side. Stages that
// feed an action directly (no shuffle below them) become map-only jobs.
// The resulting dag.Workflow runs on the same simulator and cost models
// as everything else in this repository.
package spark

import (
	"fmt"

	"boedag/internal/dag"
	"boedag/internal/units"
	"boedag/internal/workload"
)

// StageID names a stage within a lineage.
type StageID string

// Stage is one Spark stage: a fused pipeline of narrow transformations
// bounded by shuffles (or the data source / action).
type Stage struct {
	// ID must be unique within the lineage.
	ID StageID
	// InputBytes is the source data volume for stages that read storage
	// (leave zero for stages fed purely by parent shuffles).
	InputBytes units.Bytes
	// Parents are the stages whose shuffle output this stage reads.
	Parents []StageID
	// Selectivity is output bytes per input byte of the fused pipeline.
	Selectivity float64
	// CPUCost is unit-cost compute per input byte of the fused pipeline
	// (1.0 ≈ a plain scan).
	CPUCost float64
}

// Lineage is a Spark job: a DAG of stages. The last stages (those nobody
// consumes) feed the action.
type Lineage struct {
	Name   string
	Stages []Stage
}

// Validate reports structural problems: duplicate IDs, unknown parents,
// sourceless stages, or non-positive shapes.
func (l *Lineage) Validate() error {
	if l.Name == "" {
		return fmt.Errorf("spark: lineage needs a name")
	}
	if len(l.Stages) == 0 {
		return fmt.Errorf("spark: lineage %q has no stages", l.Name)
	}
	seen := map[StageID]bool{}
	for _, s := range l.Stages {
		if s.ID == "" {
			return fmt.Errorf("spark: lineage %q: stage with empty ID", l.Name)
		}
		if seen[s.ID] {
			return fmt.Errorf("spark: lineage %q: duplicate stage %q", l.Name, s.ID)
		}
		seen[s.ID] = true
		if s.InputBytes == 0 && len(s.Parents) == 0 {
			return fmt.Errorf("spark: lineage %q: stage %q has no input and no parents", l.Name, s.ID)
		}
		if s.InputBytes < 0 {
			return fmt.Errorf("spark: lineage %q: stage %q has negative input", l.Name, s.ID)
		}
		if s.Selectivity < 0 || s.CPUCost < 0 {
			return fmt.Errorf("spark: lineage %q: stage %q has negative shape", l.Name, s.ID)
		}
	}
	for _, s := range l.Stages {
		for _, p := range s.Parents {
			if !seen[p] {
				return fmt.Errorf("spark: lineage %q: stage %q reads unknown stage %q", l.Name, s.ID, p)
			}
			if p == s.ID {
				return fmt.Errorf("spark: lineage %q: stage %q reads itself", l.Name, s.ID)
			}
		}
	}
	return nil
}

// Translate compiles the lineage into a workflow of MapReduce jobs: one
// job per stage. A stage with children becomes the map+shuffle side and
// its children consume its output; a terminal stage becomes a map-only
// job writing the action's result. Output sizes propagate through the
// DAG the way the TPC-H planner's do.
func Translate(l *Lineage) (*dag.Workflow, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	hasChild := map[StageID]bool{}
	for _, s := range l.Stages {
		for _, p := range s.Parents {
			hasChild[p] = true
		}
	}

	w := &dag.Workflow{Name: l.Name}
	outBytes := map[StageID]units.Bytes{}

	// Stages are processed in lineage order; parents must come first for
	// sizes to propagate. Validate that as we go.
	done := map[StageID]bool{}
	for _, s := range l.Stages {
		in := s.InputBytes
		for _, p := range s.Parents {
			if !done[p] {
				return nil, fmt.Errorf("spark: lineage %q: stage %q listed before its parent %q",
					l.Name, s.ID, p)
			}
			in += outBytes[p]
		}
		if in <= 0 {
			return nil, fmt.Errorf("spark: lineage %q: stage %q receives no data", l.Name, s.ID)
		}

		sel := s.Selectivity
		if sel == 0 {
			sel = 1
		}
		cpu := s.CPUCost
		if cpu == 0 {
			cpu = 1
		}
		partitions := int(in/(128*units.MB)) + 1 // one task per 128 MB

		p := workload.JobProfile{
			Name:            l.Name + "/" + string(s.ID),
			InputBytes:      in,
			SplitBytes:      splitFor(in, partitions),
			MapSelectivity:  sel,
			MapCPUCost:      cpu,
			Replicas:        1, // shuffle files and cached RDDs are unreplicated
			SortBufferBytes: 100 * units.MB,
			SkewCV:          0.1,
		}
		switch {
		case hasChild[s.ID]:
			// Shuffle boundary below: the downstream exchange is this job's
			// reduce side, sized like Spark's default partitioning.
			p.ReduceTasks = reducePartitions(in.Scale(sel))
			p.ReduceSelectivity = 1.0
			p.ReduceCPUCost = 0.5 // exchange only; the child does the work
		default:
			// Terminal stage: action result (collect/save).
			p.ReduceTasks = 0
		}

		job := dag.Job{ID: string(s.ID), Profile: p}
		for _, parent := range s.Parents {
			job.Deps = append(job.Deps, string(parent))
		}
		w.Jobs = append(w.Jobs, job)
		outBytes[s.ID] = p.OutputBytes()
		done[s.ID] = true
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("spark: translated workflow invalid: %w", err)
	}
	return w, nil
}

// splitFor sizes map splits so the stage gets the requested partition
// count.
func splitFor(in units.Bytes, partitions int) units.Bytes {
	s := in / units.Bytes(partitions)
	if s < units.MB {
		return units.MB
	}
	return s
}

// reducePartitions mimics spark.sql.shuffle.partitions-style sizing: one
// partition per 128 MB of exchange data, within [2, 200].
func reducePartitions(exchange units.Bytes) int {
	n := int(exchange / (128 * units.MB))
	if n < 2 {
		return 2
	}
	if n > 200 {
		return 200
	}
	return n
}

// WordCountLineage is a canonical example: read → flatMap/map (fused) →
// reduceByKey → save.
func WordCountLineage(input units.Bytes) *Lineage {
	return &Lineage{
		Name: "spark-wc",
		Stages: []Stage{
			{ID: "tokenize", InputBytes: input, Selectivity: 0.25, CPUCost: 3},
			{ID: "counts", Parents: []StageID{"tokenize"}, Selectivity: 0.5, CPUCost: 1.2},
		},
	}
}

// PageRankLineage models the classic iterative PageRank: an edge scan
// followed by `iters` contribution-exchange stages.
func PageRankLineage(edges units.Bytes, iters int) *Lineage {
	l := &Lineage{Name: "spark-pr"}
	l.Stages = append(l.Stages, Stage{ID: "edges", InputBytes: edges, Selectivity: 1.1, CPUCost: 1.4})
	prev := StageID("edges")
	for i := 1; i <= iters; i++ {
		id := StageID(fmt.Sprintf("rank%d", i))
		l.Stages = append(l.Stages, Stage{
			ID: id, Parents: []StageID{prev}, Selectivity: 1.0, CPUCost: 1.3,
		})
		prev = id
	}
	return l
}
