package tpch

import (
	"fmt"

	"boedag/internal/dag"
	"boedag/internal/units"
	"boedag/internal/workload"
)

// Rel is a relation a plan operator consumes: either a base table or the
// output of a previous job in the same query plan.
type Rel struct {
	// id is the producing job's ID ("" for base tables).
	id string
	// bytes is the relation's estimated size.
	bytes units.Bytes
}

// builder accumulates the MapReduce jobs a query plan compiles to,
// mirroring how Hive emits one job per shuffle boundary.
type builder struct {
	schema Schema
	w      *dag.Workflow
	n      int
}

func newBuilder(schema Schema, name string) *builder {
	return &builder{schema: schema, w: &dag.Workflow{Name: name}}
}

// table returns a Rel for a base table.
func (b *builder) table(t Table) Rel {
	return Rel{bytes: b.schema.Bytes(t)}
}

// deps collects the producing-job IDs of the given relations.
func deps(rels ...Rel) []string {
	var out []string
	for _, r := range rels {
		if r.id != "" {
			out = append(out, r.id)
		}
	}
	return out
}

// reducersFor sizes the reduce-task count the way Hive does: one reducer
// per 256 MB of shuffle input, clamped to [1, 99].
func reducersFor(shuffleBytes units.Bytes) int {
	n := int(shuffleBytes / (256 * units.MB))
	if n < 1 {
		n = 1
	}
	if n > 99 {
		n = 99
	}
	return n
}

// add registers a job and returns the Rel describing its output.
func (b *builder) add(op string, p workload.JobProfile, depRels []Rel) Rel {
	b.n++
	id := fmt.Sprintf("j%d-%s", b.n, op)
	p.Name = b.w.Name + "-" + id
	job := dag.Job{ID: id, Profile: p, Deps: deps(depRels...)}
	b.w.Jobs = append(b.w.Jobs, job)
	return Rel{id: id, bytes: p.OutputBytes()}
}

// hiveDefaults are the job-profile knobs shared by every compiled job:
// compression on and three replicas, matching the paper's Table I rows
// for the TPC-H hybrid workloads.
func hiveDefaults(p workload.JobProfile) workload.JobProfile {
	p.SplitBytes = 128 * units.MB
	p.Compression = workload.Compression{Enabled: true, Ratio: 0.4, CPUOverhead: 0.3}
	p.Replicas = 3
	p.SortBufferBytes = 100 * units.MB
	if p.SkewCV == 0 {
		p.SkewCV = 0.12
	}
	return p
}

// ScanAgg compiles a "scan → filter → group by → aggregate" block: the
// map filters with selectivity filterSel (and pre-aggregates through the
// combiner), the reduce emits groupSel of its input.
func (b *builder) scanAgg(src Rel, filterSel, groupSel, cpu float64) Rel {
	in := src.bytes
	p := hiveDefaults(workload.JobProfile{
		InputBytes:        in,
		ReduceTasks:       reducersFor(in.Scale(filterSel)),
		MapSelectivity:    filterSel,
		ReduceSelectivity: groupSel,
		MapCPUCost:        cpu,
		ReduceCPUCost:     1.5,
	})
	return b.add("agg", p, []Rel{src})
}

// Join compiles a common (repartition) join of two relations: maps tag
// and project both sides (projSel of the combined input reaches the
// shuffle), reducers emit outSel of the shuffled bytes.
func (b *builder) join(left, right Rel, projSel, outSel float64) Rel {
	in := left.bytes + right.bytes
	p := hiveDefaults(workload.JobProfile{
		InputBytes:        in,
		ReduceTasks:       reducersFor(in.Scale(projSel)),
		MapSelectivity:    projSel,
		ReduceSelectivity: outSel,
		MapCPUCost:        1.6,
		ReduceCPUCost:     2.0,
		SkewCV:            0.18, // join keys are rarely uniform
	})
	return b.add("join", p, []Rel{left, right})
}

// mapJoin compiles a broadcast (map-side) join: the small side is hashed
// in memory, so the job is map-only over the big side; outSel of the big
// side survives.
func (b *builder) mapJoin(big, small Rel, outSel float64) Rel {
	p := hiveDefaults(workload.JobProfile{
		InputBytes:     big.bytes + small.bytes,
		ReduceTasks:    0,
		MapSelectivity: outSel,
		MapCPUCost:     1.8,
	})
	return b.add("mapjoin", p, []Rel{big, small})
}

// groupBy compiles a standalone aggregation over an intermediate
// relation.
func (b *builder) groupBy(src Rel, groupSel float64) Rel {
	p := hiveDefaults(workload.JobProfile{
		InputBytes:        src.bytes,
		ReduceTasks:       reducersFor(src.bytes),
		MapSelectivity:    1.0,
		ReduceSelectivity: groupSel,
		MapCPUCost:        1.4,
		ReduceCPUCost:     1.6,
	})
	return b.add("group", p, []Rel{src})
}

// sortLimit compiles the final ORDER BY (+ LIMIT) job: a single-reducer
// total order over a small relation.
func (b *builder) sortLimit(src Rel, outSel float64) Rel {
	p := hiveDefaults(workload.JobProfile{
		InputBytes:        src.bytes,
		ReduceTasks:       1,
		MapSelectivity:    1.0,
		ReduceSelectivity: outSel,
		MapCPUCost:        1.2,
		ReduceCPUCost:     1.2,
	})
	return b.add("sort", p, []Rel{src})
}

// semiJoin compiles the EXISTS / IN subquery pattern: like a join but the
// output carries only the qualifying left-side rows.
func (b *builder) semiJoin(left, right Rel, outSel float64) Rel {
	in := left.bytes + right.bytes
	p := hiveDefaults(workload.JobProfile{
		InputBytes:        in,
		ReduceTasks:       reducersFor(in),
		MapSelectivity:    1.0,
		ReduceSelectivity: outSel,
		MapCPUCost:        1.5,
		ReduceCPUCost:     1.8,
		SkewCV:            0.18,
	})
	return b.add("semijoin", p, []Rel{left, right})
}

// build validates and returns the workflow.
func (b *builder) build() (*dag.Workflow, error) {
	if err := b.w.Validate(); err != nil {
		return nil, err
	}
	return b.w, nil
}
