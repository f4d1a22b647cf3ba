package dag

import (
	"encoding/json"
	"fmt"
	"io"

	"boedag/internal/units"
	"boedag/internal/workload"
)

// The JSON workflow specification lets users describe their own DAGs for
// the command line (dagsim -spec file.json) and for programmatic
// loading, without writing Go. Sizes are megabytes; everything else maps
// one-to-one onto workload.JobProfile.
//
//	{
//	  "name": "my-etl",
//	  "jobs": [
//	    {"id": "extract", "input_mb": 51200, "map_selectivity": 0.4,
//	     "map_cpu_cost": 1.5, "reduce_tasks": 33, "reduce_selectivity": 0.8},
//	    {"id": "load", "deps": ["extract"], "input_mb": 16384, ...}
//	  ]
//	}

// jobSpec is the JSON shape of one job.
type jobSpec struct {
	ID   string   `json:"id"`
	Deps []string `json:"deps,omitempty"`

	InputMB           float64 `json:"input_mb"`
	SplitMB           float64 `json:"split_mb,omitempty"`
	ReduceTasks       int     `json:"reduce_tasks,omitempty"`
	MapSelectivity    float64 `json:"map_selectivity,omitempty"`
	ReduceSelectivity float64 `json:"reduce_selectivity,omitempty"`
	MapCPUCost        float64 `json:"map_cpu_cost,omitempty"`
	ReduceCPUCost     float64 `json:"reduce_cpu_cost,omitempty"`
	Compress          bool    `json:"compress,omitempty"`
	CompressRatio     float64 `json:"compress_ratio,omitempty"`
	Replicas          int     `json:"replicas,omitempty"`
	SortBufferMB      float64 `json:"sort_buffer_mb,omitempty"`
	MemoryMB          int     `json:"memory_mb,omitempty"`
	VCores            int     `json:"vcores,omitempty"`
	SkewCV            float64 `json:"skew_cv,omitempty"`
}

// workflowSpec is the JSON shape of a workflow.
type workflowSpec struct {
	Name string    `json:"name"`
	Jobs []jobSpec `json:"jobs"`
}

// LoadWorkflow parses a JSON workflow specification and validates the
// resulting DAG. Defaults: 128 MB splits, unit selectivity and CPU cost,
// 3 replicas, a 100 MB sort buffer.
func LoadWorkflow(r io.Reader) (*Workflow, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec workflowSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("dag: parse workflow spec: %w", err)
	}
	w := &Workflow{Name: spec.Name}
	for _, js := range spec.Jobs {
		p := workload.JobProfile{
			Name:              js.ID,
			InputBytes:        units.Bytes(js.InputMB) * units.MB,
			SplitBytes:        128 * units.MB,
			ReduceTasks:       js.ReduceTasks,
			MapSelectivity:    defaultF(js.MapSelectivity, 1),
			ReduceSelectivity: defaultF(js.ReduceSelectivity, 1),
			MapCPUCost:        defaultF(js.MapCPUCost, 1),
			ReduceCPUCost:     defaultF(js.ReduceCPUCost, 1),
			Replicas:          js.Replicas,
			SortBufferBytes:   100 * units.MB,
			MapMemoryMB:       js.MemoryMB,
			ReduceMemoryMB:    js.MemoryMB,
			MapVCores:         js.VCores,
			ReduceVCores:      js.VCores,
			SkewCV:            js.SkewCV,
		}
		if js.SplitMB > 0 {
			p.SplitBytes = units.Bytes(js.SplitMB) * units.MB
		}
		if js.SortBufferMB > 0 {
			p.SortBufferBytes = units.Bytes(js.SortBufferMB) * units.MB
		}
		if js.Compress {
			ratio := js.CompressRatio
			if ratio <= 0 || ratio > 1 {
				ratio = 0.4
			}
			p.Compression = workload.Compression{Enabled: true, Ratio: ratio, CPUOverhead: 0.3}
		}
		w.Jobs = append(w.Jobs, Job{ID: js.ID, Profile: p, Deps: js.Deps})
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// SaveWorkflow writes the workflow as a JSON spec that LoadWorkflow
// round-trips (sizes are rounded to whole megabytes).
func SaveWorkflow(w io.Writer, flow *Workflow) error {
	if err := flow.Validate(); err != nil {
		return err
	}
	spec := workflowSpec{Name: flow.Name}
	for _, j := range flow.Jobs {
		p := j.Profile
		js := jobSpec{
			ID:                j.ID,
			Deps:              j.Deps,
			InputMB:           float64(p.InputBytes / units.MB),
			SplitMB:           float64(p.SplitBytes / units.MB),
			ReduceTasks:       p.ReduceTasks,
			MapSelectivity:    p.MapSelectivity,
			ReduceSelectivity: p.ReduceSelectivity,
			MapCPUCost:        p.MapCPUCost,
			ReduceCPUCost:     p.ReduceCPUCost,
			Compress:          p.Compression.Enabled,
			Replicas:          p.Replicas,
			SortBufferMB:      float64(p.SortBufferBytes / units.MB),
			MemoryMB:          p.MapMemoryMB,
			VCores:            p.MapVCores,
			SkewCV:            p.SkewCV,
		}
		if p.Compression.Enabled {
			js.CompressRatio = p.Compression.Ratio
		}
		spec.Jobs = append(spec.Jobs, js)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(spec); err != nil {
		return fmt.Errorf("dag: save workflow spec: %w", err)
	}
	return nil
}

func defaultF(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}
