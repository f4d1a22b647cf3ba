package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"boedag/internal/simulator"
)

// ExportTasksCSV writes a simulation result's task records as CSV, one
// row per task, timestamps in seconds — the format external plotting
// tools consume directly.
func ExportTasksCSV(w io.Writer, res *simulator.Result) error {
	cw := csv.NewWriter(w)
	header := []string{"job", "stage", "index", "start_s", "end_s", "duration_s",
		"bottleneck", "size_factor", "retries"}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: export tasks: %w", err)
	}
	for _, t := range res.Tasks {
		row := []string{
			t.Job,
			t.Stage.String(),
			strconv.Itoa(t.Index),
			formatSec(t.Start.Seconds()),
			formatSec(t.End.Seconds()),
			formatSec(t.Duration().Seconds()),
			t.Bottleneck.String(),
			strconv.FormatFloat(t.SizeFactor, 'f', 4, 64),
			strconv.Itoa(t.Retries),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: export tasks: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: export tasks: %w", err)
	}
	return nil
}

// ExportStagesCSV writes a result's stage records as CSV.
func ExportStagesCSV(w io.Writer, res *simulator.Result) error {
	cw := csv.NewWriter(w)
	header := []string{"job", "stage", "start_s", "end_s", "duration_s",
		"tasks", "max_parallelism", "median_task_s", "mean_task_s", "bottleneck"}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: export stages: %w", err)
	}
	for _, s := range res.Stages {
		row := []string{
			s.Job,
			s.Stage.String(),
			formatSec(s.Start.Seconds()),
			formatSec(s.End.Seconds()),
			formatSec(s.Duration().Seconds()),
			strconv.Itoa(len(s.TaskTimes)),
			strconv.Itoa(s.MaxParallelism),
			formatSec(s.MedianTaskTime().Seconds()),
			formatSec(s.MeanTaskTime().Seconds()),
			s.Bottleneck.String(),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: export stages: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: export stages: %w", err)
	}
	return nil
}

// resultJSON is the stable exported shape of a run (field names are the
// public contract, independent of internal struct layout).
type resultJSON struct {
	Workflow string      `json:"workflow"`
	Makespan float64     `json:"makespan_s"`
	Stages   []stageJSON `json:"stages"`
	States   []stateJSON `json:"states"`
	Tasks    int         `json:"tasks"`
	Retries  int         `json:"retries"`
}

type stageJSON struct {
	Job            string  `json:"job"`
	Stage          string  `json:"stage"`
	Start          float64 `json:"start_s"`
	End            float64 `json:"end_s"`
	Tasks          int     `json:"tasks"`
	MaxParallelism int     `json:"max_parallelism"`
	MedianTask     float64 `json:"median_task_s"`
	Bottleneck     string  `json:"bottleneck"`
}

type stateJSON struct {
	Seq     int      `json:"seq"`
	Start   float64  `json:"start_s"`
	End     float64  `json:"end_s"`
	Running []string `json:"running"`
}

// ExportResultJSON writes a run summary as indented JSON.
func ExportResultJSON(w io.Writer, res *simulator.Result) error {
	out := resultJSON{
		Workflow: res.Workflow,
		Makespan: res.Makespan.Seconds(),
		Tasks:    len(res.Tasks),
		Retries:  res.TotalRetries(),
	}
	for _, s := range res.Stages {
		out.Stages = append(out.Stages, stageJSON{
			Job:            s.Job,
			Stage:          s.Stage.String(),
			Start:          s.Start.Seconds(),
			End:            s.End.Seconds(),
			Tasks:          len(s.TaskTimes),
			MaxParallelism: s.MaxParallelism,
			MedianTask:     s.MedianTaskTime().Seconds(),
			Bottleneck:     s.Bottleneck.String(),
		})
	}
	for _, st := range res.States {
		out.States = append(out.States, stateJSON{
			Seq: st.Seq, Start: st.Start.Seconds(), End: st.End.Seconds(), Running: st.Running,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("trace: export result: %w", err)
	}
	return nil
}

func formatSec(s float64) string { return strconv.FormatFloat(s, 'f', 3, 64) }
