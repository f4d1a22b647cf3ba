package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strconv"
	"testing"
)

func TestExportTasksCSV(t *testing.T) {
	res := sampleResult(t)
	var buf bytes.Buffer
	if err := ExportTasksCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(res.Tasks)+1 {
		t.Fatalf("csv rows = %d, want %d tasks + header", len(rows), len(res.Tasks))
	}
	if rows[0][0] != "job" || rows[0][8] != "retries" {
		t.Errorf("header = %v", rows[0])
	}
	// Every data row parses: duration = end - start within rounding.
	for _, row := range rows[1:] {
		start, err1 := strconv.ParseFloat(row[3], 64)
		end, err2 := strconv.ParseFloat(row[4], 64)
		dur, err3 := strconv.ParseFloat(row[5], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("unparseable row %v", row)
		}
		if diff := (end - start) - dur; diff > 0.01 || diff < -0.01 {
			t.Errorf("row %v: duration mismatch", row)
		}
	}
}

func TestExportStagesCSV(t *testing.T) {
	res := sampleResult(t)
	var buf bytes.Buffer
	if err := ExportStagesCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(res.Stages)+1 {
		t.Fatalf("csv rows = %d, want %d stages + header", len(rows), len(res.Stages))
	}
}

func TestExportResultJSON(t *testing.T) {
	res := sampleResult(t)
	var buf bytes.Buffer
	if err := ExportResultJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Workflow string  `json:"workflow"`
		Makespan float64 `json:"makespan_s"`
		Stages   []struct {
			Job        string `json:"job"`
			Bottleneck string `json:"bottleneck"`
		} `json:"stages"`
		States []struct {
			Seq int `json:"seq"`
		} `json:"states"`
		Tasks int `json:"tasks"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Workflow != res.Workflow {
		t.Errorf("workflow = %q", decoded.Workflow)
	}
	if decoded.Makespan != res.Makespan.Seconds() {
		t.Errorf("makespan = %v", decoded.Makespan)
	}
	if len(decoded.Stages) != len(res.Stages) || len(decoded.States) != len(res.States) {
		t.Error("stage/state counts differ")
	}
	if decoded.Tasks != len(res.Tasks) {
		t.Errorf("tasks = %d", decoded.Tasks)
	}
}
