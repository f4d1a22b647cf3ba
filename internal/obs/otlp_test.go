package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// otlpTestEvents is a small run slice covering every span-shaped type
// plus instant events the exporter must skip.
func otlpTestEvents() []Event {
	return []Event{
		{Type: EvJobSubmit, Job: "wc", Time: 0},
		{Type: EvStageStart, Job: "wc", Stage: "map", Time: 2, Value: 4},
		{Type: EvTaskStart, Job: "wc", Stage: "map", Task: 0, Time: 2},
		{Type: EvSubStageFinish, Job: "wc", Stage: "map", Sub: "read+map", Task: 0, Time: 3, Dur: 5, Resource: "disk_read"},
		{Type: EvTaskFinish, Job: "wc", Stage: "map", Task: 0, Time: 2, Dur: 7, Resource: "cpu", Value: -1},
		{Type: EvTaskFinish, Job: "wc", Stage: "map", Task: 1, Time: 2, Dur: 8, Resource: "cpu", Value: -1},
		{Type: EvStageFinish, Job: "wc", Stage: "map", Time: 2, Dur: 8, Resource: "cpu"},
		{Type: EvStateOpen, Seq: 1, Time: 2, Detail: "wc/map"},
		{Type: EvStateClose, Seq: 1, Time: 2, Dur: 8, Detail: "wc/map", Resource: "cpu", Value: 0.87},
	}
}

// otlpShape mirrors the OTLP JSON structure a consumer would decode.
type otlpShape struct {
	ResourceSpans []struct {
		Resource struct {
			Attributes []struct {
				Key   string `json:"key"`
				Value struct {
					StringValue string `json:"stringValue"`
				} `json:"value"`
			} `json:"attributes"`
		} `json:"resource"`
		ScopeSpans []struct {
			Scope struct {
				Name string `json:"name"`
			} `json:"scope"`
			Spans []struct {
				TraceID           string `json:"traceId"`
				SpanID            string `json:"spanId"`
				ParentSpanID      string `json:"parentSpanId"`
				Name              string `json:"name"`
				StartTimeUnixNano string `json:"startTimeUnixNano"`
				EndTimeUnixNano   string `json:"endTimeUnixNano"`
			} `json:"spans"`
		} `json:"scopeSpans"`
	} `json:"resourceSpans"`
	ResourceMetrics []struct {
		ScopeMetrics []struct {
			Metrics []struct {
				Name string `json:"name"`
				Sum  *struct {
					DataPoints []struct {
						AsInt string `json:"asInt"`
					} `json:"dataPoints"`
					IsMonotonic bool `json:"isMonotonic"`
				} `json:"sum"`
				Gauge *struct {
					DataPoints []struct {
						AsDouble float64 `json:"asDouble"`
					} `json:"dataPoints"`
				} `json:"gauge"`
				Histogram *struct {
					DataPoints []struct {
						Count          string    `json:"count"`
						BucketCounts   []string  `json:"bucketCounts"`
						ExplicitBounds []float64 `json:"explicitBounds"`
					} `json:"dataPoints"`
				} `json:"histogram"`
			} `json:"metrics"`
		} `json:"scopeMetrics"`
	} `json:"resourceMetrics"`
}

func TestWriteOTLPTracesShape(t *testing.T) {
	events := otlpTestEvents()
	var buf bytes.Buffer
	if err := WriteOTLP(&buf, events, nil, OTLPOptions{Start: time.Unix(1700000000, 0)}); err != nil {
		t.Fatal(err)
	}

	var shape otlpShape
	if err := json.Unmarshal(buf.Bytes(), &shape); err != nil {
		t.Fatalf("export does not decode: %v", err)
	}
	if len(shape.ResourceSpans) != 1 || len(shape.ResourceSpans[0].ScopeSpans) != 1 {
		t.Fatalf("unexpected envelope: %+v", shape.ResourceSpans)
	}
	rs := shape.ResourceSpans[0]
	foundService := false
	for _, a := range rs.Resource.Attributes {
		if a.Key == "service.name" && a.Value.StringValue == "boedag" {
			foundService = true
		}
	}
	if !foundService {
		t.Error("resource missing service.name=boedag")
	}
	spans := rs.ScopeSpans[0].Spans
	if len(spans) != SpanCount(events) {
		t.Fatalf("decoded %d spans, want %d", len(spans), SpanCount(events))
	}
	byName := map[string]int{}
	for _, sp := range spans {
		byName[sp.Name]++
		if len(sp.TraceID) != 32 || len(sp.SpanID) != 16 {
			t.Errorf("span %q has malformed ids trace=%q span=%q", sp.Name, sp.TraceID, sp.SpanID)
		}
		if sp.StartTimeUnixNano == "" || sp.EndTimeUnixNano == "" {
			t.Errorf("span %q missing timestamps", sp.Name)
		}
	}
	for _, want := range []string{"wc/map[0]", "wc/map[1]", "read+map", "wc/map", "state 1"} {
		if byName[want] == 0 {
			t.Errorf("no span named %q (have %v)", want, byName)
		}
	}

	// Parent links: task → stage, sub-stage → task.
	spanID := map[string]string{}
	for _, sp := range spans {
		spanID[sp.Name] = sp.SpanID
	}
	for _, sp := range spans {
		switch sp.Name {
		case "wc/map[0]", "wc/map[1]":
			if sp.ParentSpanID != spanID["wc/map"] {
				t.Errorf("task span %q parent = %q, want stage span %q", sp.Name, sp.ParentSpanID, spanID["wc/map"])
			}
		case "read+map":
			if sp.ParentSpanID != spanID["wc/map[0]"] {
				t.Errorf("sub-stage parent = %q, want task span %q", sp.ParentSpanID, spanID["wc/map[0]"])
			}
		case "wc/map", "state 1":
			if sp.ParentSpanID != "" {
				t.Errorf("%q should be a root span, parent = %q", sp.Name, sp.ParentSpanID)
			}
		}
	}
}

func TestWriteOTLPTracesDeterministic(t *testing.T) {
	events := otlpTestEvents()
	opt := OTLPOptions{Start: time.Unix(1700000000, 0)}
	var a, b bytes.Buffer
	if err := WriteOTLP(&a, events, nil, opt); err != nil {
		t.Fatal(err)
	}
	if err := WriteOTLP(&b, events, nil, opt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two exports of the same events differ")
	}
}

func TestWriteOTLPMetricsShape(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("sim_tasks_finished").Add(42)
	reg.Gauge("sim_mean_utilization_cpu").Set(0.75)
	reg.Histogram("sim_task_duration_s").Observe(12.5)
	reg.Histogram("sim_task_duration_s").Observe(14.0)

	var buf bytes.Buffer
	if err := WriteOTLP(&buf, nil, reg, OTLPOptions{Start: time.Unix(1700000000, 0)}); err != nil {
		t.Fatal(err)
	}
	var shape otlpShape
	if err := json.Unmarshal(buf.Bytes(), &shape); err != nil {
		t.Fatalf("export does not decode: %v", err)
	}
	if len(shape.ResourceMetrics) != 1 || len(shape.ResourceMetrics[0].ScopeMetrics) != 1 {
		t.Fatalf("unexpected envelope: %+v", shape.ResourceMetrics)
	}
	byName := map[string]int{}
	for _, m := range shape.ResourceMetrics[0].ScopeMetrics[0].Metrics {
		byName[m.Name]++
		switch m.Name {
		case "sim_tasks_finished":
			if m.Sum == nil || !m.Sum.IsMonotonic || m.Sum.DataPoints[0].AsInt != "42" {
				t.Errorf("counter mapped wrong: %+v", m)
			}
		case "sim_mean_utilization_cpu":
			if m.Gauge == nil || m.Gauge.DataPoints[0].AsDouble != 0.75 {
				t.Errorf("gauge mapped wrong: %+v", m)
			}
		case "sim_task_duration_s":
			if m.Histogram == nil {
				t.Fatalf("histogram missing: %+v", m)
			}
			dp := m.Histogram.DataPoints[0]
			if dp.Count != "2" {
				t.Errorf("histogram count = %s, want 2", dp.Count)
			}
			if len(dp.BucketCounts) != len(dp.ExplicitBounds)+1 {
				t.Errorf("bucketCounts/explicitBounds mismatch: %d vs %d",
					len(dp.BucketCounts), len(dp.ExplicitBounds))
			}
		}
	}
	if len(byName) != 3 {
		t.Errorf("metrics = %v, want 3 entries", byName)
	}
}

func TestWriteOTLPUnion(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c").Inc()
	var buf bytes.Buffer
	if err := WriteOTLP(&buf, otlpTestEvents(), reg, OTLPOptions{Start: time.Unix(1700000000, 0)}); err != nil {
		t.Fatal(err)
	}
	var shape otlpShape
	if err := json.Unmarshal(buf.Bytes(), &shape); err != nil {
		t.Fatal(err)
	}
	if len(shape.ResourceSpans) == 0 || len(shape.ResourceMetrics) == 0 {
		t.Error("union export missing one half")
	}
}

func TestPostOTLP(t *testing.T) {
	var mu struct {
		paths []string
		spans int
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("content type %q", ct)
		}
		var shape otlpShape
		if err := json.NewDecoder(r.Body).Decode(&shape); err != nil {
			t.Errorf("body does not decode: %v", err)
		}
		mu.paths = append(mu.paths, r.URL.Path)
		for _, rs := range shape.ResourceSpans {
			for _, ss := range rs.ScopeSpans {
				mu.spans += len(ss.Spans)
			}
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	reg := NewRegistry()
	reg.Counter("c").Inc()
	events := otlpTestEvents()
	if err := PostOTLP(srv.URL, events, reg, OTLPOptions{}); err != nil {
		t.Fatal(err)
	}
	if strings.Join(mu.paths, ",") != "/v1/traces,/v1/metrics" {
		t.Errorf("collector saw paths %v", mu.paths)
	}
	if mu.spans != SpanCount(events) {
		t.Errorf("collector received %d spans, want %d", mu.spans, SpanCount(events))
	}
}

func TestPostOTLPCollectorError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad payload", http.StatusBadRequest)
	}))
	defer srv.Close()
	err := PostOTLP(srv.URL, otlpTestEvents(), nil, OTLPOptions{})
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("collector 400 not surfaced: %v", err)
	}
}

// TestWriteOTLPTracesAnnotated pins the OTLP side of the annotation
// contract: stage and state spans gain boedag.<key> attributes (every
// Go value type mapping to its OTLP form), the run annotations land as
// resource attributes, and a nil-annotation export stays byte-identical
// to the plain one.
func TestWriteOTLPTracesAnnotated(t *testing.T) {
	events := otlpTestEvents()
	ann := &TraceAnnotations{
		Stage: map[string]map[string]any{
			"wc/map": {
				"critical":          true,
				"critical_s":        7.5,
				"critical_resource": "cpu",
				"pieces":            int(2),
				"waves":             int64(3),
				"extra":             []int{1, 2}, // falls back to %v string
			},
		},
		State: map[int]map[string]any{
			1: {"explain_dominant": "slots"},
		},
		Run: map[string]any{
			"bottleneck":     "network",
			"best_parameter": "network",
		},
	}
	opt := OTLPOptions{Start: time.Unix(1700000000, 0), Annotations: ann}
	var buf bytes.Buffer
	if err := WriteOTLP(&buf, events, nil, opt); err != nil {
		t.Fatal(err)
	}

	type attr struct {
		Key   string `json:"key"`
		Value struct {
			StringValue *string  `json:"stringValue"`
			BoolValue   *bool    `json:"boolValue"`
			IntValue    *string  `json:"intValue"`
			DoubleValue *float64 `json:"doubleValue"`
		} `json:"value"`
	}
	var shape struct {
		ResourceSpans []struct {
			Resource struct {
				Attributes []attr `json:"attributes"`
			} `json:"resource"`
			ScopeSpans []struct {
				Spans []struct {
					Name       string `json:"name"`
					Attributes []attr `json:"attributes"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &shape); err != nil {
		t.Fatalf("annotated export does not decode: %v", err)
	}
	index := func(attrs []attr) map[string]attr {
		m := make(map[string]attr, len(attrs))
		for _, a := range attrs {
			m[a.Key] = a
		}
		return m
	}

	res := index(shape.ResourceSpans[0].Resource.Attributes)
	if a, ok := res["boedag.bottleneck"]; !ok || a.Value.StringValue == nil || *a.Value.StringValue != "network" {
		t.Errorf("resource missing run annotation boedag.bottleneck: %+v", res)
	}
	var stage, state map[string]attr
	for _, sp := range shape.ResourceSpans[0].ScopeSpans[0].Spans {
		switch sp.Name {
		case "wc/map":
			stage = index(sp.Attributes)
		case "state 1":
			state = index(sp.Attributes)
		}
	}
	if a := stage["boedag.critical"]; a.Value.BoolValue == nil || !*a.Value.BoolValue {
		t.Errorf("stage span missing boolean boedag.critical: %+v", stage)
	}
	if a := stage["boedag.critical_s"]; a.Value.DoubleValue == nil || *a.Value.DoubleValue != 7.5 {
		t.Errorf("stage span missing double boedag.critical_s: %+v", stage)
	}
	if a := stage["boedag.pieces"]; a.Value.IntValue == nil || *a.Value.IntValue != "2" {
		t.Errorf("int annotation not an OTLP int: %+v", stage)
	}
	if a := stage["boedag.waves"]; a.Value.IntValue == nil || *a.Value.IntValue != "3" {
		t.Errorf("int64 annotation not an OTLP int: %+v", stage)
	}
	if a := stage["boedag.extra"]; a.Value.StringValue == nil || *a.Value.StringValue != "[1 2]" {
		t.Errorf("fallback annotation not stringified: %+v", stage)
	}
	// Recorded attributes survive next to the annotations.
	if a := stage["boedag.bottleneck"]; a.Value.StringValue == nil || *a.Value.StringValue != "cpu" {
		t.Errorf("recorded stage bottleneck lost: %+v", stage)
	}
	if a := state["boedag.explain_dominant"]; a.Value.StringValue == nil || *a.Value.StringValue != "slots" {
		t.Errorf("state span missing annotation: %+v", state)
	}

	// Nil annotations must not change a single byte.
	var plain, annNil bytes.Buffer
	if err := WriteOTLP(&plain, events, nil, OTLPOptions{Start: time.Unix(1700000000, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := WriteOTLP(&annNil, events, nil, OTLPOptions{Start: time.Unix(1700000000, 0), Annotations: nil}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), annNil.Bytes()) {
		t.Error("nil-annotation OTLP export diverges from the plain one")
	}
}
