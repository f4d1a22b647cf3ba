package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// OTLP export: a hand-rolled encoding of the event stream and the metrics
// registry onto the OpenTelemetry Protocol's JSON wire format (the
// OTLP/HTTP JSON mapping of opentelemetry-proto), using only the standard
// library. Span-shaped events become spans on a single trace — tasks
// parented under their stage, sub-stages under their task, workflow
// states as root-level spans — and the registry's counters, gauges and
// histograms become OTLP sums, gauges and histograms. The output decodes
// with encoding/json into the standard resourceSpans / resourceMetrics
// shape and lands in any OTLP-compatible collector.

// OTLPOptions configure an export.
type OTLPOptions struct {
	// Start anchors model-time zero on the wall clock. Zero value anchors
	// the run so its last event ends at export time (collectors render
	// the run as "just finished"); tests pass a fixed instant for
	// deterministic output.
	Start time.Time
	// Service is the resource's service.name attribute ("boedag" when
	// empty).
	Service string
	// Annotations attach derived analysis args (package explain's
	// critical-path and bottleneck attribution) to the matching spans:
	// stage annotations become boedag.<key> span attributes, run
	// annotations become boedag.<key> resource attributes.
	Annotations *TraceAnnotations
}

func (o OTLPOptions) withDefaults(events []Event) OTLPOptions {
	if o.Service == "" {
		o.Service = "boedag"
	}
	if o.Start.IsZero() {
		span := 0.0
		for _, ev := range events {
			if end := ev.Time + ev.Dur; end > span {
				span = end
			}
		}
		o.Start = time.Now().Add(-time.Duration(span * float64(time.Second)))
	}
	return o
}

// The proto3 JSON mapping renders 64-bit integers as decimal strings and
// byte-array ids as hex strings; these types mirror the subset of
// opentelemetry-proto the exporter emits.

type otlpKeyValue struct {
	Key   string        `json:"key"`
	Value otlpByteValue `json:"value"`
}

// otlpByteValue is proto AnyValue restricted to the four cases used.
type otlpByteValue struct {
	StringValue *string  `json:"stringValue,omitempty"`
	IntValue    *string  `json:"intValue,omitempty"`
	DoubleValue *float64 `json:"doubleValue,omitempty"`
	BoolValue   *bool    `json:"boolValue,omitempty"`
}

func strAttr(key, v string) otlpKeyValue {
	return otlpKeyValue{Key: key, Value: otlpByteValue{StringValue: &v}}
}

func intAttr(key string, v int64) otlpKeyValue {
	s := strconv.FormatInt(v, 10)
	return otlpKeyValue{Key: key, Value: otlpByteValue{IntValue: &s}}
}

func floatAttr(key string, v float64) otlpKeyValue {
	return otlpKeyValue{Key: key, Value: otlpByteValue{DoubleValue: &v}}
}

func boolAttr(key string, v bool) otlpKeyValue {
	return otlpKeyValue{Key: key, Value: otlpByteValue{BoolValue: &v}}
}

// annAttrs renders an annotation arg map as boedag.<key> attributes in
// sorted key order. Unknown value types fall back to their fmt %v form.
func annAttrs(m map[string]any) []otlpKeyValue {
	if len(m) == 0 {
		return nil
	}
	out := make([]otlpKeyValue, 0, len(m))
	for _, k := range sortedKeys(m) {
		key := "boedag." + k
		switch v := m[k].(type) {
		case bool:
			out = append(out, boolAttr(key, v))
		case int:
			out = append(out, intAttr(key, int64(v)))
		case int64:
			out = append(out, intAttr(key, v))
		case float64:
			out = append(out, floatAttr(key, v))
		case string:
			out = append(out, strAttr(key, v))
		default:
			out = append(out, strAttr(key, fmt.Sprintf("%v", v)))
		}
	}
	return out
}

type otlpResource struct {
	Attributes []otlpKeyValue `json:"attributes"`
}

type otlpScope struct {
	Name    string `json:"name"`
	Version string `json:"version,omitempty"`
}

type otlpSpan struct {
	TraceID           string         `json:"traceId"`
	SpanID            string         `json:"spanId"`
	ParentSpanID      string         `json:"parentSpanId,omitempty"`
	Name              string         `json:"name"`
	Kind              int            `json:"kind"`
	StartTimeUnixNano string         `json:"startTimeUnixNano"`
	EndTimeUnixNano   string         `json:"endTimeUnixNano"`
	Attributes        []otlpKeyValue `json:"attributes,omitempty"`
}

type otlpScopeSpans struct {
	Scope otlpScope  `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpNumberPoint struct {
	StartTimeUnixNano string   `json:"startTimeUnixNano,omitempty"`
	TimeUnixNano      string   `json:"timeUnixNano"`
	AsInt             *string  `json:"asInt,omitempty"`
	AsDouble          *float64 `json:"asDouble,omitempty"`
}

type otlpSum struct {
	DataPoints             []otlpNumberPoint `json:"dataPoints"`
	AggregationTemporality int               `json:"aggregationTemporality"`
	IsMonotonic            bool              `json:"isMonotonic"`
}

type otlpGauge struct {
	DataPoints []otlpNumberPoint `json:"dataPoints"`
}

type otlpHistogramPoint struct {
	StartTimeUnixNano string    `json:"startTimeUnixNano,omitempty"`
	TimeUnixNano      string    `json:"timeUnixNano"`
	Count             string    `json:"count"`
	Sum               float64   `json:"sum"`
	Min               *float64  `json:"min,omitempty"`
	Max               *float64  `json:"max,omitempty"`
	BucketCounts      []string  `json:"bucketCounts"`
	ExplicitBounds    []float64 `json:"explicitBounds"`
}

type otlpHistogram struct {
	DataPoints             []otlpHistogramPoint `json:"dataPoints"`
	AggregationTemporality int                  `json:"aggregationTemporality"`
}

type otlpMetric struct {
	Name      string         `json:"name"`
	Unit      string         `json:"unit,omitempty"`
	Sum       *otlpSum       `json:"sum,omitempty"`
	Gauge     *otlpGauge     `json:"gauge,omitempty"`
	Histogram *otlpHistogram `json:"histogram,omitempty"`
}

type otlpScopeMetrics struct {
	Scope   otlpScope    `json:"scope"`
	Metrics []otlpMetric `json:"metrics"`
}

type otlpResourceMetrics struct {
	Resource     otlpResource       `json:"resource"`
	ScopeMetrics []otlpScopeMetrics `json:"scopeMetrics"`
}

// otlpExport is the union envelope the file exporter writes: one JSON
// object carrying the traces payload, the metrics payload, or both.
type otlpExport struct {
	ResourceSpans   []otlpResourceSpans   `json:"resourceSpans,omitempty"`
	ResourceMetrics []otlpResourceMetrics `json:"resourceMetrics,omitempty"`
}

const (
	otlpScopeName = "boedag/internal/obs"
	// spanKindInternal is proto SpanKind SPAN_KIND_INTERNAL.
	spanKindInternal = 1
	// aggregationCumulative is AGGREGATION_TEMPORALITY_CUMULATIVE.
	aggregationCumulative = 2
)

// hexID hashes the parts into a non-zero identifier of 2n hex digits
// (n=8 for span ids, n=16 for trace ids). Deterministic, so identical
// runs export identical ids and goldens stay byte-stable.
func hexID(n int, parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	v := h.Sum64()
	if v == 0 {
		v = 1 // all-zero ids are invalid in OTLP
	}
	id := fmt.Sprintf("%016x", v)
	for len(id) < 2*n {
		h.Write([]byte(id))
		id += fmt.Sprintf("%016x", h.Sum64())
	}
	return id[:2*n]
}

func unixNano(anchor time.Time, seconds float64) string {
	t := anchor.Add(time.Duration(seconds * float64(time.Second)))
	return strconv.FormatInt(t.UnixNano(), 10)
}

// spanEvent reports whether the exporter maps ev to a span.
func spanEvent(ev Event) bool {
	switch ev.Type {
	case EvTaskFinish, EvSubStageFinish, EvStageFinish, EvStateClose,
		EvRequest, EvRequestPhase:
		return true
	}
	return false
}

// SpanCount returns how many spans an OTLP export of events produces:
// one per span-shaped event (task, sub-stage, stage, workflow state,
// request and request phase).
func SpanCount(events []Event) int {
	n := 0
	for _, ev := range events {
		if spanEvent(ev) {
			n++
		}
	}
	return n
}

// buildSpans maps the span-shaped events onto OTLP spans, one trace for
// the whole run.
func buildSpans(events []Event, opt OTLPOptions) []otlpSpan {
	traceID := hexID(16, "trace", opt.Service)
	stageSpan := func(job, stage string) string { return hexID(8, "stage", job, stage) }
	taskSpan := func(job, stage string, task int) string {
		return hexID(8, "task", job, stage, strconv.Itoa(task))
	}
	spans := make([]otlpSpan, 0, SpanCount(events))
	for _, ev := range events {
		if !spanEvent(ev) {
			continue
		}
		sp := otlpSpan{
			TraceID:           traceID,
			Kind:              spanKindInternal,
			StartTimeUnixNano: unixNano(opt.Start, ev.Time),
			EndTimeUnixNano:   unixNano(opt.Start, ev.Time+ev.Dur),
		}
		switch ev.Type {
		case EvTaskFinish:
			sp.SpanID = taskSpan(ev.Job, ev.Stage, ev.Task)
			sp.ParentSpanID = stageSpan(ev.Job, ev.Stage)
			sp.Name = fmt.Sprintf("%s/%s[%d]", ev.Job, ev.Stage, ev.Task)
			sp.Attributes = []otlpKeyValue{
				strAttr("boedag.job", ev.Job),
				strAttr("boedag.stage", ev.Stage),
				intAttr("boedag.task", int64(ev.Task)),
				strAttr("boedag.bottleneck", ev.Resource),
				intAttr("boedag.node", int64(ev.Value)),
			}
		case EvSubStageFinish:
			sp.SpanID = hexID(8, "sub", ev.Job, ev.Stage, strconv.Itoa(ev.Task),
				ev.Sub, strconv.FormatFloat(ev.Time, 'g', -1, 64))
			sp.ParentSpanID = taskSpan(ev.Job, ev.Stage, ev.Task)
			sp.Name = ev.Sub
			sp.Attributes = []otlpKeyValue{
				strAttr("boedag.job", ev.Job),
				strAttr("boedag.stage", ev.Stage),
				intAttr("boedag.task", int64(ev.Task)),
				strAttr("boedag.bottleneck", ev.Resource),
			}
			// The D_X byte counts ride along (index order, zeros omitted)
			// so OTLP consumers see the same self-describing sub-stages as
			// the Chrome trace.
			for i, b := range ev.Demand {
				if b > 0 {
					sp.Attributes = append(sp.Attributes,
						floatAttr("boedag.bytes."+DemandResourceNames[i], b))
				}
			}
		case EvStageFinish:
			sp.SpanID = stageSpan(ev.Job, ev.Stage)
			sp.Name = ev.Job + "/" + ev.Stage
			sp.Attributes = []otlpKeyValue{
				strAttr("boedag.job", ev.Job),
				strAttr("boedag.stage", ev.Stage),
				strAttr("boedag.bottleneck", ev.Resource),
			}
			sp.Attributes = append(sp.Attributes,
				annAttrs(opt.Annotations.stageArgs(ev.Job, ev.Stage))...)
		case EvStateClose:
			sp.SpanID = hexID(8, "state", strconv.Itoa(ev.Seq),
				strconv.FormatFloat(ev.Time, 'g', -1, 64))
			sp.Name = fmt.Sprintf("state %d", ev.Seq)
			sp.Attributes = []otlpKeyValue{
				intAttr("boedag.state", int64(ev.Seq)),
				strAttr("boedag.running", ev.Detail),
				strAttr("boedag.dominant", ev.Resource),
				floatAttr("boedag.utilization", ev.Value),
			}
			sp.Attributes = append(sp.Attributes,
				annAttrs(opt.Annotations.stateArgs(ev.Seq))...)
		case EvRequest:
			sp.SpanID = hexID(8, "req", strconv.Itoa(ev.Seq))
			sp.Name = ev.Detail
			sp.Attributes = []otlpKeyValue{
				intAttr("boedag.request", int64(ev.Seq)),
				intAttr("http.response.status_code", int64(ev.Value)),
			}
		case EvRequestPhase:
			sp.SpanID = hexID(8, "reqphase", strconv.Itoa(ev.Seq), ev.Detail,
				strconv.FormatFloat(ev.Time, 'g', -1, 64))
			sp.ParentSpanID = hexID(8, "req", strconv.Itoa(ev.Seq))
			sp.Name = ev.Detail
			sp.Attributes = []otlpKeyValue{
				intAttr("boedag.request", int64(ev.Seq)),
				strAttr("boedag.phase", ev.Detail),
			}
		}
		spans = append(spans, sp)
	}
	return spans
}

func resourceOf(opt OTLPOptions) otlpResource {
	attrs := []otlpKeyValue{strAttr("service.name", opt.Service)}
	attrs = append(attrs, annAttrs(opt.Annotations.runArgs())...)
	return otlpResource{Attributes: attrs}
}

func tracesPayload(events []Event, opt OTLPOptions) []otlpResourceSpans {
	return []otlpResourceSpans{{
		Resource: resourceOf(opt),
		ScopeSpans: []otlpScopeSpans{{
			Scope: otlpScope{Name: otlpScopeName},
			Spans: buildSpans(events, opt),
		}},
	}}
}

// metricUnit guesses the OTLP unit from the repo's naming convention
// (every duration histogram ends in _s).
func metricUnit(name string) string {
	if strings.HasSuffix(name, "_s") {
		return "s"
	}
	return ""
}

func metricsPayload(reg *Registry, opt OTLPOptions) []otlpResourceMetrics {
	cn, gn, hn := reg.snapshot()
	start := strconv.FormatInt(opt.Start.UnixNano(), 10)
	now := start
	metrics := make([]otlpMetric, 0, len(cn)+len(gn)+len(hn))
	for _, n := range cn {
		v := strconv.FormatInt(reg.Counter(n).Value(), 10)
		metrics = append(metrics, otlpMetric{
			Name: n,
			Sum: &otlpSum{
				DataPoints:             []otlpNumberPoint{{StartTimeUnixNano: start, TimeUnixNano: now, AsInt: &v}},
				AggregationTemporality: aggregationCumulative,
				IsMonotonic:            true,
			},
		})
	}
	for _, n := range gn {
		v := reg.Gauge(n).Value()
		metrics = append(metrics, otlpMetric{
			Name:  n,
			Gauge: &otlpGauge{DataPoints: []otlpNumberPoint{{TimeUnixNano: now, AsDouble: &v}}},
		})
	}
	for _, n := range hn {
		h := reg.Histogram(n)
		counts, bounds := h.Buckets()
		bucketCounts := make([]string, len(counts))
		for i, c := range counts {
			bucketCounts[i] = strconv.FormatInt(c, 10)
		}
		minV, maxV := h.Min(), h.Max()
		metrics = append(metrics, otlpMetric{
			Name: n,
			Unit: metricUnit(n),
			Histogram: &otlpHistogram{
				DataPoints: []otlpHistogramPoint{{
					StartTimeUnixNano: start,
					TimeUnixNano:      now,
					Count:             strconv.FormatInt(h.Count(), 10),
					Sum:               h.Sum(),
					Min:               &minV,
					Max:               &maxV,
					BucketCounts:      bucketCounts,
					ExplicitBounds:    bounds,
				}},
				AggregationTemporality: aggregationCumulative,
			},
		})
	}
	return []otlpResourceMetrics{{
		Resource: resourceOf(opt),
		ScopeMetrics: []otlpScopeMetrics{{
			Scope:   otlpScope{Name: otlpScopeName},
			Metrics: metrics,
		}},
	}}
}

func writeIndented(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// WriteOTLP exports events and registry together as one JSON object
// holding both resourceSpans and resourceMetrics — the -otlp-out file
// format of the command-line tools. Either half may be nil/empty.
func WriteOTLP(w io.Writer, events []Event, reg *Registry, opt OTLPOptions) error {
	opt = opt.withDefaults(events)
	out := otlpExport{}
	if len(events) > 0 {
		out.ResourceSpans = tracesPayload(events, opt)
	}
	if reg != nil {
		out.ResourceMetrics = metricsPayload(reg, opt)
	}
	if err := writeIndented(w, out); err != nil {
		return fmt.Errorf("obs: write otlp: %w", err)
	}
	return nil
}

// PostOTLP ships events and registry to a standard OTLP/HTTP collector:
// the traces payload POSTs to endpoint/v1/traces and the metrics payload
// to endpoint/v1/metrics, both as application/json. endpoint is the
// collector's base URL (e.g. http://localhost:4318). A nil registry or
// empty event slice skips that half.
func PostOTLP(endpoint string, events []Event, reg *Registry, opt OTLPOptions) error {
	opt = opt.withDefaults(events)
	base := strings.TrimRight(endpoint, "/")
	if len(events) > 0 {
		body := otlpExport{ResourceSpans: tracesPayload(events, opt)}
		if err := postJSON(base+"/v1/traces", body); err != nil {
			return fmt.Errorf("obs: post otlp traces: %w", err)
		}
	}
	if reg != nil {
		body := otlpExport{ResourceMetrics: metricsPayload(reg, opt)}
		if err := postJSON(base+"/v1/metrics", body); err != nil {
			return fmt.Errorf("obs: post otlp metrics: %w", err)
		}
	}
	return nil
}

func postJSON(url string, v any) error {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s: collector returned %s: %s", url, resp.Status, bytes.TrimSpace(snippet))
	}
	return nil
}
