package boedag

import (
	"io"

	"boedag/internal/obs"
)

// Observability. The simulator and the state-based estimator can stream
// structured events to a Tracer and update a MetricsRegistry as they run;
// both are off by default and cost nothing when unset. Collected events
// export to Chrome's trace_event JSON (load in chrome://tracing or
// https://ui.perfetto.dev) or to a plain-text summary.
type (
	// Tracer receives structured events from a run. Implementations must
	// be safe for concurrent use; Enabled reports whether Emit does
	// anything, letting instrumented code skip building events entirely.
	Tracer = obs.Tracer
	// TraceEvent is one structured observation (task finish, state
	// transition, allocation decision, estimator iteration, ...).
	TraceEvent = obs.Event
	// TraceEventType discriminates TraceEvent kinds.
	TraceEventType = obs.EventType
	// TraceRecorder is a Tracer that buffers events in memory.
	TraceRecorder = obs.Recorder
	// MetricsRegistry holds named counters, gauges, and histograms.
	MetricsRegistry = obs.Registry
	// ObserveOptions bundles a Tracer and a MetricsRegistry.
	ObserveOptions = obs.Options
	// TraceStream is a fan-out Tracer: events are forwarded to every
	// subscriber's bounded channel without ever blocking the producer.
	TraceStream = obs.Stream
	// TraceSubscriber is one bounded consumer of a TraceStream.
	TraceSubscriber = obs.Subscriber
	// TraceDropPolicy decides what a full subscriber buffer drops.
	TraceDropPolicy = obs.DropPolicy
	// OTLPOptions configure the OpenTelemetry OTLP/JSON exporters.
	OTLPOptions = obs.OTLPOptions
	// TraceAnnotations carries derived per-stage / per-state / run-level
	// args (e.g. an Explanation's critical-path markers) that the trace
	// exporters merge into their output; on a key collision the recorded
	// arg always wins.
	TraceAnnotations = obs.TraceAnnotations
)

// Subscriber drop policies.
const (
	// TraceDropNewest keeps the oldest buffered window under overload.
	TraceDropNewest = obs.DropNewest
	// TraceDropOldest keeps the freshest buffered window under overload.
	TraceDropOldest = obs.DropOldest
)

// NewTraceRecorder returns an empty in-memory event recorder.
func NewTraceRecorder() *TraceRecorder { return obs.NewRecorder() }

// NewTraceStream returns a subscription bus with no subscribers. A
// stream with no subscribers reports Enabled() == false, so attaching
// one to a simulator costs nothing until somebody subscribes — but
// subscribers must attach before the run starts (producers snapshot
// Enabled at startup). Close the stream when the run ends so consumers
// ranging over a subscriber's Events() terminate.
func NewTraceStream() *TraceStream { return obs.NewStream() }

// TeeTracers fans events out to several tracers (e.g. a recorder plus a
// live stream). Nil and no-op entries are skipped.
func TeeTracers(tracers ...Tracer) Tracer { return obs.Tee(tracers...) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// WithTracer returns opt with tr attached, so the simulator emits
// structured events as it runs:
//
//	rec := boedag.NewTraceRecorder()
//	res, _ := boedag.NewSimulator(spec, boedag.WithTracer(opt, rec)).Run(flow)
//	boedag.ExportChromeTrace(f, rec.Events())
func WithTracer(opt SimOptions, tr Tracer) SimOptions {
	opt.Observe.Tracer = tr
	return opt
}

// WithMetrics returns opt with reg attached, so the simulator updates
// run-level counters, gauges, and histograms as it runs.
func WithMetrics(opt SimOptions, reg *MetricsRegistry) SimOptions {
	opt.Observe.Metrics = reg
	return opt
}

// Trace exporters.
var (
	// ExportChromeTrace writes events as Chrome trace_event JSON.
	ExportChromeTrace = obs.WriteChromeTrace
	// ExportChromeTraceAnnotated writes events as Chrome trace_event JSON
	// with TraceAnnotations merged into the stage, state, and run args.
	ExportChromeTraceAnnotated = obs.WriteChromeTraceAnnotated
	// WriteTraceSummary writes a plain-text digest of events.
	WriteTraceSummary = obs.WriteSummary
)

// WriteMetricsJSON dumps a registry snapshot as JSON.
func WriteMetricsJSON(w io.Writer, reg *MetricsRegistry) error { return reg.WriteJSON(w) }

// WriteMetricsPrometheus dumps a registry snapshot in the Prometheus
// text exposition format (version 0.0.4), histograms as cumulative
// `_bucket`/`_sum`/`_count` series.
func WriteMetricsPrometheus(w io.Writer, reg *MetricsRegistry) error {
	return reg.WritePrometheus(w)
}

// OTLP export — hand-rolled OTLP/JSON (OpenTelemetry protocol over
// HTTP/JSON), no external dependencies. Span-shaped events become spans
// with stage→task→sub-stage parent links; the metrics registry maps to
// OTLP sums, gauges, and histograms.
var (
	// ExportOTLP writes one JSON document holding both resourceSpans and
	// resourceMetrics (either may be omitted when empty/nil).
	ExportOTLP = obs.WriteOTLP
	// PostOTLP POSTs traces and metrics to an OTLP/HTTP collector's
	// /v1/traces and /v1/metrics endpoints.
	PostOTLP = obs.PostOTLP
)
