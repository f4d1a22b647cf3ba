// Package serve is the concurrent prediction service: a long-running
// HTTP/JSON daemon that answers "how long will this DAG take on this
// cluster?" with the state-based BOE estimator — the paper's cheap
// analytic model exposed as an online primitive for schedulers and
// what-if tuning, in the spirit of Starfish's what-if engine.
//
// Endpoints:
//
//	POST /v1/estimate   one scenario → makespan, per-state breakdown,
//	                    per-job stage times
//	POST /v1/explain    one scenario → explained estimate: critical
//	                    path, bottleneck attribution, θ-sensitivity
//	POST /v1/batch      many scenarios fanned out through the evalpool
//	                    worker pool, results in input order
//	POST /v1/schedule   an arrival stream of jobs → per-job fates and
//	                    aggregate policy metrics under FIFO/DRF/Fair/
//	                    SPJF or hierarchical queues with preemptive
//	                    reclaim and deadline-aware admission
//	GET  /v1/workflows  the workflow registry names
//	GET  /v1/cluster    the serving cluster specification
//	GET  /healthz       liveness (200 while the process runs)
//	GET  /readyz        readiness (503 once draining)
//	GET  /metrics       the obs metrics registry (JSON; ?format=text
//	                    serves Prometheus exposition)
//
// Identical requests coalesce: responses are cached by the canonical
// evalpool signature of (cluster, options, workflow) — for schedules, of
// (cluster, body) — and concurrent requests for the same key share one
// single-flight run (pipeline.go). The server protects itself with a
// bounded admission queue (503 + Retry-After on overload), per-request
// timeouts, a body-size limit, and panic-to-500 recovery; SIGTERM
// handling in cmd/boedagd drains gracefully through Shutdown.
package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"boedag/internal/cluster"
	"boedag/internal/evalpool"
	"boedag/internal/obs"
)

// Config tunes a Server. The zero value serves the paper cluster with
// sensible production defaults.
type Config struct {
	// Spec is the serving cluster (default: the paper's eleven nodes).
	// Per-request "cluster" bodies override it scenario by scenario.
	Spec cluster.Spec
	// Workers bounds the evalpool fan-out of one /v1/batch request
	// (default GOMAXPROCS). Results are input-ordered at any value.
	Workers int
	// MaxConcurrent bounds how many /v1/* requests execute at once
	// (default 64).
	MaxConcurrent int
	// QueueDepth bounds how many admitted requests may wait for an
	// execution slot before the server answers 503 (default 128).
	QueueDepth int
	// MaxBatch bounds the scenarios of one batch request (default 256).
	MaxBatch int
	// RequestTimeout is the per-request deadline ceiling (default 30s);
	// a scenario's timeout_ms can only tighten it.
	RequestTimeout time.Duration
	// DrainTimeout bounds the graceful drain on shutdown (default 10s).
	DrainTimeout time.Duration
	// MaxBodyBytes bounds a request body (default 1 MiB).
	MaxBodyBytes int64
	// RetryAfter is the Retry-After hint on 503 responses (default 1s).
	RetryAfter time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// server's own handler (boedagd -debug-pprof) for live CPU, heap and
	// goroutine profiles of the serving process. Off by default: the
	// profile endpoints bypass admission control.
	EnablePprof bool
	// CacheDir enables the disk-backed warm cache: on startup the server
	// restores the response cache from <CacheDir>/estimate_cache.snap (a
	// missing snapshot is a clean cold start, a corrupt one is counted in
	// cache_restore_failed and ignored), and Serve writes a fresh snapshot
	// after the graceful drain — so a restarted daemon answers repeat
	// scenarios as cache hits instead of re-running the estimator.
	CacheDir string
	// CacheMaxEntries bounds the response cache; beyond it the least
	// recently used entries are evicted (estimate_cache_evictions counts
	// them). 0 means the 65536 default; negative means unbounded.
	CacheMaxEntries int
	// Observe wires the observability layer: Tracer receives one
	// EvRequest event per served request (point a TraceStream here for
	// structured request logging); Metrics receives the server's
	// counters, gauges, and histograms and backs GET /metrics. A nil
	// registry is allocated internally so /metrics always works.
	Observe obs.Options
}

// defaultCacheMaxEntries is the response cache's default bound; it also
// bounds the route memo of a server whose response cache is unbounded.
const defaultCacheMaxEntries = 65536

func (c Config) withDefaults() Config {
	if c.Spec.Nodes == 0 {
		c.Spec = cluster.PaperCluster()
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxConcurrent < 1 {
		c.MaxConcurrent = 64
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 128
	}
	if c.MaxBatch < 1 {
		c.MaxBatch = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.CacheMaxEntries == 0 {
		c.CacheMaxEntries = defaultCacheMaxEntries
	}
	if c.Observe.Metrics == nil {
		c.Observe.Metrics = obs.NewRegistry()
	}
	return c
}

// Server is the prediction daemon. Create one with New; it serves via
// Handler (for tests and embedding) or Serve/ListenAndServe (which add
// graceful drain).
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	reg   *obs.Registry
	cache *evalpool.Cache[[]byte]
	// plans memoizes estimator plans across /v1/explain requests: the
	// base plan and every θ-perturbed re-run coalesce through it, so
	// repeated explanations re-run nothing. It shares the response
	// cache's size bound.
	plans *evalpool.PlanCache
	// routes remembers each keyed body's shard key and timeout
	// (routememo.go). It shares the response cache's size bound.
	routes *routeMemo
	start  time.Time
	// endpoints holds the sharded POST endpoints of the request pipeline
	// (pipeline.go), by path; read-only after New.
	endpoints map[string]*endpoint

	// Admission: slots bounds concurrent execution, queue bounds waiters.
	slots chan struct{}
	queue chan struct{}

	// Drain state: once draining, /v1/* requests are refused with 503
	// while requests already past admission run to completion.
	mu       sync.Mutex
	inflight int
	draining bool
	drained  chan struct{}

	// Instruments, resolved once. routeDur holds one latency histogram
	// per endpoint (request_duration_s{route=…}); it is written only
	// during New's route registration and read-only thereafter.
	requests, errors, rejected, queued, panics, coalesced, streamed *obs.Counter
	restored, restoreFailed, memoHits, memoMisses                   *obs.Counter
	reqDur, queueWait                                               *obs.Histogram
	phaseDecode, phaseEncode, coalescedWait                         *obs.Histogram
	inflightG, queueG                                               *obs.Gauge
	routeDur                                                        map[string]*obs.Histogram

	// reqSeq numbers served requests; the ordinal ties a request's
	// EvRequest span to its EvRequestPhase children in exported traces.
	reqSeq atomic.Int64

	// testHookEstimate, when set, runs inside every estimator execution —
	// the test seam that makes computations observably slow or faulty
	// without touching the wire contract.
	testHookEstimate func()
}

// New returns a ready-to-serve Server.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	reg := cfg.Observe.Metrics
	capacity := cfg.CacheMaxEntries
	memoLimit := capacity
	if capacity < 0 { // negative means unbounded, which WithCapacity spells 0
		capacity = 0
		memoLimit = defaultCacheMaxEntries
	}
	s := &Server{
		cfg:    cfg,
		reg:    reg,
		cache:  evalpool.NewCache[[]byte]().WithCapacity(capacity).WithMetrics(reg, "estimate_cache"),
		plans:  evalpool.NewPlanCache().WithCapacity(capacity).WithMetrics(reg),
		routes: newRouteMemo(memoLimit),
		start:  time.Now(),
		slots:  make(chan struct{}, cfg.MaxConcurrent),
		queue:  make(chan struct{}, cfg.QueueDepth),

		requests:      reg.Counter("http_requests"),
		errors:        reg.Counter("http_errors"),
		rejected:      reg.Counter("http_rejected"),
		queued:        reg.Counter("http_queued"),
		panics:        reg.Counter("http_panics"),
		coalesced:     reg.Counter("estimates_coalesced"),
		streamed:      reg.Counter("estimates_streamed"),
		restored:      reg.Counter("cache_restored_entries"),
		restoreFailed: reg.Counter("cache_restore_failed"),
		memoHits:      reg.Counter("route_key_memo_hits"),
		memoMisses:    reg.Counter("route_key_memo_misses"),
		reqDur:        reg.Histogram("request_duration_s"),
		queueWait:     reg.Histogram("queue_wait_s"),
		phaseDecode:   reg.Histogram("phase_decode_s"),
		phaseEncode:   reg.Histogram("phase_encode_s"),
		coalescedWait: reg.Histogram("coalesced_wait_s"),
		inflightG:     reg.Gauge("requests_inflight"),
		queueG:        reg.Gauge("requests_queued"),
		routeDur:      make(map[string]*obs.Histogram),
		endpoints: map[string]*endpoint{
			pathEstimate: {phase: "estimate", hist: reg.Histogram("phase_estimate_s"), computed: reg.Counter("estimates_computed")},
			pathExplain:  {ns: "explain|", phase: "explain", hist: reg.Histogram("phase_explain_s"), computed: reg.Counter("explains_computed")},
			pathSchedule: {ns: "schedule|", phase: "schedule", hist: reg.Histogram("phase_schedule_s"), computed: reg.Counter("schedules_computed")},
		},
	}
	obs.SetMetricHelp("http_requests", "HTTP requests served, all routes.")
	obs.SetMetricHelp("request_duration_s", "End-to-end request latency in seconds.")
	obs.SetMetricHelp("estimates_computed", "Estimator runs executed (cache misses).")
	obs.SetMetricHelp("estimates_coalesced", "Requests that shared another request's run or its cached bytes.")
	obs.SetMetricHelp("explains_computed", "Explanation runs executed (cache misses).")
	obs.SetMetricHelp("schedules_computed", "Arrival-stream schedule replays executed.")
	obs.SetMetricHelp("estimates_streamed", "Estimates served over SSE (stream=1).")
	obs.SetMetricHelp("estimate_cache_evictions", "Response-cache entries evicted by the LRU size bound.")
	obs.SetMetricHelp("cache_restored_entries", "Response-cache entries restored from the disk snapshot at boot.")
	obs.SetMetricHelp("cache_restore_failed", "Snapshot restore attempts rejected (corrupt, unreadable, or stamped by another model).")
	obs.SetMetricHelp("route_key_memo_hits", "Sharded bodies keyed from the route memo without decoding.")
	obs.SetMetricHelp("route_key_memo_misses", "Sharded bodies the route memo had not seen, decoded in full.")
	if err := s.restoreCache(); err != nil {
		return nil, err
	}
	s.mux = http.NewServeMux()
	for path := range s.endpoints {
		s.route("POST", path, true, s.handle)
	}
	s.route("POST", "/v1/batch", true, s.handleBatch)
	s.route("GET", "/v1/workflows", false, s.handleWorkflows)
	s.route("GET", "/v1/cluster", false, s.handleCluster)
	s.route("GET", "/version", false, s.handleVersion)
	s.route("GET", "/healthz", false, s.handleHealthz)
	s.route("GET", "/readyz", false, s.handleReadyz)
	s.route("GET", "/metrics", false, s.handleMetrics)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Handler returns the server's HTTP handler, middleware included.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's registry (the /metrics backing store).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// CacheStats reports how many estimate lookups hit respectively missed
// the coalescing cache.
func (s *Server) CacheStats() (hits, misses int64) { return s.cache.Stats() }

// route registers one endpoint under the middleware chain: method
// dispatch (JSON 405 with Allow set), panic recovery, request logging
// and metrics, then — for the heavy /v1 endpoints — admission control,
// body limiting, and the per-request timeout.
func (s *Server) route(method, path string, admitted bool, h http.HandlerFunc) {
	s.routeDur[path] = s.reg.Histogram("request_duration_s{route=" + path + "}")
	wrapped := h
	if admitted {
		wrapped = s.withTimeout(s.withAdmission(wrapped))
	}
	wrapped = s.withObserved(path, s.withRecovery(wrapped))
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			writeError(w, &APIError{Status: http.StatusMethodNotAllowed,
				Code: CodeMethodNotAllowed, Message: method + " only"})
			return
		}
		if admitted {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		wrapped(w, r)
	})
}

// statusWriter records the response status for logging and recovery.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the wrapped writer so SSE streaming works through
// the middleware chain (embedding the interface would hide the method).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// reqIDKey carries the server-assigned request ordinal through a
// request's context so phase spans can name their parent (0 outside a
// served request: tests driving handlers directly).
type reqIDKey struct{}

// phase records one request phase — decode, coalesce-wait, estimate,
// encode — as a histogram observation and, when a tracer listens, an
// EvRequestPhase span nested under the request's EvRequest span via the
// shared request ordinal.
func (s *Server) phase(ctx context.Context, name string, t0 time.Time, h *obs.Histogram) {
	d := time.Since(t0)
	h.Observe(d.Seconds())
	if s.cfg.Observe.TracerOn() {
		id, _ := ctx.Value(reqIDKey{}).(int)
		s.cfg.Observe.Tracer.Emit(obs.Event{
			Type:   obs.EvRequestPhase,
			Time:   t0.Sub(s.start).Seconds(),
			Dur:    d.Seconds(),
			Detail: name,
			Seq:    id,
			Task:   -1,
		})
	}
}

// withObserved counts, times, and (when a tracer listens) logs every
// request as one EvRequest event. It also assigns the request its
// ordinal and resolves the per-endpoint latency histogram
// (request_duration_s{route=…}) alongside the aggregate one.
func (s *Server) withObserved(path string, next http.HandlerFunc) http.HandlerFunc {
	routeDur := s.routeDur[path]
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		id := int(s.reqSeq.Add(1))
		r = r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id))
		t0 := time.Now()
		next(sw, r)
		dur := time.Since(t0)
		s.requests.Inc()
		if sw.status >= 400 {
			s.errors.Inc()
		}
		s.reqDur.Observe(dur.Seconds())
		routeDur.Observe(dur.Seconds())
		if s.cfg.Observe.TracerOn() {
			s.cfg.Observe.Tracer.Emit(obs.Event{
				Type:   obs.EvRequest,
				Time:   t0.Sub(s.start).Seconds(),
				Dur:    dur.Seconds(),
				Detail: r.Method + " " + r.URL.Path,
				Seq:    id,
				Task:   -1,
				Value:  float64(sw.status),
			})
		}
	}
}

// withRecovery converts a handler panic into a JSON 500 instead of
// killing the connection (and, under http.Server, only the connection —
// the daemon itself must outlive any one bad request).
func (s *Server) withRecovery(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.panics.Inc()
				if sw, ok := w.(*statusWriter); !ok || sw.status == 0 {
					writeError(w, &APIError{Status: http.StatusInternalServerError,
						Code: CodeInternal, Message: fmt.Sprintf("panic: %v", p)})
				}
			}
		}()
		next(w, r)
	}
}

// withAdmission implements the bounded admission queue. A request either
// takes an execution slot immediately, waits in the bounded queue for
// one, or — queue full — is refused with 503 and a Retry-After hint.
// Draining servers refuse before queuing so in-flight work can finish.
func (s *Server) withAdmission(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.enter() {
			w.Header().Set("Retry-After", s.retryAfterSeconds())
			writeError(w, &APIError{Status: http.StatusServiceUnavailable,
				Code: CodeDraining, Message: "server is draining"})
			return
		}
		defer s.leave()
		select {
		case s.slots <- struct{}{}:
		default:
			select {
			case s.queue <- struct{}{}:
			default:
				s.rejected.Inc()
				w.Header().Set("Retry-After", s.retryAfterSeconds())
				writeError(w, &APIError{Status: http.StatusServiceUnavailable,
					Code: CodeOverloaded, Message: "admission queue full"})
				return
			}
			s.queued.Inc()
			s.queueG.Set(float64(len(s.queue)))
			t0 := time.Now()
			select {
			case s.slots <- struct{}{}:
				<-s.queue
				s.queueWait.Observe(time.Since(t0).Seconds())
			case <-r.Context().Done():
				<-s.queue
				writeError(w, timeoutError(r.Context()))
				return
			}
			s.queueG.Set(float64(len(s.queue)))
		}
		defer func() { <-s.slots }()
		s.inflightG.Set(float64(len(s.slots)))
		next(w, r)
	}
}

// withTimeout applies the server-wide request deadline ceiling.
func (s *Server) withTimeout(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		next(w, r.WithContext(ctx))
	}
}

func (s *Server) retryAfterSeconds() string {
	secs := int(s.cfg.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// enter registers one admitted request; false once draining.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight++
	return true
}

// leave retires one admitted request, completing the drain when it was
// the last.
func (s *Server) leave() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight--
	if s.draining && s.inflight == 0 && s.drained != nil {
		close(s.drained)
		s.drained = nil
	}
}

// Shutdown starts the graceful drain: new /v1 requests are refused with
// 503 immediately, requests already admitted run to completion, and
// Shutdown returns once the last finishes — or with an error when ctx
// expires first. Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
	}
	done := s.drained
	if done == nil {
		if s.inflight == 0 {
			s.mu.Unlock()
			return nil
		}
		done = make(chan struct{})
		s.drained = done
	}
	s.mu.Unlock()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		n := s.inflight
		s.mu.Unlock()
		return fmt.Errorf("serve: drain deadline exceeded with %d requests in flight", n)
	}
}

// Serve accepts connections on ln until ctx is cancelled, then drains:
// readiness flips, new /v1 requests get 503 while in-flight ones finish
// (bounded by DrainTimeout), finally the listener closes and — when a
// CacheDir is configured — the response cache snapshots to disk. The
// returned error is the drain outcome (nil on a clean drain).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	return s.ServeWith(ctx, ln, s.mux)
}

// ServeWith is Serve with a caller-supplied handler in front of the
// server — the fleet tier wraps the local mux with shard routing while
// keeping this server's graceful drain and snapshot-on-shutdown.
func (s *Server) ServeWith(ctx context.Context, ln net.Listener, handler http.Handler) error {
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	drainErr := s.Shutdown(dctx)
	// The drain already ran (or timed out): close the listener and any
	// remaining connections promptly.
	hctx, hcancel := context.WithTimeout(context.Background(), time.Second)
	defer hcancel()
	if err := srv.Shutdown(hctx); err != nil {
		srv.Close()
	}
	<-errCh // http.ErrServerClosed
	if err := s.SaveCacheSnapshot(); err != nil && drainErr == nil {
		drainErr = err
	}
	return drainErr
}

// ListenAndServe binds addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return s.Serve(ctx, ln)
}

// writeBody writes v as a 200 JSON response body, or a 500 when it does
// not marshal.
func writeBody(w http.ResponseWriter, v any) {
	body, err := marshalBody(v)
	if err != nil {
		writeError(w, &APIError{Status: http.StatusInternalServerError,
			Code: CodeInternal, Message: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// writeJSON writes a response body produced by marshalBody.
func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// writeError writes the typed error envelope.
func writeError(w http.ResponseWriter, e *APIError) {
	body, err := marshalBody(errorEnvelope{Error: e})
	if err != nil { // cannot happen: APIError marshals cleanly
		http.Error(w, e.Message, e.Status)
		return
	}
	writeJSON(w, e.Status, body)
}

// timeoutError maps a done context to the wire error.
func timeoutError(ctx context.Context) *APIError {
	msg := "request deadline exceeded"
	if ctx.Err() == context.Canceled {
		msg = "request cancelled"
	}
	return &APIError{Status: http.StatusGatewayTimeout, Code: CodeTimeout, Message: msg}
}
