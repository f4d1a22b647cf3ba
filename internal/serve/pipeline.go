package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"time"

	"boedag/internal/evalpool"
	"boedag/internal/explain"
	"boedag/internal/obs"
	"boedag/internal/statemodel"
)

// This file is the request pipeline behind the sharded POST endpoints —
// /v1/estimate, /v1/explain and /v1/schedule: decode → key → cache →
// write. prepare decodes and validates a body into a call that carries
// its cache key; one handler answers every call through the response
// cache, /v1/batch answers one estimate call per scenario, the SSE
// variant streams an estimate call, and a fleet routes on the call's key.

const (
	pathEstimate = "/v1/estimate"
	pathExplain  = "/v1/explain"
	pathSchedule = "/v1/schedule"
)

// endpoint is what the pipeline knows about one sharded endpoint.
type endpoint struct {
	ns       string         // response-cache namespace of its keys
	phase    string         // name of its compute phase
	hist     *obs.Histogram // that phase's histogram
	computed *obs.Counter   // runs executed (cache misses)
}

// call is one decoded, validated and keyed request.
type call struct {
	ep *endpoint
	// key is the shard key; the response cache stores the call under
	// ep.ns+key.
	key       string
	timeoutMS int
	// compute produces the response value that marshalBody encodes.
	compute func(ctx context.Context) (any, error)
	// est is set on estimate calls only: the SSE variant points its
	// tracer at the request's event stream.
	est *statemodel.Estimator
}

// preparedKey carries a call that Prepare decoded into the local handler.
type preparedKey struct{}

// prepare decodes and validates a body for a sharded path.
func (s *Server) prepare(path string, r io.Reader) (*call, *APIError) {
	if path == pathSchedule {
		body, err := io.ReadAll(r) // the key hashes the body
		if err != nil {
			return nil, decodeError(err)
		}
		req, apiErr := DecodeScheduleRequest(bytes.NewReader(body))
		if apiErr != nil {
			return nil, apiErr
		}
		spec := s.cfg.Spec
		if req.spec != nil {
			spec = *req.spec
		}
		// A replay is a pure function of (request, spec); the body covers
		// the request.
		h := evalpool.NewHasher()
		h.Spec(spec)
		h.Str(string(body))
		return &call{ep: s.endpoints[path], key: h.Key(), timeoutMS: req.Options.TimeoutMS,
			compute: func(context.Context) (any, error) {
				return scheduleResponse(req.policy.String(), req.replay(spec)), nil
			}}, nil
	}
	req, apiErr := DecodeEstimateRequest(r)
	if apiErr != nil {
		return nil, apiErr
	}
	return s.scenarioCall(path, req)
}

// scenarioCall keys an estimate or explain scenario by its canonical
// evalpool plan signature (cluster spec + estimator options + timer +
// full workflow). An estimate and an explain of the same scenario share
// the shard key — the cache tells them apart by namespace — so a fleet
// sends both to the same owner.
func (s *Server) scenarioCall(path string, req *EstimateRequest) (*call, *APIError) {
	flow, est, apiErr := s.scenario(req)
	if apiErr != nil {
		return nil, apiErr
	}
	key, ok := evalpool.PlanKey(est, flow)
	if !ok { // scenario builds a BOE timer, which always hashes
		panic("serve: scenario estimator has no plan key")
	}
	c := &call{ep: s.endpoints[path], key: key, timeoutMS: req.Options.TimeoutMS}
	if path == pathExplain {
		// No plan cache: a repeat is a response-cache hit and distinct
		// explains share no plan, so the plans are dropped once built.
		c.compute = func(ctx context.Context) (any, error) {
			return explain.Explain(ctx, est, flow, explain.Options{Workers: s.cfg.Workers})
		}
		return c, nil
	}
	c.est = est
	c.compute = func(context.Context) (any, error) {
		plan, err := est.Estimate(flow)
		if err != nil {
			return nil, err
		}
		return buildEstimateResponse(plan), nil
	}
	return c, nil
}

// handle serves the sharded endpoints: decode — unless the fleet tier
// already prepared the call — then answer, or stream a ?stream=1
// estimate.
func (s *Server) handle(w http.ResponseWriter, r *http.Request) {
	c, _ := r.Context().Value(preparedKey{}).(*call)
	if c == nil {
		t0 := time.Now()
		var apiErr *APIError
		c, apiErr = s.prepare(r.URL.Path, r.Body)
		s.phase(r.Context(), "decode", t0, s.phaseDecode)
		if apiErr != nil {
			writeError(w, apiErr)
			return
		}
	}
	if streams(r) {
		s.stream(w, r, c)
		return
	}
	body, apiErr := s.answer(r.Context(), c)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// answer resolves a call to its response bytes, coalescing identical
// calls through the single-flight response cache: N concurrent identical
// requests compute once and share the same bytes.
func (s *Server) answer(ctx context.Context, c *call) ([]byte, *APIError) {
	ctx, cancel := scenarioContext(ctx, c.timeoutMS)
	defer cancel()
	ran := false
	compute := func() ([]byte, error) {
		ran = true
		v, err := s.run(ctx, c)
		if err != nil {
			return nil, err
		}
		tn := time.Now()
		body, err := marshalBody(v)
		s.phase(ctx, "encode", tn, s.phaseEncode)
		return body, err
	}
	t0 := time.Now()
	body, err := s.cache.DoContext(ctx, c.ep.ns+c.key, compute)
	// Reading ran is race-free only on the err == nil path: our own
	// compute either completed before DoContext returned (leader) or
	// never started (coalesced onto another request's run / cache hit).
	// On error the computation may still be running in the background.
	if err == nil && !ran {
		s.coalesced.Inc()
		s.phase(ctx, "coalesce-wait", t0, s.coalescedWait)
	}
	return body, callError(ctx, err)
}

// run executes a call's computation once, under the test hook, the
// endpoint's computed counter and its phase span.
func (s *Server) run(ctx context.Context, c *call) (any, error) {
	if s.testHookEstimate != nil {
		s.testHookEstimate()
	}
	c.ep.computed.Inc()
	t0 := time.Now()
	v, err := c.compute(ctx)
	s.phase(ctx, c.ep.phase, t0, c.ep.hist)
	return v, err
}

// callError maps a computation's failure to the wire error: a done
// context is a timeout, anything else an internal error.
func callError(ctx context.Context, err error) *APIError {
	switch {
	case err == nil:
		return nil
	case ctx.Err() != nil, errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return timeoutError(ctx)
	default:
		return &APIError{Status: http.StatusInternalServerError,
			Code: CodeInternal, Message: err.Error()}
	}
}

// scenarioContext tightens the request context by the body's own
// timeout_ms, when set.
func scenarioContext(ctx context.Context, timeoutMS int) (context.Context, context.CancelFunc) {
	if timeoutMS > 0 {
		return context.WithTimeout(ctx, time.Duration(timeoutMS)*time.Millisecond)
	}
	return context.WithCancel(ctx)
}

// Sharded reports whether the request goes through the keyed pipeline:
// the requests a fleet of replicas routes by shard key.
func (s *Server) Sharded(r *http.Request) bool {
	_, ok := s.endpoints[r.URL.Path]
	return ok && r.Method == http.MethodPost
}

// RouteKey maps a request (endpoint path + body) to its shard key — the
// response-cache key without its endpoint namespace — so a fleet of
// replicas can route every request to the node that owns its cache line.
// The second result is false when the request does not shard: a body
// that fails validation or exceeds the body limit (any node answers the
// 4xx identically), or a path outside the pipeline (/v1/batch fans out
// internally; health and metadata endpoints are node-local).
func (s *Server) RouteKey(path string, body []byte) (string, bool) {
	if c := s.keyed(path, body); c != nil {
		return c.key, true
	}
	return "", false
}

// Prepare is RouteKey for a Sharded request whose body the caller has
// read, at most MaxBodyBytes+1 bytes of it. It also returns the request
// to hand this server's handler: it replays the body and, when the body
// keyed, carries the prepared call, so a locally served request is
// decoded at most once. A body longer than the limit is the read prefix
// of one that does not shard: the handler reads it again ahead of the
// unread rest of r.Body, so its body limit answers 413 exactly as it
// does for an unprepared request. Prepare times itself in
// phase_decode_s; the caller runs before the request has its ordinal,
// so no trace span records it.
func (s *Server) Prepare(r *http.Request, body []byte) (string, *http.Request, bool) {
	t0 := time.Now()
	var c *call
	switch {
	case int64(len(body)) > s.cfg.MaxBodyBytes:
		// The read prefix of an oversized body: it does not shard.
	case streams(r):
		// The SSE path needs the call's estimator, which a memo hit lacks.
		c, _ = s.prepare(r.URL.Path, bytes.NewReader(body))
	default:
		c = s.keyed(r.URL.Path, body)
	}
	s.phaseDecode.Observe(time.Since(t0).Seconds())
	ctx := r.Context()
	if c != nil {
		ctx = context.WithValue(ctx, preparedKey{}, c)
	}
	local := r.WithContext(ctx)
	if int64(len(body)) > s.cfg.MaxBodyBytes {
		local.Body = struct {
			io.Reader
			io.Closer
		}{io.MultiReader(bytes.NewReader(body), r.Body), r.Body}
	} else {
		local.Body = io.NopCloser(bytes.NewReader(body))
		local.ContentLength = int64(len(body))
	}
	if c == nil {
		return "", local, false
	}
	return c.key, local, true
}

// MaxBodyBytes is the request body limit: a body longer than this
// answers 413 and never shards.
func (s *Server) MaxBodyBytes() int64 { return s.cfg.MaxBodyBytes }

// streams reports whether r asks for the SSE variant of an estimate.
func streams(r *http.Request) bool {
	return r.URL.Path == pathEstimate && r.URL.RawQuery != "" && r.URL.Query().Get("stream") == "1"
}

// keyed prepares a body for routing; nil when the request does not
// shard. A body the route memo has seen yields a call that carries the
// remembered key and timeout and decodes the body only if the response
// cache misses.
func (s *Server) keyed(path string, body []byte) *call {
	ep, ok := s.endpoints[path]
	if !ok || int64(len(body)) > s.cfg.MaxBodyBytes {
		return nil
	}
	d := digestOf(path, body)
	if key, timeoutMS, ok := s.routes.get(d); ok {
		s.memoHits.Inc()
		return &call{ep: ep, key: key, timeoutMS: timeoutMS,
			compute: func(ctx context.Context) (any, error) {
				c, apiErr := s.prepare(path, bytes.NewReader(body))
				if apiErr != nil { // cannot happen: the memo holds bodies that keyed
					return nil, apiErr
				}
				return c.compute(ctx)
			}}
	}
	s.memoMisses.Inc()
	c, apiErr := s.prepare(path, bytes.NewReader(body))
	if apiErr != nil {
		return nil
	}
	s.routes.put(d, c)
	return c
}
