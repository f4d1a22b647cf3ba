package serve

import (
	"encoding/json"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"boedag/internal/boe"
	"boedag/internal/cluster"
	"boedag/internal/dag"
	"boedag/internal/evalpool"
	"boedag/internal/experiments"
	"boedag/internal/obs"
	"boedag/internal/statemodel"
	"boedag/internal/units"
)

// handleBatch serves POST /v1/batch: every scenario goes through the
// evalpool worker pool and the same coalescing cache as /v1/estimate,
// and results come back in input order — the response bytes are
// identical at any worker count.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	req, apiErr := DecodeBatchRequest(r.Body, s.cfg.MaxBatch)
	s.phase(r.Context(), "decode", t0, s.phaseDecode)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	jobs := make([]func() (BatchResult, error), len(req.Scenarios))
	for i := range req.Scenarios {
		sc := &req.Scenarios[i]
		jobs[i] = func() (BatchResult, error) {
			c, apiErr := s.scenarioCall(pathEstimate, sc)
			var body []byte
			if apiErr == nil {
				body, apiErr = s.answer(r.Context(), c)
			}
			if apiErr != nil {
				return BatchResult{Error: apiErr}, nil
			}
			return BatchResult{Estimate: json.RawMessage(body)}, nil
		}
	}
	results, err := evalpool.Run(r.Context(), jobs, s.cfg.Workers)
	if err != nil {
		// Jobs never fail; only a done request context reaches here, marking
		// undispatched scenarios. Report those as per-scenario timeouts.
		for i := range results {
			if results[i].Estimate == nil && results[i].Error == nil {
				results[i].Error = timeoutError(r.Context())
			}
		}
	}
	writeBody(w, BatchResponse{Results: results})
}

// scenario materializes a validated request into its workflow and
// estimator, mirroring the boepredict CLI's defaults (the paper's
// overheads, BOE task timer).
func (s *Server) scenario(req *EstimateRequest) (*dag.Workflow, *statemodel.Estimator, *APIError) {
	spec := s.cfg.Spec
	if req.spec != nil {
		spec = *req.spec
	}
	cfg := experiments.Default()
	cfg.Spec = spec
	if req.Options.MicroGB > 0 {
		cfg.MicroInput = units.Bytes(req.Options.MicroGB) * units.GB
	}
	if req.Options.TPCHScale > 0 {
		cfg.TPCHScale = req.Options.TPCHScale
	}
	flow := req.flow
	if flow == nil {
		var err error
		flow, err = experiments.BuildNamed(req.Workflow, cfg)
		if err != nil {
			return nil, nil, &APIError{Status: http.StatusBadRequest,
				Code: CodeUnknownWorkflow, Message: err.Error()}
		}
	}
	// Observe routes the estimator's solver counters (est_iterations,
	// est_dist_solves, est_dist_reuse, …) into the server registry, so
	// /metrics shows how much work the incremental core is saving.
	opt := statemodel.Options{
		Mode:              req.mode,
		JobSubmitOverhead: cfg.JobSubmitOverhead,
		Observe:           obs.Options{Metrics: s.reg},
	}
	if req.Options.PerNode > 0 {
		opt.SlotLimit = req.Options.PerNode * spec.Nodes
	}
	timer := &statemodel.BOETimer{Model: boe.New(spec), TaskStartOverhead: cfg.TaskStartOverhead}
	return flow, statemodel.New(spec, timer, opt), nil
}

// handleWorkflows serves GET /v1/workflows.
func (s *Server) handleWorkflows(w http.ResponseWriter, r *http.Request) {
	writeBody(w, WorkflowsResponse{Workflows: experiments.WorkflowNames()})
}

// handleCluster serves GET /v1/cluster: the serving cluster spec in the
// calibrate -spec-out interchange format.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	cluster.WriteSpec(w, s.cfg.Spec)
}

// handleVersion serves GET /version: the daemon's build identity (Go
// toolchain, module version, VCS stamp, GOMAXPROCS) plus uptime.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeBody(w, VersionResponse{
		Build:   currentBuild(),
		UptimeS: time.Since(s.start).Seconds(),
	})
}

// currentBuild captures the running binary's build info via
// runtime/debug.ReadBuildInfo (module version, VCS stamp when built
// from a git checkout) plus the runtime's toolchain and CPU facts.
func currentBuild() BuildInfo {
	b := BuildInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		b.Module = info.Main.Path
		b.Version = info.Main.Version
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				b.VCSRevision = s.Value
			case "vcs.time":
				b.VCSTime = s.Value
			case "vcs.modified":
				b.VCSModified = s.Value == "true"
			}
		}
	}
	return b
}

// handleHealthz serves GET /healthz: alive as long as it answers.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeBody(w, map[string]string{"status": "ok"})
}

// handleReadyz serves GET /readyz: ready until the drain starts, so load
// balancers stop routing before the listener closes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, &APIError{Status: http.StatusServiceUnavailable,
			Code: CodeDraining, Message: "server is draining"})
		return
	}
	writeBody(w, map[string]string{"status": "ready"})
}

// handleMetrics serves GET /metrics from the obs registry: JSON by
// default, Prometheus text exposition with ?format=text — stable
// HELP/TYPE blocks, cumulative histogram buckets, escaped labels, so a
// Prometheus server can scrape the daemon directly.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		s.reg.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	s.reg.WriteJSON(w)
}
