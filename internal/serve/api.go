package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"boedag/internal/cluster"
	"boedag/internal/dag"
	"boedag/internal/statemodel"
)

// This file is the daemon's wire contract: the JSON request and response
// shapes of /v1/estimate and /v1/batch, the strict decoder behind them,
// and the typed error envelope every non-200 response carries. The byte
// output of the encoders is pinned by the golden files in testdata/ (see
// testdata/SCHEMA.md for the schema prose).

// APIError is a typed request-handling failure. It doubles as the JSON
// error body: every non-200 response is {"error": {"code", "message"}}.
type APIError struct {
	// Status is the HTTP status the error maps to (not serialized; the
	// status line already carries it).
	Status int `json:"-"`
	// Code is a stable machine-readable discriminator.
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
}

// Error implements error.
func (e *APIError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Error codes. Tests and clients switch on these, never on messages.
const (
	CodeBadRequest       = "bad_request"      // malformed JSON, invalid field values
	CodeUnknownWorkflow  = "unknown_workflow" // registry name not found
	CodeBodyTooLarge     = "body_too_large"   // request exceeded the body limit
	CodeMethodNotAllowed = "method_not_allowed"
	CodeOverloaded       = "overloaded" // admission queue full
	CodeDraining         = "draining"   // server is shutting down
	CodeTimeout          = "timeout"    // request deadline expired
	CodeInternal         = "internal"   // panic or other server-side failure
)

func badRequest(format string, args ...any) *APIError {
	return &APIError{Status: http.StatusBadRequest, Code: CodeBadRequest,
		Message: fmt.Sprintf(format, args...)}
}

// errorEnvelope is the JSON wrapper of an APIError.
type errorEnvelope struct {
	Error *APIError `json:"error"`
}

// EstimateOptions tune one prediction scenario. All fields are optional;
// zero values mean the server defaults (the paper's configuration).
type EstimateOptions struct {
	// Mode selects skew handling: "mean" (default), "median", "normal".
	Mode string `json:"mode,omitempty"`
	// MicroGB overrides the Word Count / TeraSort input size in GB for
	// registry workflows (default 100).
	MicroGB float64 `json:"micro_gb,omitempty"`
	// TPCHScale overrides the TPC-H scale factor (default 80).
	TPCHScale float64 `json:"tpch_scale,omitempty"`
	// PerNode caps tasks per node (0 = the cluster's slots).
	PerNode int `json:"pernode,omitempty"`
	// TimeoutMS tightens this request's deadline below the server ceiling.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// EstimateRequest is the body of POST /v1/estimate and one scenario of
// POST /v1/batch. Exactly one of Workflow and Spec must be set.
type EstimateRequest struct {
	// Workflow names a registry workflow (GET /v1/workflows lists them).
	Workflow string `json:"workflow,omitempty"`
	// Spec is an inline workflow specification in the dagsim -spec JSON
	// format (mutually exclusive with Workflow).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Cluster overrides the serving cluster spec for this scenario, in the
	// calibrate -spec-out JSON format.
	Cluster json.RawMessage `json:"cluster,omitempty"`
	// Options tune the scenario.
	Options EstimateOptions `json:"options,omitempty"`

	// Parsed forms, populated by DecodeEstimateRequest / validate.
	flow *dag.Workflow // non-nil when Spec was inline
	spec *cluster.Spec // non-nil when Cluster was set
	mode statemodel.SkewMode
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	// Scenarios are evaluated through the server's worker pool; results
	// come back in input order regardless of the worker count.
	Scenarios []EstimateRequest `json:"scenarios"`
}

// StageBody is one predicted job stage on the wire.
type StageBody struct {
	Job         string  `json:"job"`
	Stage       string  `json:"stage"`
	StartS      float64 `json:"start_s"`
	EndS        float64 `json:"end_s"`
	TaskTimeS   float64 `json:"task_time_s"`
	Parallelism int     `json:"parallelism"`
	Bottleneck  string  `json:"bottleneck"`
}

// StateBody is one predicted workflow state on the wire.
type StateBody struct {
	Seq         int            `json:"seq"`
	StartS      float64        `json:"start_s"`
	EndS        float64        `json:"end_s"`
	Running     []string       `json:"running"`
	Parallelism map[string]int `json:"parallelism"`
}

// EstimateResponse is the 200 body of /v1/estimate.
type EstimateResponse struct {
	Workflow  string      `json:"workflow"`
	MakespanS float64     `json:"makespan_s"`
	Stages    []StageBody `json:"stages"`
	States    []StateBody `json:"states"`
}

// BatchResult is one scenario's outcome inside a BatchResponse: exactly
// one of Estimate and Error is set.
type BatchResult struct {
	Estimate json.RawMessage `json:"estimate,omitempty"`
	Error    *APIError       `json:"error,omitempty"`
}

// BatchResponse is the 200 body of /v1/batch.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// WorkflowsResponse is the 200 body of GET /v1/workflows.
type WorkflowsResponse struct {
	Workflows []string `json:"workflows"`
}

// VersionResponse is the 200 body of GET /version: the running daemon's
// build identity and how long it has been up.
type VersionResponse struct {
	Build   BuildInfo `json:"build"`
	UptimeS float64   `json:"uptime_s"`
}

// BuildInfo identifies the binary and machine serving requests.
type BuildInfo struct {
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	Module      string `json:"module,omitempty"`
	Version     string `json:"version,omitempty"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
}

// DecodeEstimateRequest strictly parses one estimate request: unknown
// fields (at any nesting level) are rejected, trailing bytes after the
// JSON value are rejected, inline workflow and cluster specs are parsed
// and validated by their own strict loaders, and the option fields are
// range-checked. It never panics on any input (FuzzDecodeEstimateRequest
// holds that line) and every failure is a typed *APIError.
func DecodeEstimateRequest(r io.Reader) (*EstimateRequest, *APIError) {
	var req EstimateRequest
	if apiErr := decodeStrict(r, &req); apiErr != nil {
		return nil, apiErr
	}
	if apiErr := req.validate(); apiErr != nil {
		return nil, apiErr
	}
	return &req, nil
}

// DecodeBatchRequest strictly parses a batch request and validates every
// scenario, reporting the first invalid one by index.
func DecodeBatchRequest(r io.Reader, maxScenarios int) (*BatchRequest, *APIError) {
	var req BatchRequest
	if apiErr := decodeStrict(r, &req); apiErr != nil {
		return nil, apiErr
	}
	if len(req.Scenarios) == 0 {
		return nil, badRequest("batch needs at least one scenario")
	}
	if maxScenarios > 0 && len(req.Scenarios) > maxScenarios {
		return nil, badRequest("batch holds %d scenarios, limit is %d",
			len(req.Scenarios), maxScenarios)
	}
	for i := range req.Scenarios {
		if apiErr := req.Scenarios[i].validate(); apiErr != nil {
			return nil, badRequest("scenario %d: %s", i, apiErr.Message)
		}
	}
	return &req, nil
}

// validate range-checks the request and parses its nested specs.
func (req *EstimateRequest) validate() *APIError {
	hasSpec := len(req.Spec) > 0 && !bytes.Equal(req.Spec, []byte("null"))
	switch {
	case req.Workflow == "" && !hasSpec:
		return badRequest("one of \"workflow\" or \"spec\" is required")
	case req.Workflow != "" && hasSpec:
		return badRequest("\"workflow\" and \"spec\" are mutually exclusive")
	}
	if hasSpec {
		flow, err := dag.LoadWorkflow(bytes.NewReader(req.Spec))
		if err != nil {
			return badRequest("inline spec: %v", err)
		}
		req.flow = flow
	}
	if len(req.Cluster) > 0 && !bytes.Equal(req.Cluster, []byte("null")) {
		spec, err := cluster.ReadSpec(bytes.NewReader(req.Cluster))
		if err != nil {
			return badRequest("cluster: %v", err)
		}
		req.spec = &spec
	}
	mode, err := statemodel.ParseSkewMode(req.Options.Mode)
	if err != nil {
		return badRequest("%v", err)
	}
	req.mode = mode
	if req.Options.MicroGB < 0 {
		return badRequest("micro_gb must be non-negative")
	}
	if req.Options.TPCHScale < 0 {
		return badRequest("tpch_scale must be non-negative")
	}
	if req.Options.PerNode < 0 {
		return badRequest("pernode must be non-negative")
	}
	if req.Options.TimeoutMS < 0 {
		return badRequest("timeout_ms must be non-negative")
	}
	return nil
}

// decodeError maps a json/body failure to its typed form.
func decodeError(err error) *APIError {
	var maxBytes *http.MaxBytesError
	if errors.As(err, &maxBytes) {
		return &APIError{Status: http.StatusRequestEntityTooLarge,
			Code: CodeBodyTooLarge, Message: err.Error()}
	}
	return badRequest("parse request: %v", err)
}

// decodeStrict parses one JSON value into v. Unknown fields (at any
// nesting level) are rejected, and so are bytes after the value, so
// "{}garbage" does not silently pass.
func decodeStrict(r io.Reader, v any) *APIError {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return decodeError(err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return badRequest("trailing data after request body")
	}
	return nil
}

// buildEstimateResponse shapes a plan into the wire struct; the SSE
// stream marshals it compactly while /v1/estimate indents it. The bytes
// are deterministic: struct field order is fixed and the one map (state
// parallelism) marshals in encoding/json's sorted-key order.
func buildEstimateResponse(plan *statemodel.Plan) EstimateResponse {
	resp := EstimateResponse{
		Workflow:  plan.Workflow,
		MakespanS: plan.Makespan.Seconds(),
		Stages:    make([]StageBody, 0, len(plan.Stages)),
		States:    make([]StateBody, 0, len(plan.States)),
	}
	for _, s := range plan.Stages {
		resp.Stages = append(resp.Stages, StageBody{
			Job:         s.Job,
			Stage:       s.Stage.String(),
			StartS:      s.Start.Seconds(),
			EndS:        s.End.Seconds(),
			TaskTimeS:   s.TaskTime.Seconds(),
			Parallelism: s.Parallelism,
			Bottleneck:  s.Bottleneck.String(),
		})
	}
	for _, st := range plan.States {
		resp.States = append(resp.States, StateBody{
			Seq:         st.Seq,
			StartS:      st.Start.Seconds(),
			EndS:        st.End.Seconds(),
			Running:     st.Running,
			Parallelism: st.Parallelism,
		})
	}
	return resp
}

// marshalBody renders a response body: indented for curl-friendliness,
// newline-terminated, byte-deterministic for deterministic inputs. An
// EstimateResponse takes the one-pass encoder (encode.go), which writes
// the same bytes.
func marshalBody(v any) ([]byte, error) {
	if r, ok := v.(EstimateResponse); ok {
		return encodeEstimate(&r)
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
