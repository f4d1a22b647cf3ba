package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"

	"boedag/internal/cluster"
	"boedag/internal/sched"
)

// This file is the scheduling side of the daemon's wire contract:
// POST /v1/schedule replays a client-supplied arrival stream through the
// estimator-in-the-loop scheduler (internal/sched.RunStream) — flat
// FIFO/DRF/Fair/SPJF or hierarchical queues with quotas, weights, and
// preemptive reclaim — and answers with per-job fates plus the aggregate
// policy metrics. Like the estimate endpoints, the response bytes are
// deterministic and pinned by goldens.

// maxScheduleJobs bounds one request's arrival stream.
const maxScheduleJobs = 10000

// ScheduleJobBody is one arriving job on the wire.
type ScheduleJobBody struct {
	// ID identifies the job (unique per request).
	ID string `json:"id"`
	// SubmitS is the arrival time in seconds.
	SubmitS float64 `json:"submit_s"`
	// WorkSlotS is the total demand in slot-seconds.
	WorkSlotS float64 `json:"work_slot_s"`
	// MaxParallelism caps the slots the job can use at once (0 = the
	// whole pool).
	MaxParallelism int `json:"max_parallelism,omitempty"`
	// MemoryMB and VCores are the per-container shape (DRF's axes).
	MemoryMB int `json:"memory_mb,omitempty"`
	VCores   int `json:"vcores,omitempty"`
	// PredictedS is the estimator's standalone makespan in seconds; the
	// prediction-guided policies order and admit by it (0 = none).
	PredictedS float64 `json:"predicted_s,omitempty"`
	// DeadlineS is the absolute SLO completion time in seconds (0 = none).
	DeadlineS float64 `json:"deadline_s,omitempty"`
	// Queue names the job's hierarchy queue ("" = root).
	Queue string `json:"queue,omitempty"`
}

// QueueLimitBody is a capacity triple on the wire.
type QueueLimitBody struct {
	MemoryMB int `json:"memory_mb,omitempty"`
	VCores   int `json:"vcores,omitempty"`
	Slots    int `json:"slots,omitempty"`
}

// QueueSpecBody declares one hierarchy queue on the wire.
type QueueSpecBody struct {
	Name   string         `json:"name"`
	Parent string         `json:"parent,omitempty"`
	Quota  QueueLimitBody `json:"quota,omitempty"`
	Weight float64        `json:"weight,omitempty"`
	Limit  QueueLimitBody `json:"limit,omitempty"`
}

// ScheduleOptions tune one schedule replay.
type ScheduleOptions struct {
	// Policy orders the slot grants: "drf" (default), "fifo", "fair",
	// "spjf".
	Policy string `json:"policy,omitempty"`
	// DeadlineAdmission enables predictive admission control: jobs whose
	// predicted completion misses their deadline are rejected at submit
	// with a 503-style reason instead of admitted to miss.
	DeadlineAdmission bool `json:"deadline_admission,omitempty"`
	// Slots overrides the pool's slot count (0 = the cluster's total).
	Slots int `json:"slots,omitempty"`
	// TimeoutMS tightens this request's deadline below the server ceiling.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// ScheduleRequest is the body of POST /v1/schedule.
type ScheduleRequest struct {
	// Jobs is the arrival stream (any submit order; the replay sorts).
	Jobs []ScheduleJobBody `json:"jobs"`
	// Queues declares the scheduling hierarchy; empty = flat scheduling.
	Queues []QueueSpecBody `json:"queues,omitempty"`
	// Cluster overrides the serving cluster spec for this request, in the
	// calibrate -spec-out JSON format.
	Cluster json.RawMessage `json:"cluster,omitempty"`
	// Options tune the replay.
	Options ScheduleOptions `json:"options,omitempty"`

	// Parsed forms, populated by validate.
	spec      *cluster.Spec
	policy    sched.Policy
	hierarchy *sched.Hierarchy
}

// ScheduleJobResultBody is one job's fate on the wire.
type ScheduleJobResultBody struct {
	ID      string  `json:"id"`
	SubmitS float64 `json:"submit_s"`
	// FinishS is the completion time; for rejected jobs it is the
	// rejection instant, and -1 when the job never completed (starved
	// with no future capacity).
	FinishS     float64 `json:"finish_s"`
	StandaloneS float64 `json:"standalone_s"`
	Slowdown    float64 `json:"slowdown,omitempty"`
	Rejected    bool    `json:"rejected,omitempty"`
	Reason      string  `json:"reason,omitempty"`
	Detail      string  `json:"detail,omitempty"`
	Missed      bool    `json:"missed,omitempty"`
	Preemptions int     `json:"preemptions,omitempty"`
}

// RejectionBody is one refused admission on the wire: the 503-style
// reason the deadline-aware policy gives instead of admitting work it
// predicts will miss its SLO.
type RejectionBody struct {
	JobID  string `json:"job_id"`
	Code   int    `json:"code"`
	Reason string `json:"reason"`
	Detail string `json:"detail"`
}

// ScheduleResponse is the 200 body of /v1/schedule. Jobs come back in
// submit order.
type ScheduleResponse struct {
	Policy       string                  `json:"policy"`
	MakespanS    float64                 `json:"makespan_s"`
	P95Slowdown  float64                 `json:"p95_slowdown"`
	MeanSlowdown float64                 `json:"mean_slowdown"`
	SLOMissRate  float64                 `json:"slo_miss_rate"`
	Admitted     int                     `json:"admitted"`
	Rejected     int                     `json:"rejected"`
	Missed       int                     `json:"missed"`
	Preemptions  int                     `json:"preemptions"`
	Jobs         []ScheduleJobResultBody `json:"jobs"`
	Rejections   []RejectionBody         `json:"rejections,omitempty"`
}

// DecodeScheduleRequest strictly parses one schedule request: unknown
// fields and trailing bytes are rejected, the queue tree is built and
// validated, and every job is range-checked. It never panics on any
// input (FuzzDecodeScheduleRequest holds that line) and every failure is
// a typed *APIError.
func DecodeScheduleRequest(r io.Reader) (*ScheduleRequest, *APIError) {
	var req ScheduleRequest
	if apiErr := decodeStrict(r, &req); apiErr != nil {
		return nil, apiErr
	}
	if apiErr := req.validate(); apiErr != nil {
		return nil, apiErr
	}
	return &req, nil
}

// validate range-checks the request and builds its parsed forms.
func (req *ScheduleRequest) validate() *APIError {
	if len(req.Jobs) == 0 {
		return badRequest("schedule needs at least one job")
	}
	if len(req.Jobs) > maxScheduleJobs {
		return badRequest("stream holds %d jobs, limit is %d", len(req.Jobs), maxScheduleJobs)
	}
	if len(req.Cluster) > 0 && !bytes.Equal(req.Cluster, []byte("null")) {
		spec, err := cluster.ReadSpec(bytes.NewReader(req.Cluster))
		if err != nil {
			return badRequest("cluster: %v", err)
		}
		req.spec = &spec
	}
	pol, err := sched.ParsePolicy(req.Options.Policy)
	if req.Options.Policy == "" {
		pol = sched.PolicyDRF
	} else if err != nil {
		return badRequest("%v", err)
	}
	req.policy = pol
	if req.Options.Slots < 0 {
		return badRequest("slots must be non-negative")
	}
	if req.Options.TimeoutMS < 0 {
		return badRequest("timeout_ms must be non-negative")
	}
	queues := map[string]bool{}
	if len(req.Queues) > 0 {
		specs := make([]sched.QueueSpec, len(req.Queues))
		for i, q := range req.Queues {
			specs[i] = sched.QueueSpec{
				Name:   q.Name,
				Parent: q.Parent,
				Quota:  sched.QueueLimit{MemoryMB: q.Quota.MemoryMB, VCores: q.Quota.VCores, Slots: q.Quota.Slots},
				Weight: q.Weight,
				Limit:  sched.QueueLimit{MemoryMB: q.Limit.MemoryMB, VCores: q.Limit.VCores, Slots: q.Limit.Slots},
			}
			queues[q.Name] = true
		}
		h, err := sched.NewHierarchy(specs)
		if err != nil {
			return badRequest("queues: %v", err)
		}
		req.hierarchy = h
	}
	seen := make(map[string]bool, len(req.Jobs))
	for i, j := range req.Jobs {
		switch {
		case j.ID == "":
			return badRequest("job %d: \"id\" is required", i)
		case seen[j.ID]:
			return badRequest("job %d: duplicate id %q", i, j.ID)
		case j.SubmitS < 0 || math.IsNaN(j.SubmitS) || math.IsInf(j.SubmitS, 0):
			return badRequest("job %q: submit_s must be finite and non-negative", j.ID)
		case j.WorkSlotS <= 0 || math.IsNaN(j.WorkSlotS) || math.IsInf(j.WorkSlotS, 0):
			return badRequest("job %q: work_slot_s must be finite and positive", j.ID)
		case j.MaxParallelism < 0:
			return badRequest("job %q: max_parallelism must be non-negative", j.ID)
		case j.MemoryMB < 0 || j.VCores < 0:
			return badRequest("job %q: container shape must be non-negative", j.ID)
		case j.PredictedS < 0 || math.IsNaN(j.PredictedS) || math.IsInf(j.PredictedS, 0):
			return badRequest("job %q: predicted_s must be finite and non-negative", j.ID)
		case j.DeadlineS < 0 || math.IsNaN(j.DeadlineS) || math.IsInf(j.DeadlineS, 0):
			return badRequest("job %q: deadline_s must be finite and non-negative", j.ID)
		case j.Queue != "" && req.hierarchy == nil:
			return badRequest("job %q: queue %q without a \"queues\" declaration", j.ID, j.Queue)
		case j.Queue != "" && !queues[j.Queue]:
			return badRequest("job %q: unknown queue %q", j.ID, j.Queue)
		}
		seen[j.ID] = true
	}
	return nil
}

// replay runs the validated request's arrival stream against spec — the
// serving cluster or the request's own cluster override: a pure
// deterministic function of (request, spec).
func (req *ScheduleRequest) replay(spec cluster.Spec) sched.StreamResult {
	pool := sched.PoolOf(spec)
	if req.Options.Slots > 0 {
		pool = pool.WithSlotLimit(req.Options.Slots)
	}
	jobs := make([]sched.StreamJob, len(req.Jobs))
	for i, j := range req.Jobs {
		jobs[i] = sched.StreamJob{
			ID:             j.ID,
			Submit:         j.SubmitS,
			Work:           j.WorkSlotS,
			MaxParallelism: j.MaxParallelism,
			MemoryMB:       j.MemoryMB,
			VCores:         j.VCores,
			Predicted:      j.PredictedS,
			Deadline:       j.DeadlineS,
			Queue:          j.Queue,
		}
	}
	return sched.RunStream(pool, jobs, sched.StreamOptions{
		Policy:            req.policy,
		DeadlineAdmission: req.Options.DeadlineAdmission,
		Hierarchy:         req.hierarchy,
	})
}

// scheduleResponse shapes a stream result into the wire response.
// Byte-deterministic: field order is fixed and only slices appear.
// Non-finite floats (a job that never completed) encode as -1 so the
// body is always valid JSON.
func scheduleResponse(policy string, res sched.StreamResult) ScheduleResponse {
	resp := ScheduleResponse{
		Policy:       policy,
		MakespanS:    finiteS(res.Makespan),
		P95Slowdown:  finiteS(res.P95Slowdown),
		MeanSlowdown: finiteS(res.MeanSlowdown),
		SLOMissRate:  finiteS(res.SLOMissRate),
		Admitted:     res.Admitted,
		Rejected:     res.Rejected,
		Missed:       res.Missed,
		Preemptions:  res.Preemptions,
		Jobs:         make([]ScheduleJobResultBody, 0, len(res.Jobs)),
	}
	for _, j := range res.Jobs {
		resp.Jobs = append(resp.Jobs, ScheduleJobResultBody{
			ID:          j.ID,
			SubmitS:     j.Submit,
			FinishS:     finiteS(j.Finish),
			StandaloneS: finiteS(j.Standalone),
			Slowdown:    finiteS(j.Slowdown),
			Rejected:    j.Rejected,
			Reason:      j.Reason,
			Detail:      j.Detail,
			Missed:      j.Missed,
			Preemptions: j.Preemptions,
		})
	}
	for _, r := range res.Rejections {
		resp.Rejections = append(resp.Rejections, RejectionBody{
			JobID: r.JobID, Code: r.Code, Reason: r.Reason, Detail: r.Detail,
		})
	}
	return resp
}

// finiteS clamps non-finite values to the wire sentinel -1.
func finiteS(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}
