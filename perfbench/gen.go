package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"boedag/internal/dag"
	"boedag/internal/serve"
	"boedag/internal/synthdag"
)

// Request generation. Every request a run issues is a pure function of
// (workload, seed, i): there is no generator state, so two runs with the
// same seed issue the identical sequence whatever prefix of it they get
// through, and a parent commit and a change do identical work.

const (
	pathEstimate = "/v1/estimate"
	pathExplain  = "/v1/explain"
	pathSchedule = "/v1/schedule"
)

// request is one HTTP call of a workload: a sharded POST endpoint and its
// JSON body. scenario is the estimate/explain body in parsed form (nil
// for schedules), kept so checks can re-derive the answer directly.
type request struct {
	path     string
	body     []byte
	scenario *serve.EstimateRequest
}

// Streams separate the draws of different request families, so e.g. the
// serve-cold snapshot can never draw the measured sequence's values.
const (
	streamHot uint64 = iota + 1
	streamHotSchedule
	streamCold
	streamColdSnapshot
	streamScale
	streamScaleWarmup
)

// splitmix64 is the mix hash: cheap, stateless, and identical across
// platforms and Go versions (unlike math/rand, whose stream is not a
// compatibility promise).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// draw is the uniform 64-bit draw for (seed, stream, i).
func draw(seed int64, stream uint64, i int64) uint64 {
	return splitmix64(splitmix64(uint64(seed)^stream<<56) + uint64(i))
}

// rng is a tiny splitmix64 sequence seeded from one draw; it builds the
// many fields of a single body (schedule jobs) without a shared state.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	return splitmix64(uint64(*r))
}

// intn returns a draw in [lo, hi].
func (r *rng) intn(lo, hi int) int { return lo + int(r.next()%uint64(hi-lo+1)) }

var modes = []string{"mean", "median", "normal"}

// Registry workflows the registry-backed workloads ask about: the HiBench
// micro benchmarks, their wc+ts hybrids and the 22 TPC-H queries, all
// sized by micro_gb or tpch_scale. fleet-hot adds the fixed-size HiBench
// DAGs; serve-cold cannot, because every one of its keys must be unique
// and a fixed-size workflow has only modes × pernode distinct keys.
var sizedFlows = func() []string {
	flows := []string{"wc", "ts", "tsc", "ts2r", "ts3r", "wc+ts", "wc+ts2r", "wc+ts3r"}
	for q := 1; q <= 22; q++ {
		flows = append(flows, fmt.Sprintf("q%d", q))
	}
	return flows
}()

var hotFlows = append(append([]string(nil), sizedFlows...),
	"hbsort", "hbagg", "hbjoin", "kmeans", "pagerank", "bayes")

// fleet-hot's working set: hotEstimates + hotExplains + hotSchedules
// bodies, 80/10/10, every one sent through the fleet during set-up.
const (
	hotEstimates  = 2000
	hotExplains   = 250
	hotSchedules  = 250
	hotWorkingSet = hotEstimates + hotExplains + hotSchedules
)

// hotBody returns working-set body j of fleet-hot.
func hotBody(seed int64, j int) request {
	if j >= hotEstimates+hotExplains {
		return scheduleRequest(draw(seed, streamHotSchedule, int64(j)))
	}
	h := draw(seed, streamHot, int64(j))
	sc := &serve.EstimateRequest{
		Workflow: hotFlows[h%uint64(len(hotFlows))],
		Options: serve.EstimateOptions{
			Mode:      modes[(h>>8)%3],
			MicroGB:   float64(8 + (h>>16)%33), // 8..40 GB
			TPCHScale: float64(8 + (h>>24)%33),
		},
	}
	path := pathEstimate
	if j >= hotEstimates {
		path = pathExplain
	}
	return estimateRequest(path, sc)
}

// hotIndex maps the window's i-th request to its working-set body.
func hotIndex(seed int64, i int64) int {
	return int(draw(seed, streamHot, -1-i) % hotWorkingSet)
}

// coldRequest returns serve-cold's i-th measured request, or — with
// snapshot set — the i-th request of the untimed traffic whose responses
// fill the warm-cache snapshot. The mix is 88 % estimate, 2 % explain and
// 10 % schedule. Explain is kept rare because every explain leaves its
// base and θ-perturbed plans in the server's plan cache, which has no
// size bound; at a tenth of the mix the plan cache, not the bounded
// response cache, set the workload's memory and much of its collector
// time (see README.md). Every request is distinct: micro_gb and
// tpch_scale step by 1/512 GB per request, measured requests on even
// 1/1024ths and snapshot requests on odd ones, so no measured key can
// ever be in the snapshot (the lattice is exact in binary floating
// point). Snapshot traffic has no schedules: only estimates and explains
// leave cache entries.
func coldRequest(seed int64, i int64, snapshot bool) request {
	stream, k := streamCold, 2*i
	if snapshot {
		stream, k = streamColdSnapshot, 2*i+1
	}
	h := draw(seed, stream, i)
	kind := h % 50 // 0–43 estimate, 44 explain, 45–49 schedule
	if kind >= 45 && !snapshot {
		return scheduleRequest(h)
	}
	size := 12 + float64(k)/1024
	sc := &serve.EstimateRequest{
		Workflow: sizedFlows[(h>>8)%uint64(len(sizedFlows))],
		Options: serve.EstimateOptions{
			Mode:      modes[(h>>16)%3],
			MicroGB:   size,
			TPCHScale: size,
			PerNode:   []int{0, 2, 4, 8}[(h>>24)%4],
		},
	}
	path := pathEstimate
	if kind == 44 {
		path = pathExplain
	}
	return estimateRequest(path, sc)
}

// scaleShapes are estimate-scale's DAG shapes (layers × width), 100 to
// 250 jobs, whose single-core estimates take about 25–75 ms. Request i
// takes shape (i + offset) mod len, so every run issues the same shape
// mix whatever its seed; the seed varies the wiring and job profiles of
// each DAG. The shapes are chosen for a narrow per-shape spread (wide
// layers such as 10×18 vary 60–130 ms with the seed and would make the
// tail a draw of the seed rather than a property of the estimator).
var scaleShapes = []synthdag.Config{
	{Layers: 10, Width: 10},
	{Layers: 16, Width: 10},
	{Layers: 12, Width: 12},
	{Layers: 8, Width: 16},
	{Layers: 25, Width: 10},
}

// scaleRequest returns estimate-scale's i-th request. warmup selects the
// set-up's warm-up requests instead: a disjoint stream whose i-th
// request takes shape i, so every seed warms up on the same shapes.
func scaleRequest(seed int64, i int64, warmup bool) request {
	stream, shape := streamScale, i+scaleOffset(seed)
	if warmup {
		stream, shape = streamScaleWarmup, i
	}
	h := draw(seed, stream, i)
	c := scaleShapes[shape%int64(len(scaleShapes))]
	c.FanIn = 3
	c.Seed = int64(h>>2) | 1 // synthdag treats 0 as "default"
	flow := synthdag.Generate(c)
	var buf bytes.Buffer
	if err := dag.SaveWorkflow(&buf, flow); err != nil {
		panic(err) // synthdag output is valid by construction
	}
	var spec bytes.Buffer
	if err := json.Compact(&spec, buf.Bytes()); err != nil {
		panic(err)
	}
	sc := &serve.EstimateRequest{
		Spec:    spec.Bytes(),
		Options: serve.EstimateOptions{Mode: modes[(h>>8)%3]},
	}
	return estimateRequest(pathEstimate, sc)
}

// scaleOffset is the seed's rotation of the shape cycle.
func scaleOffset(seed int64) int64 {
	return int64(draw(seed, streamScale, -1) % uint64(len(scaleShapes)))
}

func estimateRequest(path string, sc *serve.EstimateRequest) request {
	body, err := json.Marshal(sc)
	if err != nil {
		panic(err) // plain data: cannot fail
	}
	return request{path: path, body: body, scenario: sc}
}

// scheduleRequest builds a seeded /v1/schedule body: an arrival stream
// of 12–36 jobs over a three-queue tree (a guaranteed prod queue, a
// weighted ad-hoc queue and a capped batch queue) under a seeded policy.
func scheduleRequest(h uint64) request {
	r := rng(h)
	req := serve.ScheduleRequest{
		Queues: []serve.QueueSpecBody{
			{Name: "prod", Quota: serve.QueueLimitBody{Slots: r.intn(16, 48)}},
			{Name: "adhoc", Weight: float64(r.intn(1, 3))},
			{Name: "batch", Weight: 1, Limit: serve.QueueLimitBody{Slots: r.intn(24, 64)}},
		},
		Options: serve.ScheduleOptions{
			Policy:            []string{"drf", "fifo", "fair", "spjf"}[r.intn(0, 3)],
			DeadlineAdmission: r.intn(0, 1) == 1,
			Slots:             r.intn(64, 176),
		},
	}
	queues := []string{"prod", "adhoc", "batch"}
	submit := 0.0
	for j, n := 0, r.intn(12, 36); j < n; j++ {
		submit += float64(r.intn(0, 60))
		work := float64(r.intn(100, 8000))
		par := r.intn(4, 48)
		job := serve.ScheduleJobBody{
			ID:             fmt.Sprintf("j%02d", j),
			SubmitS:        submit,
			WorkSlotS:      work,
			MaxParallelism: par,
			PredictedS:     work / float64(par),
			Queue:          queues[r.intn(0, 2)],
		}
		if r.intn(0, 2) == 0 {
			job.DeadlineS = submit + 3*job.PredictedS
		}
		req.Jobs = append(req.Jobs, job)
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return request{path: pathSchedule, body: body}
}
