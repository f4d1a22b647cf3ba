package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"

	"boedag/internal/cachestore"
	"boedag/internal/serve"
)

// workload is one traffic mix and the system it runs against.
type workload interface {
	// prepare builds the run's inputs, untimed: working sets, expected
	// responses, the warm-cache snapshot.
	prepare(b *bench) error
	// boot brings a fresh system from nothing to ready-for-window — the
	// work setup_s times — and returns how many workload requests the
	// set-up issued.
	boot(b *bench, in *instr) (*system, int, error)
	// next is the window's i-th request, a pure function of (seed, i).
	next(i int64) request
	// check verifies one 2xx response inside the window.
	check(i int64, body []byte) error
	// verify runs the post-window checks, given the server counters'
	// change over the window.
	verify(d scrape) error
	// accuracy is the mean Table III accuracy, in percent, of a fixed
	// seeded sample of the workload's estimates against the simulator.
	accuracy() (float64, error)
	// scenarios is the sample of the workload's estimate scenarios the
	// traced run times the estimator on directly.
	scenarios() []*serve.EstimateRequest
}

// bench is one invocation's settings.
type bench struct {
	seed int64
	// dir is the run's scratch directory (snapshots, the Chrome trace).
	dir string
}

// ---- fleet-hot ----------------------------------------------------------

// fleetHot drives a three-node fleet with a fixed working set that the
// set-up has already answered once, so every estimate and explain in
// the window is a cache hit at its owning node; request i enters at node
// i mod 3, so about two thirds are forwarded.
type fleetHot struct {
	seed int64
	set  []request
	// want holds a solo serve.Server's response to each working-set body.
	want [][]byte
}

func (w *fleetHot) prepare(b *bench) error {
	w.set = make([]request, hotWorkingSet)
	for j := range w.set {
		w.set[j] = hotBody(w.seed, j)
	}
	solo, err := serve.New(serve.Config{})
	if err != nil {
		return err
	}
	w.want = make([][]byte, len(w.set))
	return serveDirect(solo, w.set, func(j int, body []byte) error {
		if !json.Valid(body) {
			return fmt.Errorf("solo response does not decode")
		}
		w.want[j] = body
		return nil
	})
}

func (w *fleetHot) boot(b *bench, in *instr) (*system, int, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	sys, err := boot(client, 3, serve.Config{}, true, in)
	if err != nil {
		return nil, 0, err
	}
	err = sendAll(client, sys.targets, w.set, func(j int, body []byte) error {
		return w.same(j, body)
	})
	if err != nil {
		sys.close()
		return nil, 0, err
	}
	return sys, len(w.set), nil
}

// same checks a fleet response against the solo server's bytes.
func (w *fleetHot) same(j int, body []byte) error {
	if !bytes.Equal(body, w.want[j]) {
		return fmt.Errorf("fleet response to working-set body %d differs from a solo server's", j)
	}
	return nil
}

func (w *fleetHot) next(i int64) request { return w.set[hotIndex(w.seed, i)] }

func (w *fleetHot) check(i int64, body []byte) error { return w.same(hotIndex(w.seed, i), body) }

func (w *fleetHot) verify(d scrape) error {
	if n := d["estimates_computed"] + d["explains_computed"]; n != 0 {
		return fmt.Errorf("%v estimate/explain computations in the window; set-up should have cached them all", n)
	}
	return nil
}

// accuracySample is how many estimates the registry workloads score.
const accuracySample = 16

func (w *fleetHot) accuracy() (float64, error) {
	var reqs []*serve.EstimateRequest
	var bodies [][]byte
	for j := 0; j < accuracySample; j++ { // the first bodies are estimates
		reqs = append(reqs, w.set[j].scenario)
		bodies = append(bodies, w.want[j])
	}
	return accuracyPct(reqs, bodies)
}

func (w *fleetHot) scenarios() []*serve.EstimateRequest {
	var out []*serve.EstimateRequest
	for j := 0; j < 200; j++ {
		out = append(out, w.set[j].scenario)
	}
	return out
}

// serveDirect answers reqs through srv's handler without sockets, over
// conns goroutines, and hands each 200 body to keep.
func serveDirect(srv *serve.Server, reqs []request, keep func(j int, body []byte) error) error {
	h := srv.Handler()
	var mu sync.Mutex
	var first error
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", reqs[j].path, bytes.NewReader(reqs[j].body)))
				var err error
				if rec.Code != 200 {
					err = fmt.Errorf("request %d (%s): status %d: %.200s", j, reqs[j].path, rec.Code, rec.Body.Bytes())
				} else {
					err = keep(j, rec.Body.Bytes())
				}
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for j := range reqs {
		next <- j
	}
	close(next)
	wg.Wait()
	return first
}

// ---- serve-cold ---------------------------------------------------------

// coldCapacity is serve-cold's response-cache bound: far below a
// window's request count, so every measured miss inserts one entry and
// evicts one.
const coldCapacity = 2048

// serveCold drives one server whose bounded cache was restored full
// from a snapshot of other traffic, with requests that are all distinct:
// every estimate and explain misses, computes, inserts and evicts.
type serveCold struct {
	seed   int64
	dir    string
	sample map[int64]bool
	mu     sync.Mutex
	got    map[int64][]byte
}

func (w *serveCold) config() serve.Config {
	return serve.Config{CacheDir: w.dir, CacheMaxEntries: coldCapacity}
}

// prepare writes the snapshot: coldCapacity responses to snapshot
// traffic, computed by a server with the same bound and saved the way a
// drained daemon saves its cache.
func (w *serveCold) prepare(b *bench) error {
	w.dir = filepath.Join(b.dir, "serve-cold-cache")
	if err := os.RemoveAll(w.dir); err != nil {
		return err
	}
	srv, err := serve.New(w.config())
	if err != nil {
		return err
	}
	reqs := make([]request, coldCapacity)
	for j := range reqs {
		reqs[j] = coldRequest(w.seed, int64(j), true)
	}
	if err := serveDirect(srv, reqs, func(int, []byte) error { return nil }); err != nil {
		return err
	}
	if err := srv.SaveCacheSnapshot(); err != nil {
		return err
	}
	entries, err := cachestore.Read(srv.SnapshotPath())
	if err != nil {
		return err
	}
	if len(entries) != coldCapacity {
		return fmt.Errorf("snapshot holds %d entries, want %d", len(entries), coldCapacity)
	}
	w.sample = map[int64]bool{}
	w.got = map[int64][]byte{}
	for i := int64(0); len(w.sample) < accuracySample; i++ {
		if coldRequest(w.seed, i, false).path == pathEstimate {
			w.sample[i] = true
		}
	}
	return nil
}

func (w *serveCold) boot(b *bench, in *instr) (*system, int, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	sys, err := boot(client, 1, w.config(), false, in)
	if err != nil {
		return nil, 0, err
	}
	if n := sys.servers[0].Metrics().Counter("cache_restored_entries").Value(); n != coldCapacity {
		sys.close()
		return nil, 0, fmt.Errorf("restored %d cache entries, want %d", n, coldCapacity)
	}
	return sys, 0, nil
}

func (w *serveCold) next(i int64) request { return coldRequest(w.seed, i, false) }

func (w *serveCold) check(i int64, body []byte) error {
	if !json.Valid(body) {
		return fmt.Errorf("response does not decode")
	}
	if w.sample[i] {
		w.mu.Lock()
		w.got[i] = bytes.Clone(body)
		w.mu.Unlock()
	}
	return nil
}

func (w *serveCold) verify(d scrape) error {
	if d["estimate_cache_hits"] != 0 {
		return fmt.Errorf("%v cache hits in the window; every measured request should be distinct", d["estimate_cache_hits"])
	}
	return nil
}

func (w *serveCold) accuracy() (float64, error) {
	var reqs []*serve.EstimateRequest
	var bodies [][]byte
	for i := int64(0); len(reqs) < accuracySample; i++ {
		if !w.sample[i] {
			continue
		}
		body, ok := w.got[i]
		if !ok {
			return 0, fmt.Errorf("accuracy: sample request %d did not complete in the window", i)
		}
		reqs = append(reqs, coldRequest(w.seed, i, false).scenario)
		bodies = append(bodies, body)
	}
	return accuracyPct(reqs, bodies)
}

func (w *serveCold) scenarios() []*serve.EstimateRequest {
	var out []*serve.EstimateRequest
	for i := int64(0); len(out) < 200; i++ {
		if r := coldRequest(w.seed, i, false); r.path == pathEstimate {
			out = append(out, r.scenario)
		}
	}
	return out
}

// ---- estimate-scale -----------------------------------------------------

const (
	// scaleCapacity bounds estimate-scale's response cache (responses
	// are a few hundred KB each; every request is distinct anyway).
	scaleCapacity = 32
	// scaleCheckEvery picks the requests whose makespan is re-derived
	// by a direct estimator run after the window.
	scaleCheckEvery = 32
)

// estimateScale drives one server with inline specs of distinct
// 100–250-job layered DAGs: nearly all of each request is the
// estimator's state loop, BOE solves and fairshare waterfill.
type estimateScale struct {
	seed int64
	warm []request
	// accIdx is the request whose served makespan accuracy_pct scores:
	// the first of the smallest shape (simulating a DAG this size takes
	// seconds, so the sample is one request).
	accIdx int64
	mu     sync.Mutex
	got    map[int64][]byte
}

func (w *estimateScale) prepare(b *bench) error {
	w.warm = make([]request, len(scaleShapes)) // one of each shape
	for k := range w.warm {
		w.warm[k] = scaleRequest(w.seed, int64(k), true)
	}
	n := int64(len(scaleShapes))
	w.accIdx = (n - scaleOffset(w.seed)) % n // the first request of shape 0
	w.got = map[int64][]byte{}
	return nil
}

func (w *estimateScale) boot(b *bench, in *instr) (*system, int, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	sys, err := boot(client, 1, serve.Config{CacheMaxEntries: scaleCapacity}, false, in)
	if err != nil {
		return nil, 0, err
	}
	err = sendAll(client, sys.targets, w.warm, func(_ int, body []byte) error {
		if !json.Valid(body) {
			return fmt.Errorf("response does not decode")
		}
		return nil
	})
	if err != nil {
		sys.close()
		return nil, 0, err
	}
	return sys, len(w.warm), nil
}

func (w *estimateScale) next(i int64) request { return scaleRequest(w.seed, i, false) }

func (w *estimateScale) check(i int64, body []byte) error {
	if !json.Valid(body) {
		return fmt.Errorf("response does not decode")
	}
	if i%scaleCheckEvery == 0 || i == w.accIdx {
		w.mu.Lock()
		w.got[i] = bytes.Clone(body)
		w.mu.Unlock()
	}
	return nil
}

// verify re-derives every sampled makespan with a direct estimator run
// on the same spec: the service must answer exactly what the library
// computes.
func (w *estimateScale) verify(scrape) error {
	for i, body := range w.got {
		if i%scaleCheckEvery != 0 {
			continue
		}
		served, err := makespanOf(body)
		if err != nil {
			return err
		}
		s, err := scenarioOf(w.next(i).scenario)
		if err != nil {
			return err
		}
		plan, err := s.estimate(s.boeTimer(), nil)
		if err != nil {
			return err
		}
		if direct := plan.Makespan.Seconds(); served != direct {
			return fmt.Errorf("request %d: served makespan %vs, direct estimate %vs", i, served, direct)
		}
	}
	return nil
}

func (w *estimateScale) accuracy() (float64, error) {
	body, ok := w.got[w.accIdx]
	if !ok {
		return 0, fmt.Errorf("accuracy: sample request %d did not complete in the window", w.accIdx)
	}
	return accuracyPct([]*serve.EstimateRequest{w.next(w.accIdx).scenario}, [][]byte{body})
}

func (w *estimateScale) scenarios() []*serve.EstimateRequest {
	var out []*serve.EstimateRequest
	for i := int64(0); i < 4*int64(len(scaleShapes)); i++ { // four of each shape
		out = append(out, w.next(i).scenario)
	}
	return out
}
