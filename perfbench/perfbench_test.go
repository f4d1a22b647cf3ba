package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"boedag/internal/obs"
	"boedag/internal/serve"
	"boedag/internal/statemodel"
)

// generators lists each workload's request function, for the purity
// tests.
var generators = map[string]func(seed, i int64) request{
	"fleet-hot": func(seed, i int64) request {
		return hotBody(seed, hotIndex(seed, i))
	},
	"serve-cold": func(seed, i int64) request { return coldRequest(seed, i, false) },
	"serve-cold-snapshot": func(seed, i int64) request {
		return coldRequest(seed, i, true)
	},
	"estimate-scale": func(seed, i int64) request { return scaleRequest(seed, i, false) },
}

// TestRequestsArePure pins the generator contract: request i is a pure
// function of (workload, seed, i), every body passes the service's own
// strict decoders, and the seed matters.
func TestRequestsArePure(t *testing.T) {
	for name, gen := range generators {
		n := int64(200)
		if name == "estimate-scale" {
			n = 12
		}
		differs := false
		for i := int64(0); i < n; i++ {
			a, b := gen(7, i), gen(7, i)
			if a.path != b.path || !bytes.Equal(a.body, b.body) {
				t.Fatalf("%s: request %d differs between two calls", name, i)
			}
			if c := gen(8, i); !bytes.Equal(a.body, c.body) {
				differs = true
			}
			var err *serve.APIError
			if a.path == pathSchedule {
				_, err = serve.DecodeScheduleRequest(bytes.NewReader(a.body))
			} else {
				_, err = serve.DecodeEstimateRequest(bytes.NewReader(a.body))
			}
			if err != nil {
				t.Fatalf("%s: request %d (%s) rejected: %v", name, i, a.path, err)
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 issue identical requests", name)
		}
	}
}

// TestServeColdKeysDisjoint checks that serve-cold's measured requests
// all have distinct cache keys and that none is in the snapshot.
func TestServeColdKeysDisjoint(t *testing.T) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	keyOf := func(r request) string {
		k, ok := srv.RouteKey(r.path, r.body)
		if !ok {
			t.Fatalf("no route key for %s %s", r.path, r.body)
		}
		if r.path == pathExplain {
			k = "explain|" + k // the cache's explain namespace
		}
		return k
	}
	snapshot := map[string]bool{}
	for j := int64(0); j < coldCapacity; j++ {
		snapshot[keyOf(coldRequest(1, j, true))] = true
	}
	if len(snapshot) != coldCapacity {
		t.Fatalf("snapshot traffic has %d distinct keys, want %d", len(snapshot), coldCapacity)
	}
	measured := map[string]bool{}
	for i := int64(0); i < 20000; i++ {
		r := coldRequest(1, i, false)
		if r.path == pathSchedule {
			continue
		}
		k := keyOf(r)
		if snapshot[k] {
			t.Fatalf("measured request %d's key is in the snapshot", i)
		}
		if measured[k] {
			t.Fatalf("measured request %d repeats an earlier key", i)
		}
		measured[k] = true
	}
}

// TestFleetHotSetupCachesEverything boots fleet-hot as a run does and
// checks that a window after it computes no estimate or explain.
func TestFleetHotSetupCachesEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a fleet and answers 2 500 requests")
	}
	b := &bench{seed: 3, dir: t.TempDir()}
	w := &fleetHot{seed: b.seed}
	if err := w.prepare(b); err != nil {
		t.Fatal(err)
	}
	sys, n, err := w.boot(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	if n != hotWorkingSet {
		t.Errorf("set-up issued %d requests, want %d", n, hotWorkingSet)
	}
	win, err := measureWindow(sys, w, 500*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := win.counters
	if win.failed != 0 || win.ok() == 0 {
		t.Fatalf("window: %d ok, %d failed, first error %v", win.ok(), win.failed, win.firstErr)
	}
	if err := w.verify(d); err != nil {
		t.Fatal(err)
	}
	if d["estimate_cache_hits"] == 0 || d["estimate_cache_misses"] != 0 {
		t.Errorf("window cache hits %v, misses %v; want only hits", d["estimate_cache_hits"], d["estimate_cache_misses"])
	}
}

// TestTimedTimerIsTransparent checks that the traced run's timing
// TaskTimer changes nothing: plans are byte-identical to the bare
// BOETimer's, with the same dist solves, and it counts each solve.
func TestTimedTimerIsTransparent(t *testing.T) {
	scs := []*serve.EstimateRequest{
		hotBody(1, 0).scenario,
		coldRequest(1, 0, false).scenario,
		{Workflow: "wc+q21", Options: serve.EstimateOptions{Mode: "normal", PerNode: 4}},
		scaleRequest(1, 0, false).scenario,
	}
	for _, sc := range scs {
		s, err := scenarioOf(sc)
		if err != nil {
			t.Fatal(err)
		}
		// Fresh scratches: a pooled one would carry the first run's
		// dist cache into the second.
		run := func(timer statemodel.TaskTimer, reg *obs.Registry) *statemodel.Plan {
			opt := s.opt
			opt.Observe.Metrics = reg
			plan, err := statemodel.New(s.cfg.Spec, timer, opt).EstimateWith(statemodel.NewScratch(), s.flow)
			if err != nil {
				t.Fatal(err)
			}
			return plan
		}
		bareReg, timedReg := obs.NewRegistry(), obs.NewRegistry()
		bare := run(s.boeTimer(), bareReg)
		tt := &timedTimer{inner: s.boeTimer()}
		timed := run(tt, timedReg)
		bj, _ := json.Marshal(bare)
		tj, _ := json.Marshal(timed)
		if !bytes.Equal(bj, tj) {
			t.Errorf("%s: timed plan differs from the bare BOETimer's", s.flow.Name)
		}
		solves := bareReg.Counter("est_dist_solves").Value()
		if got := timedReg.Counter("est_dist_solves").Value(); got != solves {
			t.Errorf("%s: est_dist_solves %d with the timing timer, %d bare", s.flow.Name, got, solves)
		}
		if tt.calls != solves {
			t.Errorf("%s: timing timer saw %d solves, est_dist_solves is %d", s.flow.Name, tt.calls, solves)
		}
	}
}
