package serve

import (
	"encoding/json"
	"net/http"
	"runtime"
	"sync"
	"testing"

	"boedag/internal/obs"
)

// The telemetry suite pins the observability surface this service
// exports: per-endpoint latency histograms, request/phase trace spans,
// coalescing metrics, the /version build endpoint, and the pprof gate.

func TestPerRouteLatencyHistograms(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	get(t, ts.URL+"/healthz")
	get(t, ts.URL+"/healthz")
	post(t, ts.URL+"/v1/estimate", readRequest(t, "estimate_wc_ts"))

	reg := s.Metrics()
	if got := reg.Histogram("request_duration_s{route=/healthz}").Count(); got != 2 {
		t.Errorf("healthz route histogram count = %d, want 2", got)
	}
	if got := reg.Histogram("request_duration_s{route=/v1/estimate}").Count(); got != 1 {
		t.Errorf("estimate route histogram count = %d, want 1", got)
	}
	if got := reg.Histogram("request_duration_s").Count(); got != 3 {
		t.Errorf("aggregate histogram count = %d, want 3", got)
	}
}

// TestRequestPhaseEvents checks that one served estimate emits an
// EvRequest span plus decode/estimate/encode EvRequestPhase children,
// all carrying the same request ordinal so trace exporters can nest
// them.
func TestRequestPhaseEvents(t *testing.T) {
	rec := obs.NewRecorder()
	_, ts := newTestServer(t, Config{Workers: 2,
		Observe: obs.Options{Tracer: rec}})
	status, _, _ := post(t, ts.URL+"/v1/estimate", readRequest(t, "estimate_wc_ts"))
	if status != http.StatusOK {
		t.Fatalf("estimate status = %d", status)
	}

	reqs := rec.ByType(obs.EvRequest)
	if len(reqs) != 1 {
		t.Fatalf("recorded %d EvRequest events, want 1", len(reqs))
	}
	req := reqs[0]
	if req.Seq < 1 {
		t.Errorf("request ordinal = %d, want ≥ 1", req.Seq)
	}
	if req.Detail != "POST /v1/estimate" || req.Value != http.StatusOK {
		t.Errorf("request span = %+v", req)
	}
	phases := make(map[string]int)
	for _, ev := range rec.ByType(obs.EvRequestPhase) {
		if ev.Seq != req.Seq {
			t.Errorf("phase %q ordinal = %d, want the request's %d", ev.Detail, ev.Seq, req.Seq)
		}
		if ev.Dur < 0 {
			t.Errorf("phase %q duration = %v", ev.Detail, ev.Dur)
		}
		phases[ev.Detail]++
	}
	for _, want := range []string{"decode", "estimate", "encode"} {
		if phases[want] != 1 {
			t.Errorf("phase %q recorded %d times, want 1 (got %v)", want, phases[want], phases)
		}
	}
}

// TestCoalescedRequestsRecorded pins the coalescing telemetry: of n
// identical requests exactly one computes, and every other one is
// counted in estimates_coalesced, observed by the coalesced_wait_s
// histogram, and traced as a coalesce-wait phase.
func TestCoalescedRequestsRecorded(t *testing.T) {
	const n = 16
	rec := obs.NewRecorder()
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{MaxConcurrent: n, QueueDepth: n,
		Observe: obs.Options{Tracer: rec}})
	s.testHookEstimate = func() { <-release }

	body := readRequest(t, "estimate_wc_ts")
	var wg sync.WaitGroup
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			if status, _, _, err := tryPost(ts.URL+"/v1/estimate", body); err != nil || status != http.StatusOK {
				t.Errorf("estimate: status %d, err %v", status, err)
			}
		}()
	}
	for i := 0; i < n; i++ {
		<-started
	}
	close(release)
	wg.Wait()

	reg := s.Metrics()
	if got := reg.Counter("estimates_computed").Value(); got != 1 {
		t.Errorf("estimates_computed = %d, want 1", got)
	}
	// Whether a request coalesced onto the in-flight computation or hit
	// the cache afterwards, it must be counted: exactly n-1 of them.
	if got := reg.Counter("estimates_coalesced").Value(); got != n-1 {
		t.Errorf("estimates_coalesced = %d, want %d", got, n-1)
	}
	if got := reg.Histogram("coalesced_wait_s").Count(); got != n-1 {
		t.Errorf("coalesced_wait_s count = %d, want %d", got, n-1)
	}
	var waits int
	for _, ev := range rec.ByType(obs.EvRequestPhase) {
		if ev.Detail == "coalesce-wait" {
			waits++
		}
	}
	if waits != n-1 {
		t.Errorf("coalesce-wait phase events = %d, want %d", waits, n-1)
	}
}

func TestVersionEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body, hdr := get(t, ts.URL+"/version")
	if status != http.StatusOK {
		t.Fatalf("GET /version = %d: %s", status, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var v VersionResponse
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decode: %v\n%s", err, body)
	}
	if v.Build.GoVersion != runtime.Version() {
		t.Errorf("go_version = %q, want %q", v.Build.GoVersion, runtime.Version())
	}
	if v.Build.GOMAXPROCS < 1 || v.Build.NumCPU < 1 {
		t.Errorf("procs = %d/%d", v.Build.GOMAXPROCS, v.Build.NumCPU)
	}
	if v.UptimeS < 0 {
		t.Errorf("uptime_s = %v", v.UptimeS)
	}
	if status, _, _, _ := tryPost(ts.URL+"/version", nil); status != http.StatusMethodNotAllowed {
		t.Errorf("POST /version = %d, want 405", status)
	}
}

func TestCurrentBuild(t *testing.T) {
	b := currentBuild()
	if b.GoVersion == "" || b.GOOS == "" || b.GOARCH == "" {
		t.Errorf("incomplete build info: %+v", b)
	}
	if b.GOMAXPROCS < 1 || b.NumCPU < 1 {
		t.Errorf("procs = %d/%d, want ≥ 1", b.GOMAXPROCS, b.NumCPU)
	}
}

// TestPprofGated: the profile endpoints exist only when EnablePprof is
// set — they bypass admission control, so off must mean absent.
func TestPprofGated(t *testing.T) {
	_, off := newTestServer(t, Config{})
	if status, _, _ := get(t, off.URL+"/debug/pprof/"); status != http.StatusNotFound {
		t.Errorf("pprof without EnablePprof = %d, want 404", status)
	}
	_, on := newTestServer(t, Config{EnablePprof: true})
	if status, body, _ := get(t, on.URL+"/debug/pprof/"); status != http.StatusOK || len(body) == 0 {
		t.Errorf("pprof index with EnablePprof = %d (%d bytes), want 200", status, len(body))
	}
}
