package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"

	"boedag/internal/explain"
)

// TestExplainCoalescing: N identical concurrent /v1/explain requests run
// the explanation exactly once and share the same bytes.
func TestExplainCoalescing(t *testing.T) {
	const n = 16
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{MaxConcurrent: n, QueueDepth: n})
	s.testHookEstimate = func() { <-release }

	body := readRequest(t, "explain_wc_ts")
	var wg sync.WaitGroup
	statuses := make([]int, n)
	bodies := make([][]byte, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], bodies[i], _, errs[i] = tryPost(ts.URL+"/v1/explain", body)
		}(i)
	}
	pollUntil(t, "all requests in the cache", func() bool {
		hits, misses := s.CacheStats()
		return hits+misses == n
	})
	close(release)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d observed different bytes than request 0", i)
		}
	}
	if got := counter(t, s, "explains_computed"); got != 1 {
		t.Errorf("explanation ran %d times, want exactly 1", got)
	}
	if got := counter(t, s, "estimates_coalesced"); got != n-1 {
		t.Errorf("estimates_coalesced = %d, want %d", got, n-1)
	}
}

// TestExplainMatchesLibrary ties the wire bytes to the library: the
// served explanation must be byte-identical to a direct explain.Explain
// run of the same scenario (plus the response newline framing), and its
// critical path must telescope from 0 to the makespan on the wire.
func TestExplainMatchesLibrary(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	status, body, _ := post(t, ts.URL+"/v1/explain", readRequest(t, "explain_wc_ts"))
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}

	req, apiErr := DecodeEstimateRequest(bytes.NewReader(readRequest(t, "explain_wc_ts")))
	if apiErr != nil {
		t.Fatalf("decode: %v", apiErr)
	}
	flow, est, apiErr := s.scenario(req)
	if apiErr != nil {
		t.Fatalf("scenario: %v", apiErr)
	}
	e, err := explain.Explain(t.Context(), est, flow, explain.Options{Workers: 4})
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	want, err := marshalBody(e)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("served explanation diverges from the library:\ngot:\n%s\nwant:\n%s", body, want)
	}

	var got explain.Explanation
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(got.CriticalPath) == 0 || len(got.Sensitivity) != 4 {
		t.Fatalf("explanation shape: %d intervals, %d sensitivity rows",
			len(got.CriticalPath), len(got.Sensitivity))
	}
	if got.CriticalPath[0].StartS != 0 {
		t.Errorf("critical path starts at %v, want 0", got.CriticalPath[0].StartS)
	}
	if last := got.CriticalPath[len(got.CriticalPath)-1]; last.EndS != got.MakespanS {
		t.Errorf("critical path ends at %v, want makespan %v", last.EndS, got.MakespanS)
	}
	for i := 1; i < len(got.CriticalPath); i++ {
		if got.CriticalPath[i].StartS != got.CriticalPath[i-1].EndS {
			t.Errorf("wire gap before interval %d", i)
		}
	}
}

// TestExplainRepeatHitsResponseCache: a repeated explanation is answered
// from the response cache, so the explanation runs once and the second
// request is a cache hit.
func TestExplainRepeatHitsResponseCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	body := readRequest(t, "explain_wc_ts")
	status, first, _ := post(t, ts.URL+"/v1/explain", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, first)
	}
	hits0 := counter(t, s, "estimate_cache_hits")
	status, again, _ := post(t, ts.URL+"/v1/explain", body)
	if status != http.StatusOK {
		t.Fatalf("repeat: status %d: %s", status, again)
	}
	if !bytes.Equal(again, first) {
		t.Error("repeat explanation's bytes differ from the first")
	}
	if got := counter(t, s, "estimate_cache_hits"); got != hits0+1 {
		t.Errorf("estimate_cache_hits %d -> %d, want +1", hits0, got)
	}
	if got := counter(t, s, "explains_computed"); got != 1 {
		t.Errorf("explains_computed = %d, want 1", got)
	}
}

// TestExplainBoundedMatchesUnbounded: evicting explanations from a
// bounded response cache changes no response byte.
func TestExplainBoundedMatchesUnbounded(t *testing.T) {
	const bound = 3
	_, ts := newTestServer(t, Config{Workers: 2, CacheMaxEntries: bound})
	_, unbounded := newTestServer(t, Config{Workers: 2, CacheMaxEntries: -1})
	for gb := 1; gb <= bound+1; gb++ {
		body := []byte(fmt.Sprintf(`{"workflow": "wc+ts", "options": {"micro_gb": %d}}`, gb))
		status, got, _ := post(t, ts.URL+"/v1/explain", body)
		if status != http.StatusOK {
			t.Fatalf("micro_gb %d: status %d: %s", gb, status, got)
		}
		if _, want, _ := post(t, unbounded.URL+"/v1/explain", body); !bytes.Equal(got, want) {
			t.Errorf("micro_gb %d: bounded server's explanation diverges from the unbounded one's", gb)
		}
	}
}

// maxScanPerExplain bounds the scannable heap one distinct explanation
// leaves behind in a server whose response cache holds it. The cache
// entry and the route memo entry cost about 200 bytes (the response
// bytes themselves hold no pointers); keeping the explanation's base and
// θ-perturbed plans as well costs about 2.7 KB.
const maxScanPerExplain = 1 << 10

// TestExplainRetainsNoPlans: serving distinct explanations grows the
// scannable heap by what the response cache and the route memo keep,
// not by the estimator plans behind each response. It reads the
// process-wide heap, so it must not run in parallel with other tests.
func TestExplainRetainsNoPlans(t *testing.T) {
	const n = 1024
	explainOnce := func(h http.Handler, gb int) {
		t.Helper()
		body := fmt.Sprintf(`{"workflow": "wc+ts", "options": {"micro_gb": %d}}`, gb)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/explain", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("micro_gb %d: status %d: %s", gb, rec.Code, rec.Body.Bytes())
		}
	}
	// A throwaway server first, so one-time process set-up is not counted.
	warm, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	explainOnce(warm.Handler(), n+1)

	s, err := New(Config{Workers: 2, CacheMaxEntries: n})
	if err != nil {
		t.Fatal(err)
	}
	before := scannableHeap()
	for gb := 1; gb <= n; gb++ {
		explainOnce(s.Handler(), gb)
	}
	after := scannableHeap()
	runtime.KeepAlive(s)
	per := (int64(after) - int64(before)) / n
	t.Logf("scannable heap %d -> %d bytes: %d bytes per explanation", before, after, per)
	if per > maxScanPerExplain {
		t.Errorf("each explanation leaves %d scannable bytes, want at most %d: is the server keeping plans?", per, maxScanPerExplain)
	}
}

// scannableHeap collects twice, so pooled objects are gone too, and
// returns the scannable heap the collector measured.
func scannableHeap() uint64 {
	runtime.GC()
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}
