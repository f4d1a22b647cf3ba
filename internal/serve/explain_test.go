package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
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

// TestExplainReusesPlanCache: explaining two scenarios that share θ
// perturbations only re-runs what is new, and a repeat explanation of
// the first scenario (after the response cache is bypassed with a
// distinct-but-equivalent request) hits the plan cache.
func TestExplainPlanCacheAcrossRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	body := readRequest(t, "explain_wc_ts")
	if status, b, _ := post(t, ts.URL+"/v1/explain", body); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, b)
	}
	hits0, misses0 := s.plans.Stats()
	if misses0 == 0 {
		t.Fatal("first explanation did not populate the plan cache")
	}
	// The same scenario again: the response cache answers, the plan cache
	// sees nothing new.
	if status, b, _ := post(t, ts.URL+"/v1/explain", body); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, b)
	}
	if hits, misses := s.plans.Stats(); hits != hits0 || misses != misses0 {
		t.Errorf("repeat explanation touched the plan cache: %d/%d -> %d/%d",
			hits0, misses0, hits, misses)
	}
}

// TestExplainPlanCacheBounded: the plan cache shares the response cache's
// size bound, so explaining more distinct scenarios than the bound keeps
// at most that many plans — and evicting plans changes no response byte.
func TestExplainPlanCacheBounded(t *testing.T) {
	const bound = 3
	s, ts := newTestServer(t, Config{Workers: 2, CacheMaxEntries: bound})
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
		if n := s.plans.Len(); n > bound {
			t.Errorf("after %d scenarios the plan cache holds %d plans, bound %d", gb, n, bound)
		}
	}
}
