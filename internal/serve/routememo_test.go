package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// servePrepared serves one request the way a fleet front end does:
// Prepare keys the body, then the server's handler answers the request
// Prepare returned.
func servePrepared(t *testing.T, s *Server, target string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
	_, lr, _ := s.Prepare(r, body)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, lr)
	return rec
}

// readGolden loads testdata/<name>.golden.<ext> without the -update
// rewrite: these tests only read the goldens the conformance suites own.
func readGolden(t *testing.T, name, ext string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name+".golden."+ext))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	return b
}

// memoCounts reads the route memo's hit and miss counters.
func memoCounts(s *Server) (hits, misses int64) {
	return s.Metrics().Counter("route_key_memo_hits").Value(), s.Metrics().Counter("route_key_memo_misses").Value()
}

// TestRouteKeyMemoCounters: a repeated body moves route_key_memo_hits by
// one, a new body moves route_key_memo_misses by one, and the memo's key
// is the key a server that never saw the body derives.
func TestRouteKeyMemoCounters(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	body := readRequest(t, "estimate_wc_ts")
	steps := []struct {
		path         string
		body         []byte
		hits, misses int64
	}{
		{"/v1/estimate", body, 0, 1},
		{"/v1/estimate", body, 1, 1},
		{"/v1/explain", body, 1, 2}, // the path is part of the identity
		{"/v1/estimate", readRequest(t, "estimate_options"), 1, 3},
		{"/v1/explain", body, 2, 3},
		{"/v1/estimate", readRequest(t, "estimate_bad_json"), 2, 4}, // never remembered
		{"/v1/estimate", readRequest(t, "estimate_bad_json"), 2, 5},
	}
	for i, st := range steps {
		key, ok := s.RouteKey(st.path, st.body)
		fresh, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		wantKey, wantOK := fresh.RouteKey(st.path, st.body)
		if key != wantKey || ok != wantOK {
			t.Errorf("step %d: key %q %v, a fresh server's %q %v", i, key, ok, wantKey, wantOK)
		}
		if hits, misses := memoCounts(s); hits != st.hits || misses != st.misses {
			t.Errorf("step %d: hits %d misses %d, want %d %d", i, hits, misses, st.hits, st.misses)
		}
	}
}

// TestRouteMemoBound: the memo never holds more entries than the
// response cache's bound, and a body it dropped keys as before.
func TestRouteMemoBound(t *testing.T) {
	s, err := New(Config{CacheMaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	flows := []string{"wc", "ts", "tsc", "wc+ts", "q5"}
	keys := map[string]string{}
	for round := 0; round < 2; round++ {
		for _, flow := range flows {
			key, ok := s.RouteKey("/v1/estimate", []byte(`{"workflow":"`+flow+`"}`))
			if !ok {
				t.Fatalf("%s did not key", flow)
			}
			if prev, seen := keys[flow]; seen && prev != key {
				t.Errorf("%s: key %q, earlier %q", flow, key, prev)
			}
			keys[flow] = key
			if n := len(s.routes.m); n > 2 {
				t.Fatalf("memo holds %d entries, bound 2", n)
			}
		}
	}
}

// TestMemoHitAfterEviction: a body the memo remembers but whose response
// the bounded cache evicted decodes again and recomputes the golden
// bytes, on every sharded endpoint.
func TestMemoHitAfterEviction(t *testing.T) {
	cases := []struct{ name, path, computed string }{
		{"estimate_wc_ts", "/v1/estimate", "estimates_computed"},
		{"explain_wc_ts", "/v1/explain", "explains_computed"},
		{"schedule_flat", "/v1/schedule", "schedules_computed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{CacheMaxEntries: 1})
			if err != nil {
				t.Fatal(err)
			}
			body := readRequest(t, tc.name)
			want := readGolden(t, tc.name, "json")
			if rec := servePrepared(t, s, tc.path, body); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("first answer diverged from golden:\n%s", rec.Body.Bytes())
			}
			// Another scenario takes the response cache's only line; the
			// single-node handler leaves the route memo alone.
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate",
				bytes.NewReader(readRequest(t, "estimate_options"))))
			if rec.Code != http.StatusOK {
				t.Fatalf("evicting request: %d %s", rec.Code, rec.Body.Bytes())
			}
			computed := s.Metrics().Counter(tc.computed)
			before := computed.Value()
			hits, _ := memoCounts(s)
			if rec := servePrepared(t, s, tc.path, body); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("recomputed answer diverged from golden:\n%s", rec.Body.Bytes())
			}
			if h, _ := memoCounts(s); h != hits+1 {
				t.Errorf("memo hits %d → %d, want one more", hits, h)
			}
			if v := computed.Value(); v != before+1 {
				t.Errorf("%s %d → %d, want one recompute", tc.computed, before, v)
			}
		})
	}
}

// TestStreamAfterMemo: a stream=1 request for a body the memo already
// holds still runs the estimator and streams the SSE golden frames.
func TestStreamAfterMemo(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	body := readRequest(t, "stream_wc_ts")
	if rec := servePrepared(t, s, "/v1/estimate", body); rec.Code != http.StatusOK {
		t.Fatalf("estimate: %d %s", rec.Code, rec.Body.Bytes())
	}
	if rec := servePrepared(t, s, "/v1/estimate", body); rec.Code != http.StatusOK {
		t.Fatalf("estimate: %d %s", rec.Code, rec.Body.Bytes())
	}
	if hits, _ := memoCounts(s); hits != 1 {
		t.Fatalf("memo hits %d, want 1", hits)
	}
	want := readGolden(t, "stream_wc_ts", "sse")
	for i := 0; i < 2; i++ {
		rec := servePrepared(t, s, "/v1/estimate?stream=1", body)
		if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
			t.Errorf("stream %d: Content-Type %q", i, ct)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("stream %d diverged from golden:\n%s", i, rec.Body.Bytes())
		}
	}
}

// TestPrepareConcurrent prepares and serves identical and distinct
// bodies from many goroutines (run under -race) with memo and response
// cache bounds small enough to evict while others read: every key
// matches a fresh server's and every answer matches a solo server's.
func TestPrepareConcurrent(t *testing.T) {
	s, err := New(Config{CacheMaxEntries: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	type req struct {
		path string
		body []byte
	}
	var reqs []req
	for _, flow := range []string{"wc", "ts", "wc+ts"} {
		body := []byte(fmt.Sprintf(`{"workflow":%q}`, flow))
		reqs = append(reqs, req{"/v1/estimate", body}, req{"/v1/explain", body})
	}
	reqs = append(reqs, req{"/v1/schedule", readRequest(t, "schedule_flat")})
	wantKey := make([]string, len(reqs))
	want := make([][]byte, len(reqs))
	for i, r := range reqs {
		wantKey[i], _ = solo.RouteKey(r.path, r.body)
		rec := httptest.NewRecorder()
		solo.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)))
		want[i] = rec.Body.Bytes()
	}
	const goroutines, rounds = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds*len(reqs))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds*len(reqs); k++ {
				i := (g + k) % len(reqs)
				r := httptest.NewRequest(http.MethodPost, reqs[i].path, bytes.NewReader(reqs[i].body))
				key, lr, ok := s.Prepare(r, reqs[i].body)
				if !ok || key != wantKey[i] {
					errs <- fmt.Errorf("%s %s: key %q %v, want %q", reqs[i].path, reqs[i].body, key, ok, wantKey[i])
					continue
				}
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, lr)
				if !bytes.Equal(rec.Body.Bytes(), want[i]) {
					errs <- fmt.Errorf("%s %s: answer diverged from a solo server's", reqs[i].path, reqs[i].body)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if hits, _ := memoCounts(s); hits == 0 {
		t.Error("no memo hits across repeated bodies")
	}
}
