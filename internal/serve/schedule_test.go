package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"boedag/internal/cluster"
)

// The /v1/schedule contract rides the same conformance machinery as the
// estimate endpoints: canned requests in testdata, byte-pinned goldens
// (regenerate with -update), typed errors, and the shared admission/
// drain/timeout middleware exercised under -race.

func TestScheduleConformance(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	cases := []struct {
		name     string
		status   int
		wantCode string
	}{
		{"schedule_flat", http.StatusOK, ""},
		{"schedule_hierarchy", http.StatusOK, ""},
		{"schedule_reject", http.StatusOK, ""},
		{"schedule_bad_queue", http.StatusBadRequest, CodeBadRequest},
		{"schedule_bad_policy", http.StatusBadRequest, CodeBadRequest},
		{"schedule_empty", http.StatusBadRequest, CodeBadRequest},
		{"schedule_dup_job", http.StatusBadRequest, CodeBadRequest},
		{"schedule_negative_quota", http.StatusBadRequest, CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body, hdr := post(t, ts.URL+"/v1/schedule", readRequest(t, tc.name))
			if status != tc.status {
				t.Fatalf("status = %d, want %d; body: %s", status, tc.status, body)
			}
			if ct := hdr.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			if tc.wantCode != "" {
				var env errorEnvelope
				if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
					t.Fatalf("error body does not parse: %s", body)
				}
				if env.Error.Code != tc.wantCode {
					t.Errorf("error code = %q, want %q", env.Error.Code, tc.wantCode)
				}
			}
			checkGolden(t, tc.name, body)
		})
	}
}

// TestScheduleMatchesLibrary ties the wire numbers to the library: the
// served response must equal a direct RunStream replay field for field.
// The replay depends on the serving cluster, so the shard and cache key
// does too.
func TestScheduleMatchesLibrary(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	raw := readRequest(t, "schedule_hierarchy")
	status, body, _ := post(t, ts.URL+"/v1/schedule", raw)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	var got ScheduleResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("parse: %v", err)
	}
	req, apiErr := DecodeScheduleRequest(bytes.NewReader(raw))
	if apiErr != nil {
		t.Fatalf("decode: %v", apiErr)
	}
	want, err := marshalBody(scheduleResponse(req.policy.String(), req.replay(Config{}.withDefaults().Spec)))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("served bytes diverge from library replay:\ngot:\n%s\nwant:\n%s", body, want)
	}
	if got.Preemptions == 0 {
		t.Error("hierarchy fixture reclaimed nothing — quota preemption is not reaching the wire")
	}
	small := cluster.PaperCluster()
	small.Nodes = 4
	other, err := New(Config{Spec: small})
	if err != nil {
		t.Fatal(err)
	}
	key, ok := s.RouteKey("/v1/schedule", raw)
	otherKey, otherOK := other.RouteKey("/v1/schedule", raw)
	if !ok || !otherOK || key == otherKey {
		t.Errorf("same body on a %d- and a %d-node cluster keyed %q (%v) and %q (%v), want two distinct keys",
			s.cfg.Spec.Nodes, small.Nodes, key, ok, otherKey, otherOK)
	}
}

// TestScheduleRejectionsOnWire pins the 503-style admission refusal: the
// response carries the machine-readable rejection reason while the HTTP
// status stays 200 (the replay succeeded; the job was refused).
func TestScheduleRejectionsOnWire(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body, _ := post(t, ts.URL+"/v1/schedule", readRequest(t, "schedule_reject"))
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	var got ScheduleResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got.Rejected == 0 || len(got.Rejections) == 0 {
		t.Fatalf("no rejection surfaced: %s", body)
	}
	rej := got.Rejections[0]
	if rej.Code != http.StatusServiceUnavailable {
		t.Errorf("rejection code = %d, want 503", rej.Code)
	}
	if rej.Reason == "" || rej.Detail == "" {
		t.Errorf("rejection missing reason/detail: %+v", rej)
	}
	for _, j := range got.Jobs {
		if j.Rejected && (j.Reason == "" || j.FinishS != j.SubmitS) {
			t.Errorf("rejected job %s: reason %q, finish_s %v (want the rejection instant %v)",
				j.ID, j.Reason, j.FinishS, j.SubmitS)
		}
	}
}

// TestScheduleConcurrent hammers /v1/schedule from many goroutines under
// -race: identical and distinct requests interleave and every response
// must be well-formed with deterministic bytes per request body.
func TestScheduleConcurrent(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	bodies := [][]byte{
		readRequest(t, "schedule_flat"),
		readRequest(t, "schedule_hierarchy"),
		readRequest(t, "schedule_reject"),
	}
	first := make([][]byte, len(bodies))
	for i, b := range bodies {
		status, resp, _ := post(t, ts.URL+"/v1/schedule", b)
		if status != http.StatusOK {
			t.Fatalf("seed request %d: status %d", i, status)
		}
		first[i] = resp
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				i := (g + k) % len(bodies)
				status, resp, _, err := tryPost(ts.URL+"/v1/schedule", bodies[i])
				if err != nil || status != http.StatusOK {
					errs <- "request failed"
					return
				}
				if !bytes.Equal(resp, first[i]) {
					errs <- "nondeterministic response bytes"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	// Identical bodies are answered from the response cache: each distinct
	// body replays once, every repeat coalesces onto its cached bytes.
	if got := counter(t, s, "schedules_computed"); got != int64(len(bodies)) {
		t.Errorf("schedules_computed = %d, want %d (one per distinct body)", got, len(bodies))
	}
	if got := counter(t, s, "estimates_coalesced"); got != 8*8 {
		t.Errorf("estimates_coalesced = %d, want %d", got, 8*8)
	}
}

// TestScheduleTimeout drives the per-request deadline through the test
// seam: a schedule replay that outlives its budget answers 504/timeout.
func TestScheduleTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestTimeout: 50 * time.Millisecond})
	s.testHookEstimate = func() { time.Sleep(100 * time.Millisecond) }
	status, body, _ := post(t, ts.URL+"/v1/schedule", readRequest(t, "schedule_flat"))
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body: %s", status, body)
	}
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil || env.Error.Code != CodeTimeout {
		t.Errorf("error body = %s", body)
	}
}

// TestScheduleDraining verifies the shared drain gate covers the new
// endpoint: once Shutdown starts, /v1/schedule refuses with 503/draining.
func TestScheduleDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	status, body, hdr := post(t, ts.URL+"/v1/schedule", readRequest(t, "schedule_flat"))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body: %s", status, body)
	}
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil || env.Error.Code != CodeDraining {
		t.Errorf("error body = %s", body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// FuzzDecodeScheduleRequest holds the schedule decoder's safety line,
// seeded from the canned schedule requests plus adversarial shapes.
func FuzzDecodeScheduleRequest(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "schedule_*.req.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed corpus: %v", err)
	}
	for _, path := range seeds {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`{"jobs":[{"id":"a","work_slot_s":1e308,"submit_s":1e308}]}`))
	f.Add([]byte(`{"jobs":[{"id":"a","work_slot_s":1}],"queues":[{"name":"q","parent":"q"}]}`))
	f.Add([]byte(`{"jobs":[{"id":"a","work_slot_s":1}]}{"jobs":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, apiErr := DecodeScheduleRequest(bytes.NewReader(data))
		switch {
		case req == nil && apiErr == nil:
			t.Fatal("neither request nor error returned")
		case req != nil && apiErr != nil:
			t.Fatal("both request and error returned")
		case apiErr != nil:
			if apiErr.Status < 400 || apiErr.Status > 599 {
				t.Fatalf("error status %d out of range", apiErr.Status)
			}
			if apiErr.Code == "" || apiErr.Message == "" {
				t.Fatalf("untyped error: %+v", apiErr)
			}
			if _, err := json.Marshal(errorEnvelope{Error: apiErr}); err != nil {
				t.Fatalf("error envelope does not marshal: %v", err)
			}
		default:
			if len(req.Jobs) == 0 {
				t.Fatal("accepted request with no jobs")
			}
			for _, j := range req.Jobs {
				if j.Queue != "" && req.hierarchy == nil {
					t.Fatalf("accepted queue %q without hierarchy", j.Queue)
				}
			}
		}
	})
}
