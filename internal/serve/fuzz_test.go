package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzDecodeEstimateRequest holds the decoder's safety line: whatever the
// bytes, it never panics, and it either returns a fully validated request
// or a well-formed typed error — never both, never neither. The canned
// request bodies in testdata double as the seed corpus, so the fuzzer
// starts from every shape the conformance suite exercises.
func FuzzDecodeEstimateRequest(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "*.req.json"))
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
	// Hand-picked seeds for shapes the corpus misses.
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`{"workflow":"wc","options":{"micro_gb":-1}}`))
	f.Add([]byte(`{"workflow":"wc","spec":null}`))
	f.Add([]byte(`{"workflow":"wc"}{"workflow":"ts"}`))
	f.Add([]byte(`{"cluster":{"Nodes":0},"workflow":"wc"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, apiErr := DecodeEstimateRequest(bytes.NewReader(data))
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
			// The envelope must always marshal: the handler path depends on it.
			if _, err := json.Marshal(errorEnvelope{Error: apiErr}); err != nil {
				t.Fatalf("error envelope does not marshal: %v", err)
			}
		default:
			// Accepted requests uphold the documented invariants.
			hasSpec := len(req.Spec) > 0 && !bytes.Equal(req.Spec, []byte("null"))
			if (req.Workflow == "") == !hasSpec {
				t.Fatalf("accepted request violates exactly-one-of: %+v", req)
			}
			if hasSpec && req.flow == nil {
				t.Fatal("inline spec accepted but not parsed")
			}
			if req.Options.MicroGB < 0 || req.Options.TPCHScale < 0 ||
				req.Options.PerNode < 0 || req.Options.TimeoutMS < 0 {
				t.Fatalf("accepted request with negative option: %+v", req.Options)
			}
		}
	})
}

// FuzzDecodeEstimateRequest catches panics; this companion pins the two
// strictness guarantees on crafted inputs, where the fuzzer only checks
// "no crash".
func TestDecodeStrictness(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"unknown_top_level_field", `{"workflow":"wc","bogus":1}`},
		{"unknown_option_field", `{"workflow":"wc","options":{"p99":true}}`},
		{"trailing_garbage", `{"workflow":"wc"} tail`},
		{"second_json_value", `{"workflow":"wc"}{"workflow":"ts"}`},
		{"bare_array", `[1,2,3]`},
		{"unknown_spec_field", `{"spec":{"name":"x","jobs":[{"id":"a","input_mb":1,"bogus":2}]}}`},
		{"unknown_cluster_field", `{"workflow":"wc","cluster":{"Nodes":1,"Bogus":2}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, apiErr := DecodeEstimateRequest(strings.NewReader(tc.body))
			if apiErr == nil {
				t.Fatalf("accepted %q as %+v", tc.body, req)
			}
			if apiErr.Code != CodeBadRequest {
				t.Errorf("code = %q, want %q", apiErr.Code, CodeBadRequest)
			}
		})
	}
}

// FuzzRouteKeyAgreement holds the fleet's routing contract against the
// handler: on every sharded endpoint a body gets a shard key exactly when
// the local handler answers it 200. A keyed body may also time out under
// its own timeout_ms; an unkeyed one always answers with a 4xx that any
// node would give. A second RouteKey of the body on the same server — a
// route-memo hit when it keyed — agrees with a fresh server's. Seeded
// from the canned requests, each on every path.
func FuzzRouteKeyAgreement(f *testing.F) {
	paths := []string{"/v1/estimate", "/v1/explain", "/v1/schedule"}
	seeds, err := filepath.Glob(filepath.Join("testdata", "*.req.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed corpus: %v", err)
	}
	for _, path := range seeds {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for i := range paths {
			f.Add(uint8(i), b)
		}
	}
	s, err := New(Config{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()

	f.Fuzz(func(t *testing.T, p uint8, body []byte) {
		path := paths[int(p)%len(paths)]
		key, keyed := s.RouteKey(path, body)
		again, againKeyed := s.RouteKey(path, body)
		fresh, err := New(Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if want, wantKeyed := fresh.RouteKey(path, body); key != want || again != want || keyed != wantKeyed || againKeyed != wantKeyed {
			t.Fatalf("%s: keys %q %v then %q %v, a fresh server's %q %v", path, key, keyed, again, againKeyed, want, wantKeyed)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch {
		case keyed && rec.Code == http.StatusGatewayTimeout:
		case keyed != (rec.Code == http.StatusOK):
			t.Fatalf("%s: keyed %v but the handler answered %d: %s", path, keyed, rec.Code, rec.Body.Bytes())
		case !keyed && rec.Code >= 500:
			t.Fatalf("%s: unkeyed body answered %d: %s", path, rec.Code, rec.Body.Bytes())
		}
	})
}
