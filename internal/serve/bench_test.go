package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"boedag/internal/dag"
	"boedag/internal/synthdag"
)

// BenchmarkEstimateLayered is one cache-missing /v1/estimate of an
// inline 100–250-job layered DAG through the handler: decode, estimate
// and encode, no network. The 100 bodies cycle the five benchmark
// shapes × three skew modes over distinct seeds, and a one-entry cache
// keeps every request a miss. Profile it with
//
//	go test ./internal/serve -run '^$' -bench EstimateLayered -benchtime 100x -cpuprofile cpu.out
//	go tool pprof -top cpu.out
func BenchmarkEstimateLayered(b *testing.B) {
	shapes := [][2]int{{10, 10}, {16, 10}, {12, 12}, {8, 16}, {25, 10}}
	modes := []string{"mean", "median", "normal"}
	bodies := make([][]byte, 100)
	for i := range bodies {
		shape := shapes[i%len(shapes)]
		flow := synthdag.Generate(synthdag.Config{Layers: shape[0], Width: shape[1], FanIn: 3, Seed: int64(i + 1)})
		var spec bytes.Buffer
		if err := dag.SaveWorkflow(&spec, flow); err != nil {
			b.Fatal(err)
		}
		body, err := json.Marshal(EstimateRequest{
			Spec:    spec.Bytes(),
			Options: EstimateOptions{Mode: modes[i%len(modes)]},
		})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	s, err := New(Config{Workers: 1, CacheMaxEntries: 1})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(bodies[i%len(bodies)])))
		if rec.Code != http.StatusOK {
			b.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
		}
	}
}

// BenchmarkExplainDistinct is one cache-missing /v1/explain through the
// handler: decode, the base estimate and its four θ-perturbed re-runs,
// and encode. Every body is distinct (wc+ts at micro_gb 8 + i/1024), so
// each request misses the 1,024-entry response cache and, once it is
// full, evicts; whatever a request leaves behind accumulates up to that
// bound and shows in the collector's share of ns/op.
func BenchmarkExplainDistinct(b *testing.B) {
	s, err := New(Config{Workers: 1, CacheMaxEntries: 1024})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"workflow": "wc+ts", "options": {"micro_gb": %g}}`, 8+float64(i)/1024)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/explain", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
		}
	}
}
