package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tasks")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("tasks") != c {
		t.Error("Counter not idempotent")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("util")
	g.Set(0.75)
	if got := g.Value(); got != 0.75 {
		t.Errorf("gauge = %v, want 0.75", got)
	}
	g.Set(-1.5)
	if got := g.Value(); got != -1.5 {
		t.Errorf("gauge = %v, want -1.5", got)
	}
}

func TestHistogramStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("dur")
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram stats not zero")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Sum() != 10 {
		t.Errorf("sum = %v", h.Sum())
	}
	if h.Mean() != 2.5 {
		t.Errorf("mean = %v", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 4 {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
	// Quantiles are bucket-resolved: p50 of {1,2,3,4} lands in the bucket
	// holding 2, whose upper bound is ≤ max and ≥ min.
	p50 := h.Quantile(0.5)
	if p50 < 1 || p50 > 4 {
		t.Errorf("p50 = %v outside observed range", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < p50 || p99 > 4 {
		t.Errorf("p99 = %v (p50 %v)", p99, p50)
	}
}

func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Observe(0)   // below the first bound: clamps to bucket 0
	h.Observe(1e9) // beyond the last bound: clamps to the overflow bucket
	h.Observe(-3)  // negative observations stay finite
	if h.Count() != 3 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Min() != -3 || h.Max() != 1e9 {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
	if q := h.Quantile(1); q != 1e9 {
		t.Errorf("p100 = %v, want max", q)
	}
	// Bucket-resolved quantiles stay inside the observed range.
	if q := h.Quantile(0.01); q < h.Min() || q > h.Max() {
		t.Errorf("p1 = %v outside [%v, %v]", q, h.Min(), h.Max())
	}
}

func TestBucketMonotone(t *testing.T) {
	prev := -1
	for _, v := range []float64{0.0005, 0.001, 0.01, 0.1, 1, 10, 100, 1000, 1e5, 1e9} {
		b := bucketOf(v)
		if b < prev {
			t.Errorf("bucketOf(%v) = %d < previous %d", v, b, prev)
		}
		if b < 0 || b >= histBuckets {
			t.Errorf("bucketOf(%v) = %d out of range", v, b)
		}
		prev = b
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				h.Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 1000 {
		t.Errorf("count = %d, want 1000", h.Count())
	}
}

func TestRegistryWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("tasks_finished").Add(7)
	r.Gauge("util_cpu").Set(0.5)
	r.Histogram("task_duration_s").Observe(12.5)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Counters   map[string]int64   `json:"counters"`
		Gauges     map[string]float64 `json:"gauges"`
		Histograms map[string]struct {
			Count int64   `json:"count"`
			Mean  float64 `json:"mean"`
			P95   float64 `json:"p95"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Counters["tasks_finished"] != 7 {
		t.Errorf("counters = %v", decoded.Counters)
	}
	if decoded.Gauges["util_cpu"] != 0.5 {
		t.Errorf("gauges = %v", decoded.Gauges)
	}
	h := decoded.Histograms["task_duration_s"]
	if h.Count != 1 || math.Abs(h.Mean-12.5) > 1e-9 {
		t.Errorf("histogram = %+v", h)
	}
}
