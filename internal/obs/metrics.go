package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric (tasks scheduled,
// estimator iterations, retries). Safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0; negative deltas are ignored to keep the
// counter monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value-wins float metric (current utilization, live
// state count). Safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the number of exponential histogram buckets: bounds are
// histBase·2^i, covering ~1 ms to ~9 h of seconds-valued observations
// (values outside the range clamp into the edge buckets).
const (
	histBuckets = 26
	histBase    = 0.001
)

// Histogram accumulates a distribution of float64 observations (queue
// waits, task durations, state spans) into exponential base-2 buckets
// plus exact count/sum/min/max. Safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets [histBuckets]int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
	h.mu.Unlock()
}

// bucketOf maps a value to its exponential bucket index.
func bucketOf(v float64) int {
	if v <= histBase {
		return 0
	}
	i := int(math.Ceil(math.Log2(v / histBase)))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketUpper is the inclusive upper bound of bucket i.
func bucketUpper(i int) float64 { return histBase * math.Pow(2, float64(i)) }

// Buckets snapshots the histogram's exponential buckets: counts holds
// every bucket's population (length histBuckets) and bounds the inclusive
// upper bound of each bucket but the overflow one (length histBuckets-1)
// — exactly the bucketCounts/explicitBounds split the OTLP histogram
// encoding wants.
func (h *Histogram) Buckets() (counts []int64, bounds []float64) {
	h.mu.Lock()
	counts = append(counts, h.buckets[:]...)
	h.mu.Unlock()
	bounds = make([]float64, histBuckets-1)
	for i := range bounds {
		bounds[i] = bucketUpper(i)
	}
	return counts, bounds
}

// Count returns how many values were observed.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the running sum of observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the arithmetic mean (zero when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observation (zero when empty).
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest observation (zero when empty).
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile approximates the q-quantile (0 < q ≤ 1) from the bucket
// counts: it returns the upper bound of the bucket holding the q·count-th
// observation, clamped to the observed min/max. Zero when empty.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i]
		if seen >= rank {
			ub := bucketUpper(i)
			if i == histBuckets-1 || ub > h.max {
				// The overflow bucket has no meaningful upper bound.
				ub = h.max
			}
			if ub < h.min {
				ub = h.min
			}
			return ub
		}
	}
	return h.max
}

// Registry holds named metrics. Instruments are created on first use and
// shared thereafter: Counter("x") always returns the same *Counter.
// Safe for concurrent use; resolve instruments once outside hot loops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// snapshot freezes the registry into sorted name lists for export.
func (r *Registry) snapshot() (counters []string, gauges []string, hists []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for n := range r.counters {
		counters = append(counters, n)
	}
	for n := range r.gauges {
		gauges = append(gauges, n)
	}
	for n := range r.hists {
		hists = append(hists, n)
	}
	sort.Strings(counters)
	sort.Strings(gauges)
	sort.Strings(hists)
	return
}

// histJSON is a histogram's exported summary.
type histJSON struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

func (h *Histogram) summary() histJSON {
	return histJSON{
		Count: h.Count(), Sum: h.Sum(), Mean: h.Mean(),
		Min: h.Min(), Max: h.Max(),
		P50: h.Quantile(0.50), P90: h.Quantile(0.90),
		P95: h.Quantile(0.95), P99: h.Quantile(0.99),
	}
}

// sortedMap marshals its entries in explicit sorted-key order, so the
// metrics dump is byte-deterministic by construction rather than by
// relying on encoding/json's map-key sorting (and stays deterministic if
// structured label keys ever join the plain names).
type sortedMap[V any] struct {
	keys []string
	vals map[string]V
}

func (s sortedMap[V]) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte('{')
	for i, k := range s.keys {
		if i > 0 {
			buf.WriteByte(',')
		}
		kb, err := json.Marshal(k)
		if err != nil {
			return nil, err
		}
		buf.Write(kb)
		buf.WriteByte(':')
		vb, err := json.Marshal(s.vals[k])
		if err != nil {
			return nil, err
		}
		buf.Write(vb)
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// WriteJSON dumps every metric as indented JSON, metric names sorted —
// the -metrics-out format of the command-line tools, pinned by the
// golden-file test in internal/trace.
func (r *Registry) WriteJSON(w io.Writer) error {
	cn, gn, hn := r.snapshot()
	out := struct {
		Counters   sortedMap[int64]    `json:"counters"`
		Gauges     sortedMap[float64]  `json:"gauges"`
		Histograms sortedMap[histJSON] `json:"histograms"`
	}{
		Counters:   sortedMap[int64]{keys: cn, vals: make(map[string]int64, len(cn))},
		Gauges:     sortedMap[float64]{keys: gn, vals: make(map[string]float64, len(gn))},
		Histograms: sortedMap[histJSON]{keys: hn, vals: make(map[string]histJSON, len(hn))},
	}
	for _, n := range cn {
		out.Counters.vals[n] = r.Counter(n).Value()
	}
	for _, n := range gn {
		out.Gauges.vals[n] = r.Gauge(n).Value()
	}
	for _, n := range hn {
		out.Histograms.vals[n] = r.Histogram(n).summary()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("obs: write metrics json: %w", err)
	}
	return nil
}
