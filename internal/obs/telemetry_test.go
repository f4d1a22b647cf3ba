package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStreamDropAccountingConcurrent pins the drop-counter invariant
// under concurrent publishers for both policies: every emitted event is
// either received by the consumer or counted in Drops(), exactly once,
// so consumed + drops always equals emitted. Run under -race this also
// exercises the deliver/evict paths for data races.
func TestStreamDropAccountingConcurrent(t *testing.T) {
	for _, policy := range []DropPolicy{DropNewest, DropOldest} {
		t.Run(policy.String(), func(t *testing.T) {
			const producers, perProducer = 8, 5000
			s := NewStream()
			sub := s.SubscribeWith(8, policy)
			var consumed atomic.Int64
			done := make(chan struct{})
			go func() {
				defer close(done)
				for range sub.Events() {
					consumed.Add(1)
				}
			}()
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < perProducer; i++ {
						s.Emit(Event{Seq: p*perProducer + i})
					}
				}(p)
			}
			wg.Wait()
			s.Close()
			<-done
			total := int64(producers * perProducer)
			if got := consumed.Load() + sub.Drops(); got != total {
				t.Errorf("consumed (%d) + drops (%d) = %d, want %d emitted",
					consumed.Load(), sub.Drops(), got, total)
			}
			if sub.Drops() == 0 {
				t.Error("8 hot publishers into an 8-slot buffer dropped nothing — the contention path never ran")
			}
		})
	}
}

// TestStreamDropsWithoutConsumer checks the same invariant when nobody
// reads at all: the buffer fills once and everything past it drops.
func TestStreamDropsWithoutConsumer(t *testing.T) {
	for _, policy := range []DropPolicy{DropNewest, DropOldest} {
		t.Run(policy.String(), func(t *testing.T) {
			const buffer, emitted = 16, 4096
			s := NewStream()
			sub := s.SubscribeWith(buffer, policy)
			var wg sync.WaitGroup
			for p := 0; p < 4; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < emitted/4; i++ {
						s.Emit(Event{Seq: i})
					}
				}()
			}
			wg.Wait()
			if got := sub.Drops(); got != emitted-buffer {
				t.Errorf("drops = %d, want %d (emitted %d, buffer %d)",
					got, emitted-buffer, emitted, buffer)
			}
			s.Close()
		})
	}
}

func TestHistogramQuantileSingleSample(t *testing.T) {
	h := NewRegistry().Histogram("one")
	h.Observe(0.42)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
		if got := h.Quantile(q); got != 0.42 {
			t.Errorf("Quantile(%v) = %v, want the single sample 0.42", q, got)
		}
	}
	if h.Min() != 0.42 || h.Max() != 0.42 || h.Count() != 1 {
		t.Errorf("min/max/count = %v/%v/%d, want 0.42/0.42/1", h.Min(), h.Max(), h.Count())
	}
}

func TestHistogramQuantileAllEqual(t *testing.T) {
	h := NewRegistry().Histogram("flat")
	for i := 0; i < 100; i++ {
		h.Observe(3.5)
	}
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 3.5 {
			t.Errorf("Quantile(%v) = %v, want 3.5 for an all-equal distribution", q, got)
		}
	}
	if got := h.Mean(); got != 3.5 {
		t.Errorf("mean = %v, want 3.5", got)
	}
}

// requestTraceEvents is a minimal served-request event sequence: two
// phases nested under one request span, as the prediction daemon emits.
func requestTraceEvents() []Event {
	return []Event{
		{Type: EvRequestPhase, Time: 0.001, Dur: 0.0005, Detail: "decode", Seq: 1, Task: -1},
		{Type: EvRequestPhase, Time: 0.002, Dur: 0.010, Detail: "estimate", Seq: 1, Task: -1},
		{Type: EvRequest, Time: 0.001, Dur: 0.020, Detail: "POST /v1/estimate", Seq: 1, Task: -1, Value: 200},
	}
}

func TestChromeTraceRequestSpans(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, requestTraceEvents()); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Cat   string         `json:"cat"`
			Phase string         `json:"ph"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	var spans, phases int
	var serviceTrack bool
	for _, ev := range trace.TraceEvents {
		switch {
		case ev.Cat == "request" && ev.Phase == "X":
			spans++
			if ev.Name != "POST /v1/estimate" || ev.Args["status"] != float64(200) {
				t.Errorf("request span = %+v", ev)
			}
		case ev.Cat == "reqphase" && ev.Phase == "X":
			phases++
		case ev.Name == "process_name":
			if name, _ := ev.Args["name"].(string); name == "service" {
				serviceTrack = true
			}
		}
	}
	if spans != 1 || phases != 2 {
		t.Errorf("spans/phases = %d/%d, want 1/2", spans, phases)
	}
	if !serviceTrack {
		t.Error("no \"service\" process track in the Chrome trace")
	}
}

func TestOTLPRequestSpans(t *testing.T) {
	events := requestTraceEvents()
	if got := SpanCount(events); got != 3 {
		t.Fatalf("SpanCount = %d, want 3 (request + 2 phases)", got)
	}
	var buf bytes.Buffer
	if err := WriteOTLP(&buf, events, nil, OTLPOptions{Start: time.Unix(0, 0)}); err != nil {
		t.Fatal(err)
	}
	var shape otlpShape
	if err := json.Unmarshal(buf.Bytes(), &shape); err != nil {
		t.Fatal(err)
	}
	if n := len(shape.ResourceSpans[0].ScopeSpans[0].Spans); n != 3 {
		t.Fatalf("WriteOTLP emitted %d spans, want 3", n)
	}
	out := buf.String()
	// The phase spans must resolve their parent to the request span's id.
	for _, want := range []string{"POST /v1/estimate", "decode", "estimate",
		"boedag.request", "http.response.status_code", "parentSpanId"} {
		if !strings.Contains(out, want) {
			t.Errorf("OTLP traces missing %q", want)
		}
	}
}
