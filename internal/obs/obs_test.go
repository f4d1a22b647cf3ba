package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestNopTracerDisabled(t *testing.T) {
	if Nop.Enabled() {
		t.Error("Nop tracer reports enabled")
	}
	Nop.Emit(Event{Type: EvTaskFinish}) // must not panic
	var o Options
	if o.TracerOn() || o.MetricsOn() {
		t.Error("zero Options not fully disabled")
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	r := NewRecorder()
	if !r.Enabled() {
		t.Fatal("recorder not enabled")
	}
	r.Emit(Event{Type: EvTaskStart, Job: "j1", Task: 0, Time: 1})
	r.Emit(Event{Type: EvTaskFinish, Job: "j1", Task: 0, Time: 1, Dur: 2})
	r.Emit(Event{Type: EvStateOpen, Seq: 1, Time: 0})
	if n := len(r.Events()); n != 3 {
		t.Fatalf("recorded %d events, want 3", n)
	}
	if got := r.ByType(EvTaskFinish); len(got) != 1 || got[0].Dur != 2 {
		t.Errorf("ByType(EvTaskFinish) = %+v", got)
	}
	evs := r.Events()
	evs[0].Job = "mutated"
	if r.Events()[0].Job != "j1" {
		t.Error("Events() does not copy")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Emit(Event{Type: EvEstimatorIter, Seq: i})
			}
		}()
	}
	wg.Wait()
	if n := len(r.Events()); n != 800 {
		t.Errorf("recorded %d events, want 800", n)
	}
}

func TestEventTypeStrings(t *testing.T) {
	types := []EventType{
		EvJobSubmit, EvStageStart, EvStageFinish, EvTaskStart, EvTaskFinish,
		EvTaskRetry, EvSubStageFinish, EvStateOpen, EvStateClose,
		EvAllocGrant, EvEstimatorIter, EvEstimatorState,
		EvPoolJob, EvRunStart, EvRequest,
	}
	seen := make(map[string]bool)
	for _, tt := range types {
		s := tt.String()
		if s == "" || strings.HasPrefix(s, "event(") {
			t.Errorf("EventType %d has no name", tt)
		}
		if seen[s] {
			t.Errorf("duplicate event name %q", s)
		}
		seen[s] = true
	}
	if !strings.HasPrefix(EventType(200).String(), "event(") {
		t.Error("unknown event type should fall back to event(N)")
	}
}

func TestWriteSummary(t *testing.T) {
	var sb strings.Builder
	WriteSummary(&sb, nil)
	if !strings.Contains(sb.String(), "no events") {
		t.Errorf("empty summary = %q", sb.String())
	}

	events := []Event{
		{Type: EvTaskFinish, Job: "j1", Stage: "map", Task: 0, Time: 1, Dur: 10},
		{Type: EvTaskFinish, Job: "j1", Stage: "map", Task: 1, Time: 2, Dur: 12},
		{Type: EvTaskRetry, Job: "j1", Stage: "map", Task: 1, Time: 5},
		{Type: EvStateClose, Seq: 1, Time: 0, Dur: 14, Detail: "j1/map", Resource: "cpu", Value: 0.9},
	}
	sb.Reset()
	WriteSummary(&sb, events)
	out := sb.String()
	for _, want := range []string{"4 events", "task_finish", "j1", "2 tasks", "1 retries", "state  1", "cpu"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
