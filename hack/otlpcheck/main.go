// Command otlpcheck validates the shape of an OTLP/JSON export produced
// with -otlp-out: it decodes the file with encoding/json into the
// resourceSpans / resourceMetrics structure an OTLP collector expects
// and asserts the invariants a consumer relies on (well-formed hex ids,
// timestamps on every span, resolvable parent links, populated metric
// data points). hack/verify.sh runs it against a fresh export of a
// dagsim run that both predicts and simulates.
//
// Usage: go run ./hack/otlpcheck <export.json>
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

type export struct {
	ResourceSpans []struct {
		Resource struct {
			Attributes []struct {
				Key   string `json:"key"`
				Value struct {
					StringValue string `json:"stringValue"`
				} `json:"value"`
			} `json:"attributes"`
		} `json:"resource"`
		ScopeSpans []struct {
			Scope struct {
				Name string `json:"name"`
			} `json:"scope"`
			Spans []struct {
				TraceID           string `json:"traceId"`
				SpanID            string `json:"spanId"`
				ParentSpanID      string `json:"parentSpanId"`
				Name              string `json:"name"`
				StartTimeUnixNano string `json:"startTimeUnixNano"`
				EndTimeUnixNano   string `json:"endTimeUnixNano"`
			} `json:"spans"`
		} `json:"scopeSpans"`
	} `json:"resourceSpans"`
	ResourceMetrics []struct {
		ScopeMetrics []struct {
			Metrics []struct {
				Name      string          `json:"name"`
				Sum       json.RawMessage `json:"sum"`
				Gauge     json.RawMessage `json:"gauge"`
				Histogram json.RawMessage `json:"histogram"`
			} `json:"metrics"`
		} `json:"scopeMetrics"`
	} `json:"resourceMetrics"`
}

func main() {
	if len(os.Args) != 2 {
		fail("usage: otlpcheck <export.json>")
	}
	raw, err := os.ReadFile(os.Args[1])
	if err != nil {
		fail("%v", err)
	}
	var e export
	if err := json.Unmarshal(raw, &e); err != nil {
		fail("export does not decode as OTLP/JSON: %v", err)
	}

	if len(e.ResourceSpans) == 0 {
		fail("no resourceSpans")
	}
	spans, ids := 0, map[string]bool{}
	for _, rs := range e.ResourceSpans {
		service := ""
		for _, a := range rs.Resource.Attributes {
			if a.Key == "service.name" {
				service = a.Value.StringValue
			}
		}
		if service == "" {
			fail("resource missing service.name attribute")
		}
		if len(rs.ScopeSpans) == 0 {
			fail("resourceSpans entry has no scopeSpans")
		}
		for _, ss := range rs.ScopeSpans {
			for _, sp := range ss.Spans {
				spans++
				if !hexID(sp.TraceID, 32) {
					fail("span %q has malformed traceId %q", sp.Name, sp.TraceID)
				}
				if !hexID(sp.SpanID, 16) {
					fail("span %q has malformed spanId %q", sp.Name, sp.SpanID)
				}
				if sp.Name == "" || sp.StartTimeUnixNano == "" || sp.EndTimeUnixNano == "" {
					fail("span %+v missing name or timestamps", sp)
				}
				ids[sp.SpanID] = true
			}
		}
	}
	if spans == 0 {
		fail("export holds zero spans")
	}
	// Every parent link must resolve within the export.
	for _, rs := range e.ResourceSpans {
		for _, ss := range rs.ScopeSpans {
			for _, sp := range ss.Spans {
				if sp.ParentSpanID != "" && !ids[sp.ParentSpanID] {
					fail("span %q parent %s not in export", sp.Name, sp.ParentSpanID)
				}
			}
		}
	}

	metrics := 0
	for _, rm := range e.ResourceMetrics {
		for _, sm := range rm.ScopeMetrics {
			for _, m := range sm.Metrics {
				metrics++
				if m.Name == "" {
					fail("metric with empty name")
				}
				if m.Sum == nil && m.Gauge == nil && m.Histogram == nil {
					fail("metric %q has no data", m.Name)
				}
			}
		}
	}
	if len(e.ResourceMetrics) > 0 && metrics == 0 {
		fail("resourceMetrics present but empty")
	}

	fmt.Printf("otlpcheck OK: %d spans, %d metrics\n", spans, metrics)
}

func hexID(s string, n int) bool {
	if len(s) != n {
		return false
	}
	zero := true
	for _, c := range s {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
		if c != '0' {
			zero = false
		}
	}
	return !zero
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "otlpcheck: "+format+"\n", args...)
	os.Exit(1)
}
