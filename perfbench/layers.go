package main

import (
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"boedag/internal/boe"
	"boedag/internal/obs"
	"boedag/internal/serve"
	"boedag/internal/statemodel"
)

// The traced run's instruments. All of them sit outside the program,
// around the calls the benchmark makes into each layer: the servers'
// own request/phase events through Config.Observe.Tracer, a timing
// RoundTripper as the fleet's forwarding client, a timing TaskTimer
// around the BOE timer, and scrapes of each Server.Metrics() registry.

// maxTraceEvents bounds the in-memory trace; later events are counted
// but dropped, so a long window cannot grow the process without bound.
const maxTraceEvents = 200_000

// instr is the traced run's instrument set.
type instr struct {
	t0  time.Time
	rec *recorder
	fwd *timingTransport
}

func newInstr() *instr {
	in := &instr{t0: time.Now(), rec: &recorder{}}
	in.fwd = &timingTransport{base: http.DefaultTransport, rec: in.rec, t0: in.t0}
	return in
}

// recorder holds trace events in memory until the run writes them out.
type recorder struct {
	mu      sync.Mutex
	events  []obs.Event
	dropped int
}

func (r *recorder) add(ev obs.Event) {
	r.mu.Lock()
	if len(r.events) < maxTraceEvents {
		r.events = append(r.events, ev)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// writeChrome writes the recorded events as one Chrome trace.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, r.events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Request ordinals restart at 1 on every server, so each node's events
// are moved to their own ordinal range (one Chrome row per request) and
// onto the run's clock.
const nodeSeqStride = 10_000_000

// nodeTracer is one server's Config.Observe.Tracer.
type nodeTracer struct {
	rec     *recorder
	seqBase int
	offset  float64 // server start relative to the run's trace clock, s
}

func (in *instr) nodeTracer(node int, start time.Time) obs.Tracer {
	return &nodeTracer{rec: in.rec, seqBase: node * nodeSeqStride, offset: start.Sub(in.t0).Seconds()}
}

func (t *nodeTracer) Enabled() bool { return true }

func (t *nodeTracer) Emit(ev obs.Event) {
	ev.Time += t.offset
	ev.Seq += t.seqBase
	t.rec.add(ev)
}

// forwardSeqBase is the ordinal range of the fleet-hop spans.
const forwardSeqBase = 9 * nodeSeqStride

// timingTransport is the fleet nodes' forwarding transport in a traced
// run. It times each hop from sending the request to closing the
// response body — the whole proxied exchange, body copy included.
type timingTransport struct {
	base http.RoundTripper
	rec  *recorder
	t0   time.Time
	mu   sync.Mutex
	durs []time.Duration
}

func (t *timingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		t.done(start)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, t: t, start: start}
	return resp, nil
}

func (t *timingTransport) done(start time.Time) {
	d := time.Since(start)
	t.mu.Lock()
	t.durs = append(t.durs, d)
	n := len(t.durs)
	t.mu.Unlock()
	t.rec.add(obs.Event{
		Type:   obs.EvRequestPhase,
		Time:   start.Sub(t.t0).Seconds(),
		Dur:    d.Seconds(),
		Detail: "fleet-forward",
		Seq:    forwardSeqBase + n,
		Task:   -1,
	})
}

// reset drops the hops recorded so far (the set-up's).
func (t *timingTransport) reset() {
	t.mu.Lock()
	t.durs = nil
	t.mu.Unlock()
}

// stats returns the hop count, mean and p99 in milliseconds.
func (t *timingTransport) stats() (n int, meanMS, p99MS float64) {
	t.mu.Lock()
	d := append([]time.Duration(nil), t.durs...)
	t.mu.Unlock()
	if len(d) == 0 {
		return 0, 0, 0
	}
	cs := make([]completion, len(d))
	var sum time.Duration
	for i, x := range d {
		sum += x
		cs[i].lat = x
	}
	return len(d), ms(sum) / float64(len(d)), quantileMS(cs, 0.99)
}

type timedBody struct {
	io.ReadCloser
	t     *timingTransport
	start time.Time
	once  sync.Once
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.t.done(b.start) })
	return err
}

// timedTimer wraps the BOE task timer with a clock. It forwards
// DistFingerprint, so the estimator memoizes exactly as it does for the
// bare timer: the same solves run, and only they are timed.
type timedTimer struct {
	inner *statemodel.BOETimer
	calls int64
	busy  time.Duration
}

func (t *timedTimer) TaskDist(jobID string, groups []boe.TaskGroup, self int) statemodel.TaskTimeDist {
	start := time.Now()
	d := t.inner.TaskDist(jobID, groups, self)
	t.busy += time.Since(start)
	t.calls++
	return d
}

func (t *timedTimer) DistFingerprint() (uint64, bool, bool) { return t.inner.DistFingerprint() }

// scrape is a point-in-time read of the servers' registries, summed over
// servers: counters by name, histograms as name+".count" / name+".sum".
type scrape map[string]float64

var (
	scrapedCounters = []string{
		"http_requests", "http_errors", "http_rejected",
		"estimates_computed", "explains_computed", "schedules_computed", "estimates_coalesced",
		"estimate_cache_hits", "estimate_cache_misses", "estimate_cache_evictions",
		"cache_restored_entries", "plan_cache_misses",
		"fleet_local_served", "fleet_forwarded", "fleet_forward_retries",
		"fleet_fallback_local", "fleet_forward_errors",
	}
	scrapedHists = []string{
		"request_duration_s", "queue_wait_s", "coalesced_wait_s",
		"phase_decode_s", "phase_estimate_s", "phase_explain_s", "phase_schedule_s", "phase_encode_s",
	}
)

func scrapeAll(servers []*serve.Server) scrape {
	s := scrape{}
	for _, srv := range servers {
		reg := srv.Metrics()
		for _, name := range scrapedCounters {
			s[name] += float64(reg.Counter(name).Value())
		}
		for _, name := range scrapedHists {
			h := reg.Histogram(name)
			s[name+".count"] += float64(h.Count())
			s[name+".sum"] += h.Sum()
		}
	}
	return s
}

// minus is the change from an earlier scrape.
func (s scrape) minus(before scrape) scrape {
	d := scrape{}
	for k, v := range s {
		d[k] = v - before[k]
	}
	return d
}

// meanMS is a histogram's mean observation over the window, in ms.
func (s scrape) meanMS(hist string) float64 {
	return ratio(1000*s[hist+".sum"], s[hist+".count"])
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// estimatorLayers is the direct estimator timing: the statemodel and
// boe layers' numbers.
type estimatorLayers struct {
	n              int
	total, boeBusy time.Duration
	calls          int64
	states, iters  int64
	solves, reuses int64
}

// timeEstimator times Estimator.Estimate directly on the scenarios, one
// pass each, through the timing TaskTimer, with conns estimates running
// at once as in the window — so the numbers compare with its latencies.
func timeEstimator(scs []*serve.EstimateRequest) (*estimatorLayers, error) {
	out := &estimatorLayers{}
	reg := obs.NewRegistry()
	var mu sync.Mutex
	var first error
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := next.Add(1) - 1; k < int64(len(scs)); k = next.Add(1) - 1 {
				s, err := scenarioOf(scs[k])
				tt := &timedTimer{}
				var d time.Duration
				if err == nil {
					tt.inner = s.boeTimer()
					start := time.Now()
					_, err = s.estimate(tt, reg)
					d = time.Since(start)
				}
				mu.Lock()
				if err != nil && first == nil {
					first = err
				}
				out.total += d
				out.boeBusy += tt.busy
				out.calls += tt.calls
				out.n++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	out.states = reg.Counter("est_states").Value()
	out.iters = reg.Counter("est_iterations").Value()
	out.solves = reg.Counter("est_dist_solves").Value()
	out.reuses = reg.Counter("est_dist_reuse").Value()
	return out, nil
}
