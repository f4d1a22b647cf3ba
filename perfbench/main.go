// Command perfbench is the repository's service benchmark. It boots the
// prediction service in-process on loopback listeners, drives one of
// three closed-loop workloads through the public serve/fleet HTTP
// surface, checks every answer, and prints the end-to-end metrics — or,
// with -trace 1, the per-layer metrics of a traced run plus a Chrome
// trace. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds it first):
//
//	bash perfbench/run.sh --workload fleet-hot --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads, the metrics and
// what each layer metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// conns is the closed loop's connection count: one per core of the
// two-core machine the bounds were set on, all from this one process.
const conns = 2

// workloads maps each workload name to its constructor and how many
// times a run repeats its set-up (setup_s is their median).
var workloads = map[string]struct {
	setups int
	make   func(seed int64) workload
}{
	"fleet-hot":      {3, func(seed int64) workload { return &fleetHot{seed: seed} }},
	"serve-cold":     {5, func(seed int64) workload { return &serveCold{seed: seed} }},
	"estimate-scale": {5, func(seed int64) workload { return &estimateScale{seed: seed} }},
}

func main() {
	var (
		name    = flag.String("workload", "", "fleet-hot | serve-cold | estimate-scale")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed issues the same requests")
		seconds = flag.Int("seconds", 10, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a Chrome trace")
		outDir  = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the run's snapshot and trace files")
	)
	flag.Parse()
	def, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload fleet-hot|serve-cold|estimate-scale, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	b := &bench{seed: *seed, dir: *outDir}
	wl := def.make(*seed)
	dur := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *trace == 1 {
		res, err = traced(b, *name, wl, dur)
	} else {
		res, err = untraced(b, wl, def.setups, dur)
	}
	if err != nil {
		fatal(err)
	}
	res.print(*name, *seed)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// result is the benchmark's report; it marshals to the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string
	problems  []string
	notes     []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) {
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed correctness check.
func (r *result) fail(err error) {
	r.Correct = false
	r.problems = append(r.problems, err.Error())
}

// addWindow counts a window's requests and its failures.
func (r *result) addWindow(w *window) {
	r.Attempted += w.attempted
	r.Failed += w.failed
	if w.failed > 0 {
		r.fail(fmt.Errorf("%d of %d requests failed; first: %v", w.failed, w.attempted, w.firstErr))
	}
}

func (r *result) print(name string, seed int64) {
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "perfbench %s seed %d: %d requests, %d failed\n", name, seed, r.Attempted, r.Failed)
	for _, n := range r.notes {
		fmt.Fprintf(out, "  %s\n", n)
	}
	for _, n := range r.order {
		m := r.Metrics[n]
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, p := range r.problems {
		fmt.Fprintf(out, "  CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fatal(err)
	}
	out.Write(line)
	out.WriteByte('\n')
}

// measured is one window with what changed around it.
type measured struct {
	*window
	// counters is the change of the servers' counters over the window.
	counters scrape
	// allocs, allocKB and gcs are the process's allocation statistics'
	// change over the window.
	allocs, allocKB, gcs float64
	// retainedMB is the larger resident set the system retained before
	// and after the window.
	retainedMB float64
}

// measureWindow runs one window against sys, starting at request first
// of the workload's sequence.
func measureWindow(sys *system, wl workload, dur time.Duration, first int64) (*measured, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	rss0, err := retainedMB() // also: every window starts from a collected heap
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	before := scrapeAll(sys.servers)
	runtime.ReadMemStats(&m0)
	win := drive(client, sys.targets, dur, wl, first)
	runtime.ReadMemStats(&m1)
	m := &measured{
		window:   win,
		counters: scrapeAll(sys.servers).minus(before),
		allocs:   float64(m1.Mallocs - m0.Mallocs),
		allocKB:  float64(m1.TotalAlloc-m0.TotalAlloc) / 1024,
		gcs:      float64(m1.NumGC - m0.NumGC),
	}
	rss1, err := retainedMB()
	m.retainedMB = max(rss0, rss1)
	return m, err
}

// merge joins consecutive segments of one system into one window.
func merge(ms []*measured) *measured {
	out := &measured{window: &window{}, counters: scrape{}}
	for _, m := range ms {
		for _, c := range m.done {
			c.end += out.elapsed
			out.done = append(out.done, c)
		}
		out.elapsed += m.elapsed
		out.attempted += m.attempted
		out.failed += m.failed
		if out.firstErr == nil {
			out.firstErr = m.firstErr
		}
		for k, v := range m.counters {
			out.counters[k] += v
		}
		out.allocs += m.allocs
		out.allocKB += m.allocKB
		out.gcs += m.gcs
		out.retainedMB = max(out.retainedMB, m.retainedMB)
	}
	return out
}

// retainedMB is the resident set, in MB, right after a full collection
// that returns freed memory to the OS: the memory the process holds,
// without the garbage headroom the collector's pacing leaves. Read
// between windows, with no request in flight, it is steady where the
// raw peak is not (on a small live heap under a high allocation rate the
// raw peak swings by half with collection timing).
func retainedMB() (float64, error) {
	runtime.GC() // a second cycle also drops what sync.Pools hold
	debug.FreeOSMemory()
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("resident set: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("resident set: no VmRSS in /proc/self/status")
}

// untraced is the end-to-end run: set up `setups` times (setup_s is the
// median), measure one window on the last system, check, and score
// accuracy.
func untraced(b *bench, wl workload, setups int, dur time.Duration) (*result, error) {
	res := newResult()
	if err := wl.prepare(b); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	var sys *system
	var times []float64
	var setupReqs int
	for k := 0; k < setups; k++ {
		if sys != nil {
			sys.close()
		}
		runtime.GC() // every set-up starts from the same collected heap
		t0 := time.Now()
		s, n, err := wl.boot(b, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		sys, setupReqs = s, n
	}
	win, err := measureWindow(sys, wl, dur, 0)
	sys.close()
	if err != nil {
		return nil, err
	}
	res.addWindow(win.window)
	if err := wl.verify(win.counters); err != nil {
		res.fail(err)
	}
	acc, err := wl.accuracy()
	if err != nil {
		res.fail(err)
	}
	res.notes = append(res.notes,
		fmt.Sprintf("set-up: %d runs, %d workload requests each, %s s", setups, setupReqs, fmtFloats(times)),
		fmt.Sprintf("window: %d ok in %.3f s; slice rates %s /s", win.ok(), win.elapsed.Seconds(), fmtFloats(win.sliceRates())))
	res.set("throughput_rps", win.throughput(), "1/s")
	res.set("latency_p50_ms", win.percentileMS(0.50), "ms")
	res.set("latency_p99_ms", win.percentileMS(0.99), "ms")
	res.set("setup_s", median(times), "s")
	res.set("rss_peak_mb", win.retainedMB, "MB")
	res.set("accuracy_pct", acc, "%")
	return res, nil
}

// segments is how many alternating untraced and traced segments a
// traced run's window is cut into, so that a drift of the shared
// machine's speed falls on both sides alike.
const segments = 4

// traced is the per-layer run: an untraced reference system and a
// system with every instrument attached, measured in alternating
// segments that add up to one window each, then direct timings of the
// estimator and of RouteKey.
func traced(b *bench, name string, wl workload, dur time.Duration) (*result, error) {
	res := newResult()
	if err := wl.prepare(b); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	refSys, _, err := wl.boot(b, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer refSys.close()
	in := newInstr()
	sys, setupReqs, err := wl.boot(b, in)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer sys.close()
	in.fwd.reset()
	var refs, wins []*measured
	for k := 0; k < segments; k++ {
		for _, side := range []struct {
			sys *system
			ms  *[]*measured
		}{{refSys, &refs}, {sys, &wins}} {
			var first int64
			if n := len(*side.ms); n > 0 {
				first = (*side.ms)[n-1].next
			}
			m, err := measureWindow(side.sys, wl, dur/segments, first)
			if err != nil {
				return nil, err
			}
			*side.ms = append(*side.ms, m)
		}
	}
	ref, win := merge(refs), merge(wins)
	for _, m := range []*measured{ref, win} {
		res.addWindow(m.window)
		if err := wl.verify(m.counters); err != nil {
			res.fail(err)
		}
	}
	d := win.counters
	reqs := float64(win.ok())

	// fleet
	hops, fwdMean, fwdP99 := in.fwd.stats()
	var routeKeyUS float64
	if len(sys.servers) > 1 {
		routeKeyUS = timeRouteKey(sys, wl)
	}
	res.set("fleet.forwarded_share", ratio(d["fleet_forwarded"], d["fleet_forwarded"]+d["fleet_local_served"]), "ratio")
	res.set("fleet.forward_ms_mean", fwdMean, "ms")
	res.set("fleet.forward_ms_p99", fwdP99, "ms")
	res.set("fleet.routekey_us_mean", routeKeyUS, "us")
	res.set("fleet.forward_errors", d["fleet_forward_errors"], "count")
	res.set("fleet.forward_retries", d["fleet_forward_retries"], "count")
	res.set("fleet.fallback_local", d["fleet_fallback_local"], "count")

	// serve
	served := d["request_duration_s.count"]
	phases := 0.0
	for _, h := range []string{"queue_wait_s", "coalesced_wait_s", "phase_decode_s", "phase_estimate_s",
		"phase_explain_s", "phase_schedule_s", "phase_encode_s"} {
		phases += d[h+".sum"]
	}
	res.set("serve.queue_wait_ms_mean", ratio(1000*d["queue_wait_s.sum"], served), "ms")
	res.set("serve.decode_ms_mean", d.meanMS("phase_decode_s"), "ms")
	res.set("serve.estimate_ms_mean", d.meanMS("phase_estimate_s"), "ms")
	res.set("serve.explain_ms_mean", d.meanMS("phase_explain_s"), "ms")
	res.set("serve.schedule_ms_mean", d.meanMS("phase_schedule_s"), "ms")
	res.set("serve.encode_ms_mean", d.meanMS("phase_encode_s"), "ms")
	res.set("serve.coalesced_wait_ms_mean", d.meanMS("coalesced_wait_s"), "ms")
	res.set("serve.self_ms_mean", ratio(1000*(d["request_duration_s.sum"]-phases), served), "ms")
	res.set("serve.rejected", d["http_rejected"], "count")
	res.set("serve.errors", d["http_errors"], "count")

	// evalpool
	lookups := d["estimate_cache_hits"] + d["estimate_cache_misses"]
	res.set("evalpool.hit_ratio", ratio(d["estimate_cache_hits"], lookups), "ratio")
	res.set("evalpool.evictions_per_req", ratio(d["estimate_cache_evictions"], lookups), "1/req")
	res.set("evalpool.computed_per_req", ratio(d["estimates_computed"]+d["explains_computed"], lookups), "1/req")
	res.set("evalpool.coalesced", d["estimates_coalesced"], "count")
	res.set("evalpool.plans_cached_per_req", ratio(d["plan_cache_misses"], reqs), "1/req")

	// statemodel and boe, timed directly on the workload's scenarios
	est, err := timeEstimator(wl.scenarios())
	if err != nil {
		return nil, fmt.Errorf("estimator timing: %w", err)
	}
	n := float64(est.n)
	estMS := ms(est.total) / n
	boeMS := ms(est.boeBusy) / n
	res.set("statemodel.estimate_ms_mean", estMS, "ms")
	res.set("statemodel.self_ms_mean", estMS-boeMS, "ms")
	res.set("statemodel.states_per_estimate", float64(est.states)/n, "count")
	res.set("statemodel.iterations_per_estimate", float64(est.iters)/n, "count")
	res.set("statemodel.p50_share", ratio(estMS, win.percentileMS(0.50)), "ratio")
	res.set("boe.solve_ms_mean", ratio(ms(est.boeBusy), float64(est.calls)), "ms")
	res.set("boe.solves_per_estimate", float64(est.calls)/n, "count")
	res.set("boe.reuse_ratio", ratio(float64(est.reuses), float64(est.solves+est.reuses)), "ratio")

	// cachestore
	var restoreMS, snapMB float64
	if path := sys.servers[0].SnapshotPath(); path != "" {
		restoreMS = ms(sys.bootTime)
		if st, err := os.Stat(path); err == nil {
			snapMB = float64(st.Size()) / 1e6
		}
	}
	restored := sys.servers[0].Metrics().Counter("cache_restored_entries").Value()
	res.set("cachestore.restore_ms", restoreMS, "ms")
	res.set("cachestore.restored_entries", float64(restored), "count")
	res.set("cachestore.snapshot_mb", snapMB, "MB")

	// process
	res.set("process.allocs_per_req", ratio(win.allocs, reqs), "count")
	res.set("process.alloc_kb_per_req", ratio(win.allocKB, reqs), "KB")
	res.set("process.gc_per_1k_req", ratio(1000*win.gcs, reqs), "count")

	res.set("trace.overhead_pct", 100*(1-ratio(win.meanRate(), ref.meanRate())), "%")
	res.set("setup.requests", float64(setupReqs), "count")

	path := filepath.Join(b.dir, fmt.Sprintf("trace-%s-seed%d.json", name, b.seed))
	if err := in.rec.writeChrome(path); err != nil {
		return nil, err
	}
	res.notes = append(res.notes,
		fmt.Sprintf("reference window: %d ok, %.1f req/s; traced window: %d ok, %.1f req/s; %d fleet hops",
			ref.ok(), ref.meanRate(), win.ok(), win.meanRate(), hops),
		fmt.Sprintf("Chrome trace: %s (%d events, %d dropped)", path, len(in.rec.events), in.rec.dropped))
	return res, nil
}

// timeRouteKey times Server.RouteKey on the first window bodies.
func timeRouteKey(sys *system, wl workload) float64 {
	const n = 2000
	srv := sys.servers[0]
	start := time.Now()
	for i := int64(0); i < n; i++ {
		r := wl.next(i)
		srv.RouteKey(r.path, r.body)
	}
	return float64(time.Since(start)) / float64(time.Microsecond) / n
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}
