package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// window is the outcome of one measured closed-loop window.
type window struct {
	elapsed time.Duration
	// done holds every successful request, in completion order.
	done      []completion
	attempted int
	failed    int
	firstErr  error
	// next is the first request of the sequence the window did not issue.
	next int64
}

// completion is one successful request: when it finished, measured from
// the window's start, and its latency.
type completion struct {
	end, lat time.Duration
}

// drive runs the closed loop: conns workers each send the next request
// of the workload's sequence, starting at request first, as soon as
// their previous one is answered, until dur has elapsed. A request started before the deadline is waited
// for and counted, so the window's work is whole requests. Latency runs
// from sending the request to reading the last byte of the response;
// building the next body and checking the response lie outside it.
func drive(client *http.Client, targets []string, dur time.Duration, wl workload, first int64) *window {
	var next atomic.Int64
	next.Store(first)
	start := time.Now()
	deadline := start.Add(dur)
	per := make([]window, conns)
	var wg sync.WaitGroup
	for c := range per {
		w := &per[c]
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				req := wl.next(i)
				url := targets[i%int64(len(targets))] + req.path
				t0 := time.Now()
				status, err := post(client, url, req.body, &buf)
				t1 := time.Now()
				w.attempted++
				if err == nil && (status < 200 || status > 299) {
					err = fmt.Errorf("status %d: %.200s", status, buf.Bytes())
				}
				if err == nil {
					err = wl.check(i, buf.Bytes())
				}
				if err != nil {
					w.failed++
					if w.firstErr == nil {
						w.firstErr = fmt.Errorf("request %d (%s): %w", i, req.path, err)
					}
					continue
				}
				w.done = append(w.done, completion{end: t1.Sub(start), lat: t1.Sub(t0)})
			}
		}()
	}
	wg.Wait()
	out := &window{elapsed: time.Since(start), next: next.Load()}
	for _, w := range per {
		out.done = append(out.done, w.done...)
		out.attempted += w.attempted
		out.failed += w.failed
		if out.firstErr == nil {
			out.firstErr = w.firstErr
		}
	}
	sort.Slice(out.done, func(a, b int) bool { return out.done[a].end < out.done[b].end })
	return out
}

// The window's statistics are medians over slices: the completions are
// cut, in order, into equal consecutive slices, and a throughput or
// latency percentile is taken per slice. A CPU stall of the shared
// machine then spoils a slice or two instead of moving the result.
const slices = 10

// ok is the number of successful requests.
func (w *window) ok() int { return len(w.done) }

// throughput is the median over slices of successful requests per
// second.
func (w *window) throughput() float64 {
	return median(w.sliceRates())
}

// meanRate is successful requests per second over the whole window.
func (w *window) meanRate() float64 { return float64(len(w.done)) / w.elapsed.Seconds() }

// sliceRates is each slice's successful requests per second.
func (w *window) sliceRates() []float64 {
	n := len(w.done)
	if n < 2*slices {
		return []float64{float64(n) / w.elapsed.Seconds()}
	}
	rates := make([]float64, slices)
	var prev time.Duration
	for k := range rates {
		lo, hi := k*n/slices, (k+1)*n/slices
		end := w.done[hi-1].end
		rates[k] = float64(hi-lo) / (end - prev).Seconds()
		prev = end
	}
	return rates
}

// percentileMS is the median over slices of each slice's nearest-rank
// q-quantile latency, in milliseconds; a window too small to slice
// gives the quantile over all of it.
func (w *window) percentileMS(q float64) float64 {
	n := len(w.done)
	// Each slice keeps at least ten samples beyond its quantile.
	k := min(slices, int(float64(n)*(1-q)/10))
	if k < 2 {
		return quantileMS(w.done, q)
	}
	vals := make([]float64, k)
	for s := range vals {
		vals[s] = quantileMS(w.done[s*n/k:(s+1)*n/k], q)
	}
	return median(vals)
}

// quantileMS is the nearest-rank q-quantile latency of cs, in ms.
func quantileMS(cs []completion, q float64) float64 {
	if len(cs) == 0 {
		return 0
	}
	lat := make([]time.Duration, len(cs))
	for i, c := range cs {
		lat[i] = c.lat
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	rank := min(max(int(math.Ceil(q*float64(len(lat)))), 1), len(lat))
	return ms(lat[rank-1])
}

// sendAll issues reqs once each over conns connections, request j to
// targets[j mod len(targets)], and checks every response with check.
// Set-ups use it to warm a system; it stops at the first failure.
func sendAll(client *http.Client, targets []string, reqs []request, check func(j int, body []byte) error) error {
	var next atomic.Int64
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				j := int(next.Add(1) - 1)
				if j >= len(reqs) {
					return
				}
				r := reqs[j]
				status, err := post(client, targets[j%len(targets)]+r.path, r.body, &buf)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %.200s", status, buf.Bytes())
				}
				if err == nil {
					err = check(j, buf.Bytes())
				}
				if err != nil {
					errs[c] = fmt.Errorf("set-up request %d (%s): %w", j, r.path, err)
					next.Store(int64(len(reqs))) // stop the other workers
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
