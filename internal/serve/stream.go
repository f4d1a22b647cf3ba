package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"boedag/internal/obs"
)

// This file implements /v1/estimate?stream=1: the same scenario contract
// as /v1/estimate, answered as a Server-Sent Events stream. The estimator
// runs once with a per-request obs.Stream as its tracer; every
// EvEstimatorState event — the estimator opening one predicted workflow
// state — is pushed to the client as it happens, and the final frame
// carries the complete estimate (or the error envelope). All event
// payloads are functions of model time only, so the stream is
// byte-deterministic for a deterministic scenario (the SSE goldens in
// testdata/ pin it).
//
// Wire shape, one frame per predicted state:
//
//	event: state
//	id: <state seq>
//	data: {"seq":N,"start_s":T,"running":["job/stage",...]}
//
// terminated by exactly one of:
//
//	event: result
//	data: <compact EstimateResponse JSON>
//
//	event: error
//	data: {"error":{"code":...,"message":...}}

// stateEvent is the data payload of one "state" SSE frame.
type stateEvent struct {
	Seq     int      `json:"seq"`
	StartS  float64  `json:"start_s"`
	Running []string `json:"running"`
}

// stream answers an estimate call as an SSE stream. It bypasses the
// response cache: the state frames come from running the estimator.
func (s *Server) stream(w http.ResponseWriter, r *http.Request, c *call) {
	ctx, cancel := scenarioContext(r.Context(), c.timeoutMS)
	defer cancel()

	// The estimator traces into a stream private to this request; the
	// handler is its only subscriber. DropOldest keeps the freshest states
	// if the client reads slowly — the final result frame is always exact.
	stream := obs.NewStream()
	sub := stream.SubscribeWith(0, obs.DropOldest)
	defer sub.Close()
	c.est.Opt.Observe.Tracer = stream

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the headers now so the client sees the stream open before
		// the first state lands (the estimator may think for a while).
		flusher.Flush()
	}
	s.streamed.Inc()

	// The estimator runs in its own goroutine and closes the stream when
	// done, which ends the event loop below; done closes after that, so
	// the goroutine never blocks on a departed handler — the seam
	// TestEstimateStreamClientDisconnect leans on.
	var resp any
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer stream.Close()
		resp, err = s.run(ctx, c)
	}()

	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				// Stream closed: the run is over and the buffered tail has
				// drained. Emit the terminal frame.
				<-done
				if err != nil {
					writeSSE(w, flusher, "error", "", errorEnvelope{Error: callError(ctx, err)})
				} else {
					writeSSE(w, flusher, "result", "", resp)
				}
				return
			}
			if ev.Type != obs.EvEstimatorState {
				continue
			}
			writeSSE(w, flusher, "state", fmt.Sprintf("id: %d\n", ev.Seq), stateEvent{
				Seq:     ev.Seq,
				StartS:  ev.Time,
				Running: splitRunning(ev.Detail),
			})
		case <-ctx.Done():
			// Client gone (or deadline hit): stop writing, but wait for the
			// estimator goroutine so the handler never leaks it.
			sub.Close()
			<-done
			return
		}
	}
}

// writeSSE writes one SSE frame (event line, optional extra header lines,
// compact JSON data line, blank separator) and flushes it.
func writeSSE(w http.ResponseWriter, flusher http.Flusher, event, extra string, data any) {
	payload, err := json.Marshal(data)
	if err != nil { // cannot happen: all payloads marshal cleanly
		return
	}
	fmt.Fprintf(w, "event: %s\n%sdata: %s\n\n", event, extra, payload)
	if flusher != nil {
		flusher.Flush()
	}
}

// splitRunning parses EvEstimatorState's comma-joined running set back
// into the slice shape the JSON payload carries.
func splitRunning(detail string) []string {
	if detail == "" {
		return []string{}
	}
	return strings.Split(detail, ",")
}
