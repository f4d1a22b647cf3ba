// Package cliobs wires the observability layer into command-line tools:
// one flag set covering event tracing, live streaming, metrics export,
// OTLP export, and Go profiling, shared by dagsim, boetune, calibrate,
// benchtables and boedagd.
package cliobs

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -pprof server
	"os"
	"runtime"
	"runtime/pprof"

	"boedag/internal/explain"
	"boedag/internal/obs"
)

// Flags carries the observability command-line options.
type Flags struct {
	TraceOut     string // Chrome trace_event JSON output path
	MetricsOut   string // metrics snapshot JSON output path
	Summary      bool   // print a plain-text event digest to stdout
	OTLPOut      string // OTLP/JSON export output path (traces + metrics)
	OTLPEndpoint string // OTLP/HTTP collector base URL to POST to
	LiveProgress bool   // stream events to an online progress estimator
	Explain      bool   // print the estimate explanation after the run
	ExplainOut   string // write the explanation JSON to this file
	PprofAddr    string // serve net/http/pprof on this address
	CPUProfile   string // write a CPU profile here
	MemProfile   string // write a heap profile here

	recorder    *obs.Recorder
	registry    *obs.Registry
	stream      *obs.Stream
	cpuFile     *os.File
	annotations *obs.TraceAnnotations
}

// Register installs the flags on fs (the default command-line set when
// nil).
func (f *Flags) Register(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a Chrome trace_event JSON file (chrome://tracing)")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write a run-metrics JSON snapshot")
	fs.BoolVar(&f.Summary, "obs-summary", false, "print an event summary after the run")
	fs.StringVar(&f.OTLPOut, "otlp-out", "", "write an OTLP/JSON export (spans + metrics) to this file")
	fs.StringVar(&f.OTLPEndpoint, "otlp-endpoint", "", "POST OTLP/JSON to this collector base URL (/v1/traces, /v1/metrics)")
	fs.StringVar(&f.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file")
}

// RegisterLive additionally installs -live-progress, for tools that can
// drive an online progress estimator from the event stream.
func (f *Flags) RegisterLive(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	f.Register(fs)
	fs.BoolVar(&f.LiveProgress, "live-progress", false, "print live remaining-time estimates during the run")
}

// RegisterExplain additionally installs -explain and -explain-out, for
// tools whose estimate can be explained (critical path, per-resource
// bottleneck attribution, θ-sensitivity).
func (f *Flags) RegisterExplain(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	fs.BoolVar(&f.Explain, "explain", false, "print the explained estimate: critical path, bottleneck attribution, θ-sensitivity")
	fs.StringVar(&f.ExplainOut, "explain-out", "", "write the explanation as JSON to this file")
}

// ExplainRequested reports whether any explanation output was asked for,
// so tools can skip building the explanation entirely otherwise.
func (f *Flags) ExplainRequested() bool { return f.Explain || f.ExplainOut != "" }

// Annotate attaches derived trace annotations; Finish merges them into
// the Chrome-trace and OTLP exports (recorded args always win on a key
// collision). WriteExplanation calls this itself.
func (f *Flags) Annotate(a *obs.TraceAnnotations) { f.annotations = a }

// WriteExplanation renders the explanation as requested — -explain text
// to stdout, -explain-out JSON to a file — and registers its trace
// annotations so Finish's exports carry the critical-path markers. Call
// it before Finish.
func (f *Flags) WriteExplanation(e *explain.Explanation) error {
	if e == nil {
		return nil
	}
	f.Annotate(e.TraceAnnotations())
	if f.Explain {
		fmt.Println()
		if err := e.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if f.ExplainOut != "" {
		if err := writeFile(f.ExplainOut, e.WriteJSON); err != nil {
			return err
		}
	}
	return nil
}

// Options starts any requested profiling and returns the obs.Options to
// hand to the simulator or estimator. The tracer, registry, and stream
// are only allocated when an output that needs them was requested, so
// plain runs keep the zero-cost disabled path. When several sinks are
// active the tracer is a tee over all of them.
func (f *Flags) Options() (obs.Options, error) {
	var o obs.Options
	if f.TraceOut != "" || f.Summary || f.OTLPOut != "" || f.OTLPEndpoint != "" {
		f.recorder = obs.NewRecorder()
	}
	if f.LiveProgress {
		f.stream = obs.NewStream()
	}
	// Append conditionally: a nil *Recorder inside a Tracer value is not a
	// nil interface, so Tee could not filter it out itself.
	var sinks []obs.Tracer
	if f.recorder != nil {
		sinks = append(sinks, f.recorder)
	}
	if f.stream != nil {
		sinks = append(sinks, f.stream)
	}
	if len(sinks) > 0 {
		o.Tracer = obs.Tee(sinks...)
	}
	if f.MetricsOut != "" || f.OTLPOut != "" || f.OTLPEndpoint != "" {
		f.registry = obs.NewRegistry()
		o.Metrics = f.registry
	}
	if f.PprofAddr != "" {
		ln := f.PprofAddr
		go func() {
			if err := http.ListenAndServe(ln, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", ln)
	}
	if f.CPUProfile != "" {
		cf, err := os.Create(f.CPUProfile)
		if err != nil {
			return o, err
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			cf.Close()
			return o, err
		}
		f.cpuFile = cf
	}
	return o, nil
}

// Registry returns the metrics registry allocated by Options, or nil when
// no metrics-consuming output was requested. Long-running servers share
// it so their runtime counters appear in -metrics-out / OTLP artifacts.
func (f *Flags) Registry() *obs.Registry { return f.registry }

// Stream returns the live event stream, or nil when -live-progress was
// not requested (or Options has not run yet). Subscribe before the run
// starts: producers snapshot Enabled at startup.
func (f *Flags) Stream() *obs.Stream { return f.stream }

// CloseStream closes the live stream so its consumers drain and
// terminate. Idempotent and safe when no stream exists; call it after
// the observed run, before printing any post-run report, so live output
// does not interleave.
func (f *Flags) CloseStream() {
	if f.stream != nil {
		f.stream.Close()
	}
}

// Finish stops profiling and writes every requested artifact, printing
// the path of each file it creates. It closes the live stream first so
// streaming consumers are done before post-run artifacts land.
func (f *Flags) Finish() error {
	f.CloseStream()
	if f.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := f.cpuFile.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", f.CPUProfile)
	}
	if f.MemProfile != "" {
		mf, err := os.Create(f.MemProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(mf)
		if cerr := mf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", f.MemProfile)
	}
	if f.recorder != nil && f.TraceOut != "" {
		if err := writeFile(f.TraceOut, func(w io.Writer) error {
			return obs.WriteChromeTraceAnnotated(w, f.recorder.Events(), f.annotations)
		}); err != nil {
			return err
		}
	}
	if f.registry != nil && f.MetricsOut != "" {
		if err := writeFile(f.MetricsOut, f.registry.WriteJSON); err != nil {
			return err
		}
	}
	if f.OTLPOut != "" {
		if err := writeFile(f.OTLPOut, func(w io.Writer) error {
			return obs.WriteOTLP(w, f.recorder.Events(), f.registry, obs.OTLPOptions{Annotations: f.annotations})
		}); err != nil {
			return err
		}
	}
	if f.OTLPEndpoint != "" {
		if err := obs.PostOTLP(f.OTLPEndpoint, f.recorder.Events(), f.registry, obs.OTLPOptions{Annotations: f.annotations}); err != nil {
			return err
		}
		fmt.Printf("posted OTLP to %s\n", f.OTLPEndpoint)
	}
	if f.recorder != nil && f.Summary {
		fmt.Println()
		obs.WriteSummary(os.Stdout, f.recorder.Events())
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(w); err != nil {
		w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
