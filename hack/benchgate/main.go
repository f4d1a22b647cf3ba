// Command benchgate is the micro-benchmark regression gate behind
// hack/verify.sh. It reads two files of raw `go test -bench -benchmem
// -count N` output — the committed baseline and a fresh run of the same
// recipe (hack/benchsamples.sh) — and, for every benchmark, holds the
// fresh ns/op and allocs/op samples against the baseline's.
//
// A unit regresses when both of these hold: its fresh median is more
// than -tol above the baseline median, and every fresh sample lies
// above every baseline sample. The second condition keeps one noisy
// sample, or a shift smaller than the run-to-run spread, from failing
// the gate. A benchmark present on one side only, or a gated unit
// missing from either side (a run without -benchmem has no allocs/op),
// fails too: the gate cannot pass on coverage it did not measure.
//
// Usage:
//
//	benchgate -base hack/bench_baseline.txt -new fresh.txt -tol 0.2
//	benchgate -base fresh.txt -new fresh.txt -tol 0.2 -inject 1.3   # self-check: must fail
//
// -inject multiplies every fresh ns/op and allocs/op sample by the given
// factor before comparing. verify.sh compares a fresh run against
// itself with -inject 1.3 to prove the gate fires on a 1.3× slowdown.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// gatedUnits are the units the gate compares, in report order.
var gatedUnits = []string{"ns/op", "allocs/op"}

// samples maps a benchmark name (GOMAXPROCS suffix stripped) to its
// values per unit, one value per result line, in input order.
type samples map[string]map[string][]float64

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, prints the report to stdout and
// returns the exit code (0 pass, 1 fail or error, 2 usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		base   = fs.String("base", "", "baseline go-bench output")
		fresh  = fs.String("new", "", "fresh go-bench output to hold against the baseline")
		tol    = fs.Float64("tol", 0.2, "relative median tolerance (0.2 = a median more than 1.2x the baseline's can fail)")
		inject = fs.Float64("inject", 1, "multiply fresh ns/op and allocs/op by this factor first (gate self-check)")
	)
	if err := fs.Parse(args); err != nil || *base == "" || *fresh == "" || fs.NArg() > 0 {
		fs.Usage()
		return 2
	}
	b, err := parseFile(*base)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 1
	}
	f, err := parseFile(*fresh)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 1
	}
	if *inject != 1 {
		scale(f, *inject)
		fmt.Fprintf(stdout, "injected a synthetic %.2fx slowdown into %s\n", *inject, *fresh)
	}
	return report(stdout, compare(b, f, *tol), *tol)
}

// report prints one line per verdict and a closing summary naming every
// failure, and returns the exit code.
func report(w io.Writer, verdicts []verdict, tol float64) int {
	fmt.Fprintf(w, "%-34s %-10s %14s %14s %7s\n", "benchmark", "unit", "base median", "new median", "ratio")
	var failed []string
	for _, v := range verdicts {
		if v.problem != "" {
			failed = append(failed, strings.TrimSpace(v.name+" "+v.unit))
		}
		if v.unit == "" {
			fmt.Fprintf(w, "%-34s %s\n", v.name, v.problem)
			continue
		}
		fmt.Fprintf(w, "%-34s %-10s %14.6g %14.6g %6.2fx  %s\n",
			v.name, v.unit, v.base, v.fresh, v.ratio(), v.problem)
	}
	if len(failed) > 0 {
		fmt.Fprintf(w, "FAIL: %s\n", strings.Join(failed, ", "))
		return 1
	}
	fmt.Fprintf(w, "gate OK: no median more than %.0f%% above the baseline with separated samples\n", tol*100)
	return 0
}

// verdict is the gate's finding for one benchmark and unit; unit is
// empty when the whole benchmark is missing from one side.
type verdict struct {
	name, unit  string
	base, fresh float64 // medians
	problem     string  // empty when the unit passes
}

func (v verdict) ratio() float64 {
	if v.base == 0 {
		return 0
	}
	return v.fresh / v.base
}

// compare applies the gate rule to every benchmark either side ran,
// in name order.
func compare(base, fresh samples, tol float64) []verdict {
	names := make([]string, 0, len(base)+len(fresh))
	for name := range base {
		names = append(names, name)
	}
	for name := range fresh {
		if base[name] == nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var out []verdict
	for _, name := range names {
		b, f := base[name], fresh[name]
		switch {
		case f == nil:
			out = append(out, verdict{name: name, problem: "MISSING from the new run"})
			continue
		case b == nil:
			out = append(out, verdict{name: name, problem: "MISSING from the baseline"})
			continue
		}
		for _, unit := range gatedUnits {
			v := verdict{name: name, unit: unit}
			bs, fs := b[unit], f[unit]
			switch {
			case len(bs) == 0:
				v.problem = "MISSING from the baseline"
			case len(fs) == 0:
				v.problem = "MISSING from the new run"
			default:
				v.base, v.fresh = median(bs), median(fs)
				if v.fresh > v.base*(1+tol) && slices.Min(fs) > slices.Max(bs) {
					v.problem = "REGRESSED"
				}
			}
			out = append(out, v)
		}
	}
	return out
}

// scale multiplies every gated sample by factor.
func scale(s samples, factor float64) {
	for _, units := range s {
		for _, unit := range gatedUnits {
			for i := range units[unit] {
				units[unit][i] *= factor
			}
		}
	}
}

func parseFile(path string) (samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// parse reads `go test -bench` output. Lines that do not start with
// "Benchmark" (goos/pkg headers, PASS/ok trailers) are skipped; every
// line that does must be a result line — name, iteration count, then
// value/unit pairs — or the whole input is rejected. A name's
// -GOMAXPROCS suffix is stripped so runs compare across machines, and
// repeated runs of one benchmark (-count > 1) stay separate samples.
func parse(r io.Reader) (samples, error) {
	out := make(samples)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for line := 1; sc.Scan(); line++ {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if len(fields) < 4 || len(fields)%2 != 0 {
			return nil, fmt.Errorf("line %d: not a benchmark result: %q", line, sc.Text())
		}
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if n, err := strconv.ParseInt(fields[1], 10, 64); err != nil || n < 1 {
			return nil, fmt.Errorf("line %d: bad iteration count %q", line, fields[1])
		}
		units := out[name]
		if units == nil {
			units = make(map[string][]float64)
			out[name] = units
		}
		for i := 2; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad value %q", line, fields[i])
			}
			units[fields[i+1]] = append(units[fields[i+1]], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark results found")
	}
	return out, nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
