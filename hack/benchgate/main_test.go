package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lines renders one benchmark's result lines, one per ns/op sample, each
// with a fixed 100 allocs/op unless allocs is false.
func lines(name string, allocs bool, ns ...float64) string {
	var b strings.Builder
	for _, v := range ns {
		fmt.Fprintf(&b, "%s-2   \t     100\t  %g ns/op\t  512 B/op", name, v)
		if allocs {
			b.WriteString("\t     100 allocs/op")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func mustParse(t *testing.T, out string) samples {
	t.Helper()
	s, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// problems returns "name unit: problem" for every failing verdict.
func problems(vs []verdict) []string {
	var out []string
	for _, v := range vs {
		if v.problem != "" {
			out = append(out, fmt.Sprintf("%s %s: %s", v.name, v.unit, v.problem))
		}
	}
	return out
}

var baseOut = "goos: linux\npkg: boedag\n" +
	lines("BenchmarkA", true, 100, 104, 98, 101, 110) +
	lines("BenchmarkB", true, 5000, 5100, 4900, 5050, 4950) +
	"PASS\nok  \tboedag\t2.5s\n"

func TestSelfComparePasses(t *testing.T) {
	s := mustParse(t, baseOut)
	if p := problems(compare(s, s, 0.2)); len(p) != 0 {
		t.Errorf("samples flagged against themselves: %v", p)
	}
}

func TestInjectedSlowdownFlagged(t *testing.T) {
	base := mustParse(t, baseOut)
	fresh := mustParse(t, baseOut)
	scale(fresh, 1.3)
	got := problems(compare(base, fresh, 0.2))
	want := []string{
		"BenchmarkA ns/op: REGRESSED", "BenchmarkA allocs/op: REGRESSED",
		"BenchmarkB ns/op: REGRESSED", "BenchmarkB allocs/op: REGRESSED",
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("1.3x slowdown: got %v, want %v", got, want)
	}
}

// TestOverlappingRangesNotFlagged: a median 1.25x the baseline's is past
// the tolerance, but one fresh sample falls inside the baseline's range,
// so the shift is not told apart from noise.
func TestOverlappingRangesNotFlagged(t *testing.T) {
	base := mustParse(t, lines("BenchmarkA", true, 90, 100, 100, 100, 110))
	fresh := mustParse(t, lines("BenchmarkA", true, 105, 125, 125, 125, 140))
	vs := compare(base, fresh, 0.2)
	if vs[0].ratio() != 1.25 {
		t.Fatalf("median ratio %v, want 1.25", vs[0].ratio())
	}
	if p := problems(vs); len(p) != 0 {
		t.Errorf("overlapping samples flagged: %v", p)
	}
	// Without the overlap the same medians fail.
	fresh = mustParse(t, lines("BenchmarkA", true, 115, 125, 125, 125, 140))
	if p := problems(compare(base, fresh, 0.2)); len(p) != 1 || p[0] != "BenchmarkA ns/op: REGRESSED" {
		t.Errorf("separated samples: got %v", p)
	}
}

func TestMissingBenchmarkFails(t *testing.T) {
	base := mustParse(t, baseOut)
	fresh := mustParse(t, lines("BenchmarkA", true, 100, 104, 98, 101, 110))
	if p := problems(compare(base, fresh, 0.2)); len(p) != 1 || p[0] != "BenchmarkB : MISSING from the new run" {
		t.Errorf("baseline benchmark absent from the new run: got %v", p)
	}
	if p := problems(compare(fresh, base, 0.2)); len(p) != 1 || p[0] != "BenchmarkB : MISSING from the baseline" {
		t.Errorf("new benchmark absent from the baseline: got %v", p)
	}
}

func TestMissingAllocsFails(t *testing.T) {
	base := mustParse(t, baseOut)
	fresh := mustParse(t, lines("BenchmarkA", false, 100, 104, 98, 101, 110)+
		lines("BenchmarkB", false, 5000, 5100, 4900, 5050, 4950))
	want := "BenchmarkA allocs/op: MISSING from the new run|BenchmarkB allocs/op: MISSING from the new run"
	if got := strings.Join(problems(compare(base, fresh, 0.2)), "|"); got != want {
		t.Errorf("run without -benchmem: got %q, want %q", got, want)
	}
	if got := problems(compare(fresh, base, 0.2)); len(got) != 2 {
		t.Errorf("baseline without -benchmem: got %v", got)
	}
}

func TestParseKeepsSamples(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: boedag
cpu: whatever
BenchmarkEstimatorAllocs-8   	     100	  11181844 ns/op	  345678 B/op	    1045 allocs/op
BenchmarkFigure6Sweep-8      	       1	1234567890 ns/op	      85.0 BOE-accuracy-%
BenchmarkEstimatorAllocs-8   	     300	  11000000 ns/op	  345678 B/op	    1045 allocs/op
BenchmarkStreamPolicySweep   	       3	  488000000 ns/op
PASS
ok  	boedag	2.492s
`
	s := mustParse(t, out)
	if len(s) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(s), s)
	}
	ea := s["BenchmarkEstimatorAllocs"]
	if ea == nil {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", s)
	}
	if got := ea["ns/op"]; len(got) != 2 || got[0] != 11181844 || got[1] != 11000000 {
		t.Errorf("ns/op samples = %v, want both runs in order", got)
	}
	if got := ea["allocs/op"]; len(got) != 2 || got[0] != 1045 || got[1] != 1045 {
		t.Errorf("allocs/op samples = %v", got)
	}
	if got := ea["B/op"]; len(got) != 2 || got[0] != 345678 {
		t.Errorf("B/op samples = %v", got)
	}
	if got := s["BenchmarkFigure6Sweep"]["BOE-accuracy-%"]; len(got) != 1 || got[0] != 85 {
		t.Errorf("custom metric = %v, want [85]", got)
	}
	if s["BenchmarkStreamPolicySweep"] == nil {
		t.Errorf("name without a GOMAXPROCS suffix lost: %v", s)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for name, in := range map[string]string{
		"empty":           "PASS\nok boedag 1s\n",
		"bad iterations":  "BenchmarkX-8 zero 5 ns/op\n",
		"zero iterations": "BenchmarkX-8 0 5 ns/op\n",
		"odd pairing":     "BenchmarkX-8 10 5 ns/op 3\n",
		"bad value":       "BenchmarkX-8 10 five ns/op\n",
		"name only":       "BenchmarkX-8\n",
		"no values":       "BenchmarkX-8 10\n",
		"after good":      lines("BenchmarkA", true, 100) + "BenchmarkB-2 10 1 ns/op 2\n",
	} {
		if _, err := parse(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parse succeeded", name)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestRun drives the command as verify.sh does: the samples pass against
// themselves, fail with -inject 1.3 naming every benchmark, and bad
// input or usage exits non-zero.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.txt")
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(good, []byte(baseOut), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte("BenchmarkX-2 10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		code int
		out  string
	}{
		{[]string{"-base", good, "-new", good}, 0, "gate OK"},
		{[]string{"-base", good, "-new", good, "-tol", "0.2", "-inject", "1.3"}, 1,
			"FAIL: BenchmarkA ns/op, BenchmarkA allocs/op, BenchmarkB ns/op, BenchmarkB allocs/op\n"},
		{[]string{"-base", good, "-new", bad}, 1, ""},
		{[]string{"-base", filepath.Join(dir, "absent.txt"), "-new", good}, 1, ""},
		{[]string{"-base", good}, 2, ""},
		{[]string{"-base", good, "-new", good, "extra"}, 2, ""},
		{[]string{"-validate", good}, 2, ""},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.code {
			t.Errorf("%v: exit %d, want %d\n%s%s", c.args, code, c.code, stdout.String(), stderr.String())
		}
		if !strings.Contains(stdout.String(), c.out) {
			t.Errorf("%v: output lacks %q:\n%s", c.args, c.out, stdout.String())
		}
	}
}
