package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"boedag/internal/statemodel"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestPaperNumbersGolden pins the reproduced evaluation at one tenth of
// the paper's data scale bit for bit: every Table III workflow's
// accuracy under each skew mode, every Table II cell's actual and
// estimated task time, and every Figure 6 point. All of them are
// deterministic, so any change to the model, the simulator or the
// solver they share shows here; a change that means to move them
// regenerates the file with -update and says why. Of the paper's shape
// it asserts only what holds at this scale: Alg2-Normal has the best
// average accuracy of the three modes.
func TestPaperNumbersGolden(t *testing.T) {
	cfg := testConfig()
	var b strings.Builder
	num := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

	sum, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sum.Rows {
		fmt.Fprintf(&b, "table3 %s", r.Label)
		for _, mode := range statemodel.Modes() {
			fmt.Fprintf(&b, " %s=%s", mode, num(r.Accuracy[mode]))
		}
		b.WriteString("\n")
	}
	for _, mode := range statemodel.Modes() {
		fmt.Fprintf(&b, "table3 avg %s=%s min %s\n", mode, num(sum.AvgAccuracy[mode]), num(sum.MinAccuracy[mode]))
	}

	rows, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for _, c := range r.Cells {
			fmt.Fprintf(&b, "table2 %s %s s%d %s Δ=%d actual=%d est=%d\n",
				r.DAG, r.Job, c.State, c.Stage, c.Parallelism, c.Actual, c.Estimated)
		}
	}

	series, err := Figure6(cfg, Figure6Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "figure6 %s %s Δ/node=%d actual=%d boe=%d baseline=%d\n",
				s.Workload, s.Stage, p.PerNode, p.Actual, p.BOE, p.Baseline)
		}
	}

	path := filepath.Join("testdata", "paper_scaled10.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}

	normal := sum.AvgAccuracy[statemodel.NormalMode]
	for _, mode := range statemodel.Modes() {
		if mode != statemodel.NormalMode && sum.AvgAccuracy[mode] >= normal {
			t.Errorf("%s averages %.4f, not below Alg2-Normal's %.4f", mode, sum.AvgAccuracy[mode], normal)
		}
	}
}
