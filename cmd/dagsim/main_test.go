package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// childEnv makes the test binary run main instead of the tests, so each
// case drives the real command: flag parsing, stdout and exit status.
const childEnv = "DAGSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// dagsim runs the command with args in dir and returns its stdout,
// failing the test on a non-zero exit.
func dagsim(t *testing.T, dir string, args ...string) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("dagsim %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out)
}

// costLine is the estimator's wall-clock timing, the one line of output
// that varies between runs.
var costLine = regexp.MustCompile(`(?m)^estimation cost: .*$`)

func mask(out string) string {
	return costLine.ReplaceAllString(out, "estimation cost: <masked>")
}

// TestGolden pins the command's stdout, byte for byte apart from the
// masked timing line. Each case runs in its own directory with relative
// output paths; setup, when set, runs first in the same directory.
// Regenerate with: go test ./cmd/dagsim -run TestGolden -update
func TestGolden(t *testing.T) {
	cases := []struct {
		name  string
		setup []string
		args  []string
	}{
		{name: "wc-ts", args: []string{"-workflow", "wc+ts", "-micro-gb", "5"}},
		{name: "multi-tasks", args: []string{"-workflow", "wc,ts,q5", "-micro-gb", "5", "-scale", "5", "-tasks"}},
		{name: "explain", args: []string{"-workflow", "wc+ts", "-micro-gb", "5", "-explain"}},
		{name: "q21-live", args: []string{"-workflow", "q21", "-micro-gb", "5", "-scale", "5", "-live-progress"}},
		{name: "pernode-explain", args: []string{"-workflow", "wc+ts", "-micro-gb", "5", "-pernode", "2", "-explain"}},
		{name: "mode-normal", args: []string{"-micro-gb", "5", "-mode", "normal"}},
		{name: "predict-only-explain", args: []string{"-micro-gb", "5", "-validate=false", "-explain"}},
		{name: "predict-explain", args: []string{"-micro-gb", "5", "-mode", "mean", "-explain"}},
		{name: "save-profiles", args: []string{"-micro-gb", "5", "-mode", "mean", "-save-profiles", "p.json"}},
		{name: "profiles", setup: []string{"-micro-gb", "5", "-save-profiles", "p.json"},
			args: []string{"-workflow", "ts+q5", "-micro-gb", "5", "-scale", "5", "-profiles", "p.json"}},
		{name: "q21-median-live", args: []string{"-workflow", "q21", "-micro-gb", "5", "-scale", "5", "-mode", "median", "-live-progress"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if c.setup != nil {
				dagsim(t, dir, c.setup...)
			}
			got := mask(dagsim(t, dir, c.args...))
			path := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("dagsim %s: stdout differs from %s\ngot:\n%s\nwant:\n%s",
					strings.Join(c.args, " "), path, got, want)
			}
		})
	}
}

// explainedMakespan runs dagsim with args plus -explain-out and returns
// the explained makespan in seconds.
func explainedMakespan(t *testing.T, args ...string) float64 {
	t.Helper()
	dir := t.TempDir()
	dagsim(t, dir, append(args, "-explain-out", "e.json")...)
	raw, err := os.ReadFile(filepath.Join(dir, "e.json"))
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		MakespanS float64 `json:"makespan_s"`
	}
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	return e.MakespanS
}

// TestExplainHonoursRunOptions checks that -explain models the run's own
// slot cap: the explanation of a plain run must match the explanation of
// the printed -mode mean plan under the same flags, and the cap must
// show in it.
func TestExplainHonoursRunOptions(t *testing.T) {
	base := []string{"-workflow", "wc+ts", "-micro-gb", "5"}
	capped := append(base[:len(base):len(base)], "-pernode", "2")
	got := explainedMakespan(t, capped...)
	want := explainedMakespan(t, append(capped, "-mode", "mean", "-validate=false")...)
	if got != want {
		t.Errorf("-pernode 2 -explain explains a %.1fs makespan; the -mode mean plan is %.1fs", got, want)
	}
	if uncapped := explainedMakespan(t, base...); got <= uncapped {
		t.Errorf("capped makespan %.1fs is not above the uncapped %.1fs", got, uncapped)
	}
}
