package synthdag

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestGenerateValidAndSized(t *testing.T) {
	for _, c := range []Config{
		{},
		{Layers: 3, Width: 5, FanIn: 2, Seed: 42},
		{Layers: 20, Width: 50, FanIn: 3, Seed: 1},
		{Layers: 2, Width: 1, FanIn: 5, Seed: 9}, // fan-in capped at width
	} {
		w := Generate(c)
		if err := w.Validate(); err != nil {
			t.Fatalf("%s: invalid workflow: %v", w.Name, err)
		}
		cd := c.withDefaults()
		if got, want := len(w.Jobs), cd.Layers*cd.Width; got != want {
			t.Fatalf("%s: %d jobs, want %d", w.Name, got, want)
		}
		if got := len(w.Roots()); got != cd.Width {
			t.Fatalf("%s: %d roots, want width %d", w.Name, got, cd.Width)
		}
		for _, j := range w.Jobs[cd.Width:] {
			if len(j.Deps) != cd.FanIn {
				t.Fatalf("%s: job %s has %d deps, want %d", w.Name, j.ID, len(j.Deps), cd.FanIn)
			}
			seen := map[string]bool{}
			for _, d := range j.Deps {
				if seen[d] {
					t.Fatalf("%s: job %s depends on %s twice", w.Name, j.ID, d)
				}
				seen[d] = true
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Layers: 5, Width: 8, FanIn: 2, Seed: 7})
	b := Generate(Config{Layers: 5, Width: 8, FanIn: 2, Seed: 7})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different workflows")
	}
	c := Generate(Config{Layers: 5, Width: 8, FanIn: 2, Seed: 8})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical workflows")
	}
}

// The estimator's dist cache shares solves only between adjacent
// identical groups, so layers must be contiguous runs in sorted ID
// order.
func TestIDsSortLayerContiguous(t *testing.T) {
	w := Generate(Config{Layers: 4, Width: 12, FanIn: 3, Seed: 3})
	ids := make([]string, len(w.Jobs))
	for i, j := range w.Jobs {
		ids[i] = j.ID
	}
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	if !reflect.DeepEqual(ids, sorted) {
		t.Fatal("declaration order is not sorted layer-major order")
	}
	layerOf := func(id string) string { return strings.SplitN(id, ".", 2)[0] }
	last := ""
	seen := map[string]bool{}
	for _, id := range sorted {
		l := layerOf(id)
		if l != last {
			if seen[l] {
				t.Fatalf("layer %s is not contiguous in sorted order", l)
			}
			seen[l] = true
			last = l
		}
	}
}

func TestNameParseRoundTrip(t *testing.T) {
	for _, c := range []Config{
		{},
		{Layers: 100, Width: 100, FanIn: 3, Seed: 1},
		{Layers: 7, Width: 13, FanIn: 4, Seed: 99},
	} {
		got, ok := Parse(c.Name())
		if !ok {
			t.Fatalf("Parse(%q) failed", c.Name())
		}
		if got != c.withDefaults() {
			t.Fatalf("Parse(%q) = %+v, want %+v", c.Name(), got, c.withDefaults())
		}
	}
	if c, ok := Parse("synth-10k"); !ok || c.Layers*c.Width != 10000 {
		t.Fatalf("synth-10k: ok=%v jobs=%d, want 10000", ok, c.Layers*c.Width)
	}
	if c, ok := Parse("synth-1k"); !ok || c.Layers*c.Width != 1000 {
		t.Fatalf("synth-1k: ok=%v jobs=%d, want 1000", ok, c.Layers*c.Width)
	}
	for _, bad := range []string{"wc", "synth-", "synth-x3", "synth-l0-w5", "synth-l5-w0", "synth-lq", "synth-l", "tpch-q1"} {
		if _, ok := Parse(bad); ok {
			t.Fatalf("Parse(%q) unexpectedly succeeded", bad)
		}
	}
}

func TestProfilesAreBucketed(t *testing.T) {
	w := Generate(Config{Layers: 10, Width: 40, FanIn: 3, Seed: 1})
	classes := map[string]bool{}
	for _, j := range w.Jobs {
		classes[fmt.Sprintf("%s/%d", j.Profile.Name, int64(j.Profile.InputBytes))] = true
	}
	if len(classes) > len(catalog()) {
		t.Fatalf("%d profile classes exceed the catalog's %d", len(classes), len(catalog()))
	}
	if len(classes) < 2 {
		t.Fatal("generator degenerated to a single profile class")
	}
}
