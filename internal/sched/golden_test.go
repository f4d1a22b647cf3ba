package sched_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"boedag/internal/sched"
	"boedag/internal/sched/schedtest"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenSeeds is the number of generator seeds the hierarchical
// golden pins.
const goldenSeeds = 300

// TestHierarchyGolden pins AllocateHierarchy's Grants and Evict over the
// seeded scenario corpus and its edge variants, map for map: a held
// job's zero grant entry and a nil Evict ("-") are part of the output.
// Regenerate with `go test ./internal/sched -run TestHierarchyGolden
// -update` only when the allocation semantics change on purpose.
func TestHierarchyGolden(t *testing.T) {
	var b bytes.Buffer
	for seed := int64(0); seed < goldenSeeds; seed++ {
		r := schedtest.New(seed)
		variants := edgeVariants(r, r.Scenario())
		names := make([]string, 0, len(variants))
		for name := range variants {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s := variants[name]
			res := sched.AllocateHierarchy(s.Pool, s.Hierarchy, s.Requests, s.Held)
			evict := "-"
			if res.Evict != nil {
				evict = schedtest.FormatAllocation(res.Evict)
			}
			fmt.Fprintf(&b, "seed %d %s grants %s| evict %s\n", seed, name, schedtest.FormatAllocation(res.Grants), evict)
		}
	}
	path := filepath.Join("testdata", "hierarchy_corpus.golden")
	if *update {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got := b.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, golden has %d", len(gl), len(wl))
	}
}
