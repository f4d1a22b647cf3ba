// Package synthdag generates seeded layered random DAG workflows — the
// scale corpus behind the estimator's 10k-job target and the
// incremental-vs-from-scratch equivalence suite. A generated workflow
// has Layers layers of Width jobs; every non-root job depends on FanIn
// distinct jobs of the previous layer, so depth, width and wiring are
// independently tunable. Job profiles are drawn from a small bucketed
// catalog (two micro-benchmark shapes × four input sizes), which makes
// many jobs per layer share an identical profile class — exactly the
// shape a production DAG of templated stages has, and what lets the
// estimator's dist cache collapse a layer's task-time solves.
//
// Job IDs are "lLLL.NNNN": they sort layer-major with each layer
// contiguous, so identical-class jobs sit adjacent in the estimator's
// running order. Generation is fully deterministic in Config.
package synthdag

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"boedag/internal/dag"
	"boedag/internal/units"
	"boedag/internal/workload"
)

// Config sizes one synthetic workflow.
type Config struct {
	// Layers is the DAG depth (default 10).
	Layers int
	// Width is the number of jobs per layer (default 10).
	Width int
	// FanIn is the number of previous-layer dependencies per non-root
	// job, capped at Width (default 3).
	FanIn int
	// Seed drives profile choice and dependency wiring (default 1).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Layers <= 0 {
		c.Layers = 10
	}
	if c.Width <= 0 {
		c.Width = 10
	}
	if c.FanIn <= 0 {
		c.FanIn = 3
	}
	if c.FanIn > c.Width {
		c.FanIn = c.Width
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Name renders the canonical registry name, e.g. "synth-l100-w100-f3-s1".
func (c Config) Name() string {
	c = c.withDefaults()
	return fmt.Sprintf("synth-l%d-w%d-f%d-s%d", c.Layers, c.Width, c.FanIn, c.Seed)
}

// Parse inverts Name, accepting any field order and two convenience
// aliases: "synth-1k" (20×50) and "synth-10k" (100×100). ok is false
// for names outside the synth- namespace or with malformed fields.
func Parse(name string) (Config, bool) {
	name = strings.ToLower(strings.TrimSpace(name))
	rest, found := strings.CutPrefix(name, "synth-")
	if !found || rest == "" {
		return Config{}, false
	}
	switch rest {
	case "1k":
		return Config{Layers: 20, Width: 50, FanIn: 3, Seed: 1}, true
	case "10k":
		return Config{Layers: 100, Width: 100, FanIn: 3, Seed: 1}, true
	}
	var c Config
	for _, f := range strings.Split(rest, "-") {
		if len(f) < 2 {
			return Config{}, false
		}
		var v int
		if _, err := fmt.Sscanf(f[1:], "%d", &v); err != nil || v <= 0 {
			return Config{}, false
		}
		switch f[0] {
		case 'l':
			c.Layers = v
		case 'w':
			c.Width = v
		case 'f':
			c.FanIn = v
		case 's':
			c.Seed = int64(v)
		default:
			return Config{}, false
		}
	}
	if c.Layers == 0 || c.Width == 0 {
		return Config{}, false
	}
	return c.withDefaults(), true
}

// catalog is the bucketed profile classes jobs draw from. Buckets — not
// per-job sizes — so a layer holds many identical profiles.
func catalog() []workload.JobProfile {
	sizes := []units.Bytes{2 * units.GB, 8 * units.GB, 16 * units.GB, 32 * units.GB}
	out := make([]workload.JobProfile, 0, 2*len(sizes))
	for _, sz := range sizes {
		out = append(out, workload.WordCount(sz), workload.TeraSort(sz))
	}
	return out
}

// Generate builds the workflow for the config. The result is valid by
// construction (dependencies only point one layer up) and identical for
// identical configs.
func Generate(c Config) *dag.Workflow {
	c = c.withDefaults()
	rng := rand.New(rand.NewSource(c.Seed))
	classes := catalog()
	w := &dag.Workflow{Name: c.Name()}
	picks := make([]int, c.Width)
	for layer := 0; layer < c.Layers; layer++ {
		// Sorted class picks put identical classes at consecutive IDs, so
		// they sit adjacent in the estimator's running order — the layout
		// that lets its dist cache collapse a layer to one solve per
		// class. Templated production DAGs schedule the same way.
		for i := range picks {
			picks[i] = rng.Intn(len(classes))
		}
		sort.Ints(picks)
		for i := 0; i < c.Width; i++ {
			job := dag.Job{
				ID:      fmt.Sprintf("l%03d.%04d", layer, i),
				Profile: classes[picks[i]],
			}
			if layer > 0 {
				// FanIn distinct parents from the previous layer.
				for _, p := range rng.Perm(c.Width)[:c.FanIn] {
					job.Deps = append(job.Deps, fmt.Sprintf("l%03d.%04d", layer-1, p))
				}
			}
			w.Jobs = append(w.Jobs, job)
		}
	}
	return w
}
