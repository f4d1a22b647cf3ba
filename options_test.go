package boedag_test

import (
	"path/filepath"
	"sort"
	"testing"

	"go/types"
)

// TestEngineOptionsHaveCallers holds the two engines' option structs to
// the caller rule: every field of statemodel.Options and
// simulator.Options is set outside its own package, in a non-test file
// or in a Benchmark function. A field no caller sets is a knob with one
// value in use; it becomes a constant or goes. Setters are resolved by
// type, so a field name the two structs share counts only for its own
// struct.
func TestEngineOptionsHaveCallers(t *testing.T) {
	prog := load(t)
	// fields maps each option field's key to its owning package.
	fields := map[string]string{}
	for _, path := range []string{"boedag/internal/statemodel", "boedag/internal/simulator"} {
		st := prog.lookup(t, path).Scope().Lookup("Options").Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			fields[prog.key(st.Field(i))] = path
		}
	}
	set := map[string]bool{}
	prog.setters(func(key string, at site) {
		if owner := fields[key]; owner != "" && owner != at.pkg.Owner && (!at.test || at.benchmark) {
			set[key] = true
		}
	})

	var unset []string
	for key, path := range fields {
		if !set[key] {
			unset = append(unset, filepath.Base(path)+key[len(path):])
		}
	}
	sort.Strings(unset)
	for _, name := range unset {
		t.Errorf("%s has no setter outside its package (in a non-test file or a Benchmark)", name)
	}
}
