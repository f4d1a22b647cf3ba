package boedag_test

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// internalPackages returns the source-checked non-harness packages under
// internal/, the scope of the internal caller rules.
func (p *program) internalPackages() []*checkedPackage {
	var out []*checkedPackage
	for _, cp := range p.pkgs {
		if strings.HasPrefix(cp.Path, "boedag/internal/") && cp.Path == cp.Owner && !cp.Harness {
			out = append(out, cp)
		}
	}
	return out
}

// declared calls fn for every package-level object of cp declared in a
// non-test file.
func (p *program) declared(cp *checkedPackage, fn func(types.Object)) {
	scope := cp.Types.Scope()
	for _, name := range scope.Names() {
		if obj := scope.Lookup(name); !p.isTest(obj.Pos()) {
			fn(obj)
		}
	}
}

// violation renders one rule breach as "file:line: pkg.Name", the file
// relative to the repository root.
func (p *program) violation(obj types.Object, key string) string {
	pos := p.fset.Position(obj.Pos())
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
			pos.Filename = rel
		}
	}
	return fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, strings.TrimPrefix(key, "boedag/internal/"))
}

// methodSet renders the method set of *T (or of an interface) as name →
// signature, spelled with full package paths and without parameter
// names, so that a method and an interface's requirement of it compare
// equal whether they come from source or from export data.
func methodSet(t types.Type) map[string]string {
	out := map[string]string{}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			out[m.Name()] = signature(m.Type().(*types.Signature))
		}
		return out
	}
	ms := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i).Obj()
		out[m.Name()] = signature(m.Type().(*types.Signature))
	}
	return out
}

// signature spells a method signature's parameter and result types.
func signature(sig *types.Signature) string {
	qual := func(pkg *types.Package) string { return pkg.Path() }
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(types.TypeString(tuple.At(i).Type(), qual))
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// interfaces collects the interface types of the import graph by method
// name: the named interfaces of every imported package, and every
// interface type written in non-test code of either module.
func (p *program) interfaces() map[string][]map[string]string {
	out := map[string][]map[string]string{}
	add := func(t types.Type) {
		if named, ok := t.(*types.Named); ok && named.TypeParams() != nil {
			return
		}
		ms := methodSet(t)
		for name := range ms {
			out[name] = append(out[name], ms)
		}
	}
	for _, pkg := range p.imported {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
				add(tn.Type())
			}
		}
	}
	for _, cp := range p.pkgs {
		for _, f := range cp.Files {
			if p.isTest(f.Pos()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if tv := cp.Info.Types[it]; tv.Type != nil {
						add(tv.Type)
					}
				}
				return true
			})
		}
	}
	return out
}

// required reports whether some interface in ifaces has a method name
// and is satisfied by a receiver with method set ms.
func required(ifaces map[string][]map[string]string, ms map[string]string, name string) bool {
	for _, iface := range ifaces[name] {
		ok := true
		for m, sig := range iface {
			if ms[m] != sig {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestInternalExportsHaveCallers holds internal packages to the root
// caller rule: every exported func, method and package-level var of a
// non-harness internal package is referenced from non-test code of any
// package, its own included, or from another package's tests or
// harnesses (a checker or fixture, such as dag.Workflow.CriticalPath,
// cluster.SingleNode or workload.TotalDemand). A method that some
// interface of the import graph requires of its receiver is exempt: it
// is called through the interface. An export whose only caller is its
// own unit test goes, or moves to that package's export_test.go.
// Constants and types are out of scope. The harnesses (schedtest,
// fleettest) exist for other packages' tests and are not held to it.
func TestInternalExportsHaveCallers(t *testing.T) {
	prog := load(t)
	used := map[string]bool{}
	prog.references(func(key, decl string, at site) {
		if !at.test || at.pkg.Owner != decl {
			used[key] = true
		}
	})
	ifaces := prog.interfaces()

	var uncalled []string
	for _, cp := range prog.internalPackages() {
		prog.declared(cp, func(obj types.Object) {
			switch obj := obj.(type) {
			case *types.Func, *types.Var:
				if key := prog.key(obj); obj.Exported() && !used[key] {
					uncalled = append(uncalled, prog.violation(obj, key))
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() || types.IsInterface(named) {
					return
				}
				ms := methodSet(named)
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					key := prog.key(m)
					if m.Exported() && !prog.isTest(m.Pos()) && !used[key] && !required(ifaces, ms, m.Name()) {
						uncalled = append(uncalled, prog.violation(m, key))
					}
				}
			}
		})
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("internal export has no caller outside its own tests: %s", u)
	}
}

// fieldsWithoutSetter lists the fields the setter rule exempts: a
// from-scratch reference mode that only its equivalence test turns on.
var fieldsWithoutSetter = map[string]bool{
	"boedag/internal/tuning.Options.DisableIncremental": true, // the reference tuning_test.go compares the incremental path against
}

// TestInternalFieldsHaveSetters holds internal structs to the caller
// rule for option fields: every exported field of an exported struct in
// a non-harness internal package is set in non-test code outside the
// harnesses, or in a Benchmark, or carries a json tag (the wire sets
// it), or is on fieldsWithoutSetter. A field that only tests set is a
// knob with one value in use; it becomes a constant or goes.
func TestInternalFieldsHaveSetters(t *testing.T) {
	prog := load(t)
	set := map[string]bool{}
	prog.setters(func(key string, at site) {
		if !at.test && !at.pkg.Harness || at.benchmark {
			set[key] = true
		}
	})

	var unset []string
	for _, cp := range prog.internalPackages() {
		prog.declared(cp, func(obj types.Object) {
			tn, ok := obj.(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				return
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				return
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if _, tagged := reflect.StructTag(st.Tag(i)).Lookup("json"); !f.Exported() || tagged {
					continue
				}
				if key := prog.key(f); !set[key] && !fieldsWithoutSetter[key] {
					unset = append(unset, prog.violation(f, key))
				}
			}
		})
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("internal field is set only by tests or harnesses: %s", u)
	}
}
