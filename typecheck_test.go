package boedag_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// This file is the shared loader of the caller rules: it type-checks
// every package of both modules (the root module and perfbench/) from
// source, against compiler export data for their imports, once per test
// binary. The rules then read references and setters off the result.

// listedPackage is the part of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath   string
	Name         string
	Dir          string
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	TestImports  []string
	XTestImports []string
}

// checkedPackage is one type-checked unit: a package with its
// in-package test files, or an external test package (Path ends in
// "_test").
type checkedPackage struct {
	Path    string // import path as checked
	Owner   string // import path of the package under test
	Harness bool   // a test-harness package (schedtest, fleettest)
	Files   []*ast.File
	Info    *types.Info
	Types   *types.Package
}

// program is both modules, type-checked.
type program struct {
	fset *token.FileSet
	pkgs []*checkedPackage
	// keys names every package-level func and var, method and struct
	// field of the loaded packages as "path.Name" or "path.Type.Name".
	// A package's own source and its export data make distinct objects
	// for one declaration; both map to the same key.
	keys map[types.Object]string
	// imported lists the export-data packages the checks reached.
	imported []*types.Package
}

// modules are the directories of the repository's Go modules.
var modules = []string{".", "perfbench"}

// loadProgram lists and type-checks both modules. `go list -deps
// -export` runs once per module per test binary, however many rules
// read the result.
var loadProgram = sync.OnceValues(func() (*program, error) {
	var pkgs []listedPackage
	exports := map[string]string{}
	for _, dir := range modules {
		listed, err := goList(dir, "-json=ImportPath,Name,Dir,GoFiles,TestGoFiles,XTestGoFiles,TestImports,XTestImports", "./...")
		if err != nil {
			return nil, err
		}
		deps := []string{}
		for _, p := range listed {
			deps = append(deps, p.ImportPath)
			deps = append(deps, p.TestImports...)
			deps = append(deps, p.XTestImports...)
		}
		built, err := goList(dir, append([]string{"-deps", "-export", "-json=ImportPath,Export"}, deps...)...)
		if err != nil {
			return nil, err
		}
		for _, p := range built {
			if exports[p.ImportPath] == "" {
				exports[p.ImportPath] = p.Export
			}
		}
		pkgs = append(pkgs, listed...)
	}

	prog := &program{fset: token.NewFileSet(), keys: map[types.Object]string{}}
	imp := importer.ForCompiler(prog.fset, "gc", func(path string) (io.ReadCloser, error) {
		if file := exports[path]; file != "" {
			return os.Open(file)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	// check type-checks one unit. Type errors (an external test reaching
	// into export_test.go, say) are tolerated: every reference that
	// resolves is still recorded.
	check := func(path, owner string, harness bool, dir string, names []string) error {
		cp := &checkedPackage{Path: path, Owner: owner, Harness: harness}
		for _, name := range names {
			f, err := parser.ParseFile(prog.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			cp.Files = append(cp.Files, f)
		}
		cp.Info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp, Error: func(error) {}}
		cp.Types, _ = conf.Check(path, prog.fset, cp.Files, cp.Info)
		prog.addKeys(cp.Types)
		prog.pkgs = append(prog.pkgs, cp)
		return nil
	}
	for _, p := range pkgs {
		harness := strings.HasSuffix(p.Name, "test")
		if err := check(p.ImportPath, p.ImportPath, harness, p.Dir, append(p.GoFiles, p.TestGoFiles...)); err != nil {
			return nil, err
		}
		if len(p.XTestGoFiles) > 0 {
			if err := check(p.ImportPath+"_test", p.ImportPath, false, p.Dir, p.XTestGoFiles); err != nil {
				return nil, err
			}
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		for _, dep := range pkg.Imports() {
			if !seen[dep] {
				seen[dep] = true
				prog.imported = append(prog.imported, dep)
				prog.addKeys(dep)
				walk(dep)
			}
		}
	}
	for _, cp := range prog.pkgs {
		walk(cp.Types)
	}
	return prog, nil
})

// lookup returns the source-checked package with the import path.
func (p *program) lookup(t *testing.T, path string) *types.Package {
	t.Helper()
	for _, cp := range p.pkgs {
		if cp.Path == path {
			return cp.Types
		}
	}
	t.Fatalf("package %s not loaded", path)
	return nil
}

// load returns the shared program, failing t if it could not be built.
func load(t *testing.T) *program {
	t.Helper()
	prog, err := loadProgram()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// goList runs `go list` with args in dir and decodes its stream of JSON
// package objects.
func goList(dir string, args ...string) ([]listedPackage, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// addKeys records the keys of pkg's package-level funcs and vars, and
// of the methods and struct fields of its named types.
func (p *program) addKeys(pkg *types.Package) {
	if pkg == nil {
		return
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		prefix := pkg.Path() + "." + name
		switch obj := scope.Lookup(name).(type) {
		case *types.Func, *types.Var:
			p.keys[obj] = prefix
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok || obj.IsAlias() {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				p.keys[named.Method(i)] = prefix + "." + named.Method(i).Name()
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					p.keys[st.Field(i)] = prefix + "." + st.Field(i).Name()
				}
			}
		}
	}
}

// key returns obj's key, or "" for an object outside the keyed set
// (locals, universe objects, interface methods).
func (p *program) key(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	return p.keys[obj]
}

// isTest reports whether the node at pos lies in a _test.go file.
func (p *program) isTest(pos token.Pos) bool {
	return strings.HasSuffix(p.fset.File(pos).Name(), "_test.go")
}

// site is where a reference or a setter occurs.
type site struct {
	pkg       *checkedPackage
	test      bool // in a _test.go file
	benchmark bool // inside a Benchmark function of a test file
}

// references calls fn for every use of a keyed object, with the import
// path of the package that declares it.
func (p *program) references(fn func(key, decl string, at site)) {
	for _, cp := range p.pkgs {
		for id, obj := range cp.Info.Uses {
			if key := p.key(obj); key != "" {
				fn(key, obj.Pkg().Path(), site{pkg: cp, test: p.isTest(id.Pos())})
			}
		}
	}
}

// setters calls fn for every struct field a statement or expression
// sets: a keyed or unkeyed composite-literal element, the left side of
// an assignment or inc/dec, or the operand of &. Every field selected
// on the way to an assigned location counts: `opt.Observe.Tracer = tr`
// sets Observe too.
func (p *program) setters(fn func(key string, at site)) {
	for _, cp := range p.pkgs {
		info := cp.Info
		var at site
		hit := func(obj types.Object) {
			if key := p.key(obj); key != "" {
				fn(key, at)
			}
		}
		lvalue := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.SelectorExpr:
					if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
						hit(sel.Obj())
					}
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.ParenExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				default:
					return
				}
			}
		}
		mark := func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				var st *types.Struct
				if tv := info.Types[n]; tv.Type != nil {
					st, _ = tv.Type.Underlying().(*types.Struct)
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							hit(info.Uses[key])
						}
					} else if st != nil && i < st.NumFields() {
						hit(st.Field(i))
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					lvalue(lhs)
				}
			case *ast.IncDecStmt:
				lvalue(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					lvalue(n.X)
				}
			}
			return true
		}
		for _, f := range cp.Files {
			test := p.isTest(f.Pos())
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				at = site{pkg: cp, test: test, benchmark: test && ok && strings.HasPrefix(fd.Name.Name, "Benchmark")}
				ast.Inspect(decl, mark)
			}
		}
	}
}
