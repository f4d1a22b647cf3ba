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
	"sort"
	"strings"
	"testing"
)

// listedPackage is the part of `go list -json` output the option-caller
// rule reads.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	TestImports  []string
	XTestImports []string
}

// goList runs `go list` with args in the module root and decodes its
// stream of JSON package objects.
func goList(t *testing.T, args ...string) []listedPackage {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

// TestEngineOptionsHaveCallers holds the two engines' option structs to
// the caller rule: every field of statemodel.Options and
// simulator.Options is set outside its own package, by a keyed
// composite-literal element or an assignment, in a non-test file or in
// a Benchmark function. A field no caller sets is a knob with one value
// in use; it becomes a constant or goes. Setters are resolved by type,
// so a field name the two structs share counts only for its own struct.
func TestEngineOptionsHaveCallers(t *testing.T) {
	pkgs := goList(t, "-json=ImportPath,Dir,GoFiles,TestGoFiles,XTestGoFiles,TestImports,XTestImports", "./...")
	var deps []string
	for _, p := range pkgs {
		deps = append(deps, p.ImportPath)
		deps = append(deps, p.TestImports...)
		deps = append(deps, p.XTestImports...)
	}
	exports := map[string]string{}
	for _, p := range goList(t, append([]string{"-deps", "-export", "-json=ImportPath,Export"}, deps...)...) {
		exports[p.ImportPath] = p.Export
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if file := exports[path]; file != "" {
			return os.Open(file)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})

	// fields maps each option field to its owning package's import path.
	fields := map[*types.Var]string{}
	for _, path := range []string{"boedag/internal/statemodel", "boedag/internal/simulator"} {
		pkg, err := imp.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		st := pkg.Scope().Lookup("Options").Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			fields[st.Field(i)] = path
		}
	}

	set := map[*types.Var]bool{}
	// check type-checks one package's files and marks the option fields
	// they set. Type errors (an xtest reaching into export_test.go, say)
	// are tolerated: every setter that resolves is still recorded.
	check := func(path, dir string, names []string) {
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
		conf := types.Config{Importer: imp, Error: func(error) {}}
		_, _ = conf.Check(path, fset, files, info)
		owner := strings.TrimSuffix(path, "_test")
		hit := func(obj types.Object) {
			if v, ok := obj.(*types.Var); ok && fields[v] != "" && fields[v] != owner {
				set[v] = true
			}
		}
		// lvalue marks every field selected on the way to an assigned
		// location: `opt.Observe.Tracer = tr` sets Observe.
		lvalue := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.SelectorExpr:
					if sel := info.Selections[x]; sel != nil {
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
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							hit(info.Uses[key])
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					lvalue(lhs)
				}
			case *ast.IncDecStmt:
				lvalue(n.X)
			}
			return true
		}
		for _, f := range files {
			test := strings.HasSuffix(fset.File(f.Pos()).Name(), "_test.go")
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); test && (!ok || !strings.HasPrefix(fn.Name.Name, "Benchmark")) {
					continue
				}
				ast.Inspect(decl, mark)
			}
		}
	}
	for _, p := range pkgs {
		check(p.ImportPath, p.Dir, append(p.GoFiles, p.TestGoFiles...))
		if len(p.XTestGoFiles) > 0 {
			check(p.ImportPath+"_test", p.Dir, p.XTestGoFiles)
		}
	}

	var unset []string
	for v, path := range fields {
		if !set[v] {
			unset = append(unset, filepath.Base(path)+".Options."+v.Name())
		}
	}
	sort.Strings(unset)
	for _, name := range unset {
		t.Errorf("%s has no setter outside its package (in a non-test file or a Benchmark)", name)
	}
}
