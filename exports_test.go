package boedag_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestRootExportsHaveCallers holds the root package to its caller rule:
// every exported function or variable is named somewhere a user would
// meet it, as a boedag.X reference in examples/, cmd/ or a test file, or
// as the subject of an ExampleX function. An export nothing calls is
// deleted, not kept in case.
func TestRootExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	exports := map[string]token.Position{}
	roots, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range roots {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		for _, decl := range parse(path).Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					exports[d.Name.Name] = fset.Position(d.Pos())
				}
			case *ast.GenDecl:
				if d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					for _, name := range spec.(*ast.ValueSpec).Names {
						if name.IsExported() {
							exports[name.Name] = fset.Position(name.Pos())
						}
					}
				}
			}
		}
	}
	if len(exports) == 0 {
		t.Fatal("found no root exports; is the test running in the repository root?")
	}

	called := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		inTree := strings.HasPrefix(path, "examples"+string(filepath.Separator)) ||
			strings.HasPrefix(path, "cmd"+string(filepath.Separator))
		isTest := strings.HasSuffix(path, "_test.go")
		if !strings.HasSuffix(path, ".go") || !(inTree || isTest) {
			return nil
		}
		f := parse(path)
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "boedag" {
					called[sel.Sel.Name] = true
				}
			}
			return true
		})
		if isTest && filepath.Dir(path) == "." {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					if subject, ok := strings.CutPrefix(fn.Name.Name, "Example"); ok {
						subject, _, _ = strings.Cut(subject, "_")
						called[subject] = true
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var uncalled []string
	for name, pos := range exports {
		if !called[name] {
			uncalled = append(uncalled, pos.String()+": "+name)
		}
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("root export has no caller in examples/, cmd/, a test or an Example: %s", u)
	}
}
