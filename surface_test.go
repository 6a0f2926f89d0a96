package dot11fp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestPublicSurfaceNamed keeps api.go to the names a user writes: every
// exported name it declares must appear as dot11fp.X somewhere in the
// commands, the examples, the internal packages or a root test (this
// file aside). A re-export nobody names is surface to document and keep
// stable for no reader; a type a caller only receives needs no alias.
func TestPublicSurfaceNamed(t *testing.T) {
	fset := token.NewFileSet()
	api, err := parser.ParseFile(fset, "api.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, d := range api.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				declared = append(declared, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						declared = append(declared, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							declared = append(declared, n.Name)
						}
					}
				}
			}
		}
	}

	named := map[string]bool{}
	collect := func(path string) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "dot11fp" {
				local = "dot11fp"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					named[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	for _, dir := range []string{"cmd", "examples", "internal"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") {
				collect(path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	roots, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range roots {
		if path != "surface_test.go" {
			collect(path)
		}
	}

	var unnamed []string
	for _, name := range declared {
		if !named[name] {
			unnamed = append(unnamed, name)
		}
	}
	sort.Strings(unnamed)
	if len(unnamed) > 0 {
		t.Errorf("api.go exports %d names no command, example, internal package or root test names as dot11fp.X: %s",
			len(unnamed), strings.Join(unnamed, ", "))
	}
}
