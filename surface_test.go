package gps

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestRootSurfaceIsSpelled holds the root package to its rule: every
// exported declaration is spelled as gps.X by some non-test file under
// cmd/ or examples/. A name nobody spells is a one-line alias with no
// caller; the binary that wants it imports the internal package.
func TestRootSurfaceIsSpelled(t *testing.T) {
	fset := token.NewFileSet()
	spelled := map[string]bool{}
	for _, root := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "gps" {
						spelled[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(fset, ".", notTest, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range pkgs["gps"].Files {
		for _, decl := range f.Decls {
			var names []*ast.Ident
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				names = append(names, fd.Name)
			} else if gd, ok := decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = append(names, s.Name)
					case *ast.ValueSpec:
						names = append(names, s.Names...)
					}
				}
			}
			for _, id := range names {
				if id.IsExported() && !spelled[id.Name] {
					t.Errorf("%s: gps.%s is spelled by no non-test file under cmd/ or examples/",
						fset.Position(id.Pos()), id.Name)
				}
			}
		}
	}
}
