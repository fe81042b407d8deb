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

// TestOneCommitSite holds the replication path to its rule: outside
// tests, the benchmark driver and the examples, a snapshot is indexed in
// exactly two places — serve.Commit, which is therefore the only code
// that orders snapshot, feed commit and publish, and the root facade's
// alias for library users. A new NewSnapshot call is a second commit
// sequence that has to keep the epoch invariant by hand: call
// serve.Commit instead.
func TestOneCommitSite(t *testing.T) {
	sites := callSites(t, func(_, name string) bool { return name == "NewSnapshot" })
	want := []string{"facade.go:NewInventorySnapshot", "internal/serve/feed.go:Commit"}
	if strings.Join(sites, " ") != strings.Join(want, " ") {
		t.Errorf("NewSnapshot is called from %v; want exactly %v", sites, want)
	}
}

// TestOneCoordinator holds the shard coordinator to its rule: there is
// one epoch loop, so per-shard stats are merged at one call site and a
// commit hook is invoked from one function; and a shard's runner is a
// cache of coordinator-owned state in exactly two places — the in-process
// executor and the worker side of the placement RPC. A second site for
// any of them is a second coordinator growing back.
func TestOneCoordinator(t *testing.T) {
	for _, c := range []struct {
		what  string
		match func(qual, name string) bool
		want  string
	}{
		{"MergeStats is called", func(_, name string) bool { return name == "MergeStats" },
			"internal/shard/coordinator.go:Epoch"},
		{"a commit hook is invoked", func(_, name string) bool { return name == "hook" },
			"internal/shard/coordinator.go:Epoch"},
		{"continuous.Resume is called", func(qual, name string) bool { return qual == "continuous" && name == "Resume" },
			"internal/shard/coordinator.go:Place internal/shard/transport/worker.go:handleInit"},
	} {
		if sites := strings.Join(callSites(t, c.match), " "); sites != c.want {
			t.Errorf("%s from [%s]; want exactly [%s]", c.what, sites, c.want)
		}
	}
}

// callSites walks every non-test Go file outside the benchmark driver
// and the examples and returns "path:function" for each call match
// accepts, in walk order. name is the callee's own name; qual is the
// package or receiver identifier it was selected from, if any.
func callSites(t *testing.T, match func(qual, name string) bool) []string {
	t.Helper()
	fset := token.NewFileSet()
	var sites []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join("cmd", "gpsbench") || path == "examples" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fd, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				qual, name := "", ""
				switch fn := call.Fun.(type) {
				case *ast.Ident:
					name = fn.Name
				case *ast.SelectorExpr:
					name = fn.Sel.Name
					if x, ok := fn.X.(*ast.Ident); ok {
						qual = x.Name
					}
				}
				if match(qual, name) {
					sites = append(sites, filepath.ToSlash(path)+":"+fd.Name.Name)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sites
}
