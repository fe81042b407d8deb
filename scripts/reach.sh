#!/usr/bin/env bash
# Reachability gate: every function a non-test Go file declares is linked
# into some binary, or it belongs with the tests.
#
#   scripts/reach.sh      (from anywhere in the repo; about a minute on a
#                          cold build cache)
#
# It builds every cmd/ binary, every examples/ program and the nested
# cmd/gpsbench module with inlining off (-gcflags=all=-l, so a function
# the linker keeps has its own symbol), reads their text symbols with
# `go tool nm`, and diffs them against the functions a go/parser walk
# finds in each package's non-test files. A library function counts as
# linked if any binary holds it; a `package main` function only if its
# own binary does. cmd/gpsbench is a link root only: its own main package
# is not checked. The same walk names every unexported package-level
# const, var and type that no non-test file of its package mentions
# beyond its declaration. An exported name only tests use is out of its
# reach: another package may spell it, and the linker keeps no symbol for
# a type or a constant. It prints every unlinked function with its
# position and length, and every unmentioned name with its position, and
# exits 1 if there is any.
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"

# Packages that exist only for tests: nothing links them by design.
exempt_pkgs='gps/internal/(wire/wiretest|probmodel/modeltest|analyzers|analyzers/analysistest)'

# Test support kept in a library package, one reason each. A symbol here
# is matched exactly as this script prints it.
exempt_funcs=(
	gps/internal/asndb.MustParseIP                  # address literals in the tests of 15 packages
	gps/internal/shard.'(*Coordinator).Assignment'  # shard → worker index that fault and migration tests assert on
	gps/internal/telemetry.'(*Counter).Value'       # counter reads in the serve, transport and telemetry tests
	gps/internal/trace.'(*Tracer).Reset'            # an empty flight recorder for the continuous and transport trace tests
)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bin"

go build -gcflags=all=-l -o "$tmp/bin/" ./cmd/... ./examples/...
(cd cmd/gpsbench && go build -gcflags=all=-l -o "$tmp/bin/gpsbench" .)

# One line per linked text symbol, `<binary> <symbol>`, with every
# type-argument list removed. Instantiation names hold spaces and nested
# brackets (`shard.sized[go.shape.struct { … }]`,
# `engine.Chunks[go.shape.[]…Prediction]`), so the whole name after the
# type column is kept and brackets are stripped by depth.
for b in "$tmp"/bin/*; do
	go tool nm "$b" | sed -nE 's/^ *[0-9a-f]+ [Tt] //p' |
		awk -v bin="$(basename "$b")" '{
			out = ""; depth = 0
			for (i = 1; i <= length($0); i++) {
				c = substr($0, i, 1)
				if (c == "[") depth++
				else if (c == "]") depth--
				else if (depth == 0) out = out c
			}
			print bin, out
		}'
done | sort -u >"$tmp/linked"

# The declared functions, `<binary or -> <symbol> <file>:<line> <lines>`,
# in the symbol spelling the linker uses: pkg.F, pkg.T.M, pkg.(*T).M, with
# type parameters dropped and `main` for a main package's path; and the
# unmentioned names, `! <pkg>.<name> <file>:<line> <const|var|type>`.
cat >"$tmp/decls.go" <<'EOF'
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	fset := token.NewFileSet()
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		// import path, package name, directory, comma-separated files
		f := strings.SplitN(in.Text(), "|", 4)
		path, bin := f[0], "-"
		if f[1] == "main" {
			path, bin = "main", filepath.Base(f[2])
		}
		// Every identifier of the package's files, counted, against its
		// unexported package-level names: a name met once is met only
		// where it is declared.
		seen := map[string]int{}
		var names [][3]string // name, position, const|var|type
		for _, name := range strings.Split(f[3], ",") {
			file := filepath.Join(f[2], name)
			af, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			rel, _ := filepath.Rel(os.Args[1], file)
			ast.Inspect(af, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					seen[id.Name]++
				}
				return true
			})
			for _, d := range af.Decls {
				if gd, ok := d.(*ast.GenDecl); ok {
					for _, sp := range gd.Specs {
						var ids []*ast.Ident
						switch sp := sp.(type) {
						case *ast.ValueSpec:
							ids = sp.Names
						case *ast.TypeSpec:
							ids = []*ast.Ident{sp.Name}
						}
						for _, id := range ids {
							if id.Name != "_" && !id.IsExported() {
								pos := fmt.Sprintf("%s:%d", rel, fset.Position(id.Pos()).Line)
								names = append(names, [3]string{id.Name, pos, gd.Tok.String()})
							}
						}
					}
				}
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				sym := path + "." + fd.Name.Name
				if fd.Recv != nil {
					sym = path + "." + recv(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				from, to := fset.Position(fd.Pos()), fset.Position(fd.End())
				fmt.Println(bin, sym, fmt.Sprintf("%s:%d", rel, from.Line), to.Line-from.Line+1)
			}
		}
		for _, n := range names {
			if seen[n[0]] == 1 {
				sym := path + "." + n[0]
				if bin != "-" {
					sym = bin + ":" + sym
				}
				fmt.Println("!", sym, n[1], n[2])
			}
		}
	}
}

// recv spells a receiver type as the linker does: T or (*T), without
// type parameters.
func recv(e ast.Expr) string {
	star := false
	if s, ok := e.(*ast.StarExpr); ok {
		star, e = true, s.X
	}
	switch t := e.(type) {
	case *ast.IndexExpr:
		e = t.X
	case *ast.IndexListExpr:
		e = t.X
	}
	name := e.(*ast.Ident).Name
	if star {
		return "(*" + name + ")"
	}
	return name
}
EOF
printf 'module reach\n\ngo 1.21\n' >"$tmp/go.mod"
go list -f '{{.ImportPath}}|{{.Name}}|{{.Dir}}|{{join .GoFiles ","}}' ./... |
	grep -vE "^$exempt_pkgs\|" |
	(cd "$tmp" && go run decls.go "$OLDPWD") >"$tmp/decls"

# A library function is linked if any binary holds it; a main package's
# function only if its own binary does.
cut -d' ' -f2 "$tmp/linked" | sort -u >"$tmp/anylinked"
unlinked=$(awk -v exempt="${exempt_funcs[*]:-}" '
	FILENAME == ARGV[1] { own[$1 " " $2] = 1; next }
	FILENAME == ARGV[2] { any[$1] = 1; next }
	BEGIN { n = split(exempt, e, " "); for (i = 1; i <= n; i++) skip[e[i]] = 1 }
	skip[$2] { next }
	$1 == "!" { print $2, $3, "(" $4 ", unmentioned)"; next }
	$1 == "-" && !any[$2] { print $2, $3, "(" $4 " lines)" }
	$1 != "-" && !own[$1 " " $2] { print $1 ":" $2, $3, "(" $4 " lines)" }
' "$tmp/linked" "$tmp/anylinked" "$tmp/decls")

if [ -n "$unlinked" ]; then
	echo "functions no binary links and names no code mentions (delete them, or move them to the tests):" >&2
	echo "$unlinked" >&2
	exit 1
fi
echo "reach: every non-test function is linked and every unexported name mentioned"
