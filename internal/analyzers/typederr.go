package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// typedErrPkgs are the packages whose API contract promises typed,
// matchable errors: the transport documents *wire.Error/FrameSizeError/
// DisconnectError/... (PR 3) and serve promises stable error codes over
// HTTP and typed errors from its readers (PR 4/7).
var typedErrPkgs = []string{
	"gps/internal/shard/transport",
	"gps/internal/serve",
	"gps/internal/shard",
}

// Typederr enforces the typed-error contract in API-bearing packages.
var Typederr = &Analyzer{
	Name: "typederr",
	Doc: `enforce typed, wrappable errors in API-contract packages

In internal/shard{,/transport} and internal/serve:

fmt.Errorf calls that interpolate an error value without %w are
flagged — the cause becomes unreachable to errors.Is/As, breaking the
typed-error promise the transport and serving APIs document. Format
with %w (or a typed wrapper with Unwrap) instead.

Unexported package-level errors.New sentinels are flagged: callers in
other packages cannot errors.Is-match what they cannot name. Export
the sentinel (documented API surface, like serve.ErrWatchDone) or define a
typed error.`,
	Run: runTypederr,
}

func runTypederr(pass *Pass) {
	if !pathMatches(pass.Pkg.Path, typedErrPkgs) {
		return
	}
	checkErrorfWrapping(pass)
	checkSentinels(pass)
}

// checkErrorfWrapping flags fmt.Errorf calls with an error-typed
// argument but no %w verb in a constant format string.
func checkErrorfWrapping(pass *Pass) {
	info := pass.Info()
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Name() != "Errorf" || funcPkgPath(fn) != "fmt" {
				return true
			}
			if len(call.Args) < 2 {
				return true
			}
			format, ok := constStringValue(info, call.Args[0])
			if !ok || strings.Contains(format, "%w") {
				return true
			}
			for _, arg := range call.Args[1:] {
				t := info.TypeOf(arg)
				if t == nil {
					continue
				}
				if types.Implements(t, errorInterface) || types.Implements(types.NewPointer(t), errorInterface) {
					pass.Reportf(call.Pos(),
						"fmt.Errorf interpolates an error without %%w: the cause is invisible to errors.Is/As; wrap it")
					return true
				}
			}
			return true
		})
	}
}

// errorInterface is the universe error type.
var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// constStringValue extracts a compile-time string value.
func constStringValue(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return "", false
	}
	s, err := strconv.Unquote(tv.Value.ExactString())
	if err != nil {
		return "", false
	}
	return s, true
}

// checkSentinels flags unexported package-level errors.New variables.
func checkSentinels(pass *Pass) {
	info := pass.Info()
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if name.IsExported() || i >= len(vs.Values) {
						continue
					}
					call, ok := vs.Values[i].(*ast.CallExpr)
					if !ok {
						continue
					}
					fn := calleeFunc(info, call)
					if fn != nil && fn.Name() == "New" && funcPkgPath(fn) == "errors" {
						pass.Reportf(name.Pos(),
							"unexported errors.New sentinel %s: callers cannot errors.Is-match it; export it or define a typed error", name.Name)
					}
				}
			}
		}
	}
}
