package analyzers

import (
	"go/ast"
	"go/types"
	"regexp"
)

const (
	tracePkgPath     = "gps/internal/trace"
	telemetryPkgPath = "gps/internal/telemetry"
)

// finishers are the methods that retire a trace span.
var finishers = map[string]bool{"Finish": true, "FinishErr": true}

// ctorNameRe names the contexts where telemetry registration may run:
// init functions and new*/New* constructors. Everything else is a hot
// or repeated path where registration takes the registry lock (and, on
// a help-string conflict, panics at the worst possible time instead of
// at startup).
var ctorNameRe = regexp.MustCompile(`(?i)^(new|init)`)

// Spanfinish enforces span lifecycle and registration-at-init.
var Spanfinish = &Analyzer{
	Name: "spanfinish",
	Doc: `require every started span to finish and telemetry to register at init

Every trace.StartSpan / Tracer.StartSpan result must reach Finish or
FinishErr in its enclosing function (defer or explicit), be returned,
stored, or passed on — a dropped span never lands in the flight
recorder, so the epoch it timed silently vanishes from /v1/tracez
(PR 9).

Calls that register metrics (Registry.Counter/Gauge/GaugeFunc/
Histogram) may only run in package-level var initializers, init
functions, or new* constructors: the registry promises conflicts panic
at init (PR 6), which is only true if registration happens at init.`,
	Run: runSpanfinish,
}

func runSpanfinish(pass *Pass) {
	checkSpanLifecycles(pass)
	checkRegistrationSites(pass)
}

// startsSpan reports whether a call starts a trace span.
func startsSpan(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Name() == "StartSpan" && funcPkgPath(fn) == tracePkgPath
}

// checkSpanLifecycles walks every function and verifies each started
// span is finished or escapes.
func checkSpanLifecycles(pass *Pass) {
	info := pass.Info()
	forEachFunc(pass.Pkg, func(decl *ast.FuncDecl) {
		if decl.Body == nil {
			return
		}
		// First pass: find span starts and how their results bind.
		type tracked struct {
			obj  types.Object
			pos  ast.Node
			name string
		}
		var spans []tracked
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					if startsSpan(info, call) {
						pass.Reportf(call.Pos(),
							"span started and immediately discarded: it can never be finished")
					}
				}
			case *ast.AssignStmt:
				if len(st.Rhs) != len(st.Lhs) {
					break // StartSpan returns one value; no multi-bind form
				}
				for i, rhs := range st.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok || !startsSpan(info, call) {
						continue
					}
					id, isIdent := unparen(st.Lhs[i]).(*ast.Ident)
					if !isIdent {
						// Stored straight into a field/index: escapes.
						continue
					}
					if id.Name == "_" {
						pass.Reportf(call.Pos(),
							"span assigned to _: it can never be finished")
						continue
					}
					obj := info.Defs[id]
					if obj == nil {
						obj = info.Uses[id]
					}
					if obj != nil {
						spans = append(spans, tracked{obj: obj, pos: call, name: id.Name})
					}
				}
			}
			return true
		})
		// Second pass: for each tracked span object, look for a
		// finishing call or an escape anywhere in the declaration
		// (deferred closures included).
		for _, sp := range spans {
			if spanRetired(info, decl.Body, sp.obj) {
				continue
			}
			pass.Reportf(sp.pos.Pos(),
				"span %s is started but never finished on any path: add a defer %s.Finish() (or FinishErr), return it, or hand it off",
				sp.name, sp.name)
		}
	})
}

// spanRetired reports whether obj reaches a finisher method or escapes
// the function (returned, passed as an argument, stored, or
// re-assigned) anywhere under body.
func spanRetired(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	retired := false
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if retired {
			return false
		}
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok || info.Uses[id] != obj {
			return true
		}
		// How is this use embedded?
		for i := len(stack) - 2; i >= 0; i-- {
			switch p := stack[i].(type) {
			case *ast.SelectorExpr:
				if p.X == id || containsPos(p.X, id.Pos()) {
					// sp.Something — a finisher retires it; any other
					// method (SetAttr, Context) does not.
					if finishers[p.Sel.Name] {
						retired = true
					}
					return !retired
				}
			case *ast.CallExpr:
				// Passed as an argument: handed off.
				if !containsPos(p.Fun, id.Pos()) {
					retired = true
					return false
				}
			case *ast.ReturnStmt:
				retired = true
				return false
			case *ast.CompositeLit, *ast.KeyValueExpr:
				retired = true
				return false
			case *ast.AssignStmt:
				// Re-assigned somewhere else (field, another var):
				// only counts as an escape when the span is on the
				// right-hand side.
				for _, r := range p.Rhs {
					if containsPos(r, id.Pos()) {
						retired = true
						return false
					}
				}
				return true
			case *ast.ExprStmt, *ast.BlockStmt, *ast.DeferStmt, *ast.GoStmt:
				return true
			}
		}
		return true
	})
	return retired
}

// checkRegistrationSites flags registry registrations outside
// constructor scope.
func checkRegistrationSites(pass *Pass) {
	info := pass.Info()
	forEachFunc(pass.Pkg, func(decl *ast.FuncDecl) {
		if decl.Body == nil || ctorNameRe.MatchString(decl.Name.Name) {
			return
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || funcPkgPath(fn) != telemetryPkgPath || recvTypeName(fn) != "Registry" {
				return true
			}
			switch fn.Name() {
			case "Counter", "Gauge", "GaugeFunc", "Histogram":
				pass.Reportf(call.Pos(),
					"telemetry registration (Registry.%s) in %s: register in an init func, a new* constructor, or a package-level var so conflicts panic at startup, not mid-serve",
					fn.Name(), decl.Name.Name)
			}
			return true
		})
	})
}
