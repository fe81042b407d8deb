package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// wirePkgs are the packages that speak the GPST wire protocol.
var wirePkgs = []string{
	"gps/internal/shard/transport",
}

// wirePkgPath is the shared codec, whose Dec.Done is a decoder's last
// check.
const wirePkgPath = "gps/internal/wire"

// msgConstRe names the frame-type constants the pairing rule governs.
var msgConstRe = regexp.MustCompile(`^msg[A-Z]`)

// decoderFuncRe names the functions the strictness rule governs.
var decoderFuncRe = regexp.MustCompile(`(?i)^(decode|read)`)

// Wirehygiene pins the transport's frame-pairing and strictness rules.
var Wirehygiene = &Analyzer{
	Name: "wirehygiene",
	Doc: `enforce GPST wire-protocol hygiene

Every msg* frame constant must have both an encode site (passed to a
call, typically writeFrame) and a decode site (a switch case or ==/!=
comparison in a dispatch path): a frame only one side understands is a
protocol skew waiting for a version bump nobody made.

A decode*/read* function must not make wire.Dec.Err its final check:
Err accepts unread bytes, so the payload would have a second, longer
layout the encoder never writes. Finish with Done, which refuses them;
a new field is a version bump, which the preamble enforces.`,
	Run: runWirehygiene,
}

func runWirehygiene(pass *Pass) {
	if !pathMatches(pass.Pkg.Path, wirePkgs) {
		return
	}
	checkFramePairing(pass)
	checkStrictDecoders(pass)
}

// checkFramePairing verifies every msg* constant is consumed on both
// the encode and the decode side.
func checkFramePairing(pass *Pass) {
	info := pass.Info()

	// The frame constants declared in this package, keyed by object.
	type usage struct {
		decl      *ast.Ident
		encodeUse bool
		decodeUse bool
	}
	consts := make(map[types.Object]*usage)
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for _, name := range vs.Names {
					if msgConstRe.MatchString(name.Name) {
						if obj := info.Defs[name]; obj != nil {
							consts[obj] = &usage{decl: name}
						}
					}
				}
			}
		}
	}
	if len(consts) == 0 {
		return
	}

	// Classify every use. A use inside a switch-case list or an ==/!=
	// comparison is a decode (dispatch) site; a use as a call argument
	// is an encode site.
	for _, f := range pass.Pkg.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			u, tracked := consts[info.Uses[id]]
			if !tracked {
				return true
			}
			switch classifyUse(info, stack) {
			case useDecode:
				u.decodeUse = true
			case useEncode:
				u.encodeUse = true
			}
			return true
		})
	}

	for _, u := range consts {
		switch {
		case !u.decodeUse && !u.encodeUse:
			pass.Reportf(u.decl.Pos(),
				"frame constant %s is declared but has neither an encode nor a decode site", u.decl.Name)
		case !u.decodeUse:
			pass.Reportf(u.decl.Pos(),
				"frame constant %s has no decode site: no switch case or comparison dispatches it", u.decl.Name)
		case !u.encodeUse:
			pass.Reportf(u.decl.Pos(),
				"frame constant %s has no encode site: it is never passed to a frame writer", u.decl.Name)
		}
	}
}

type useKind int

const (
	useOther useKind = iota
	useEncode
	useDecode
)

// expectParamRe names call parameters that carry an expected reply
// type: a constant passed to one is dispatched (compared) inside the
// helper, so the use is a decode site by proxy.
var expectParamRe = regexp.MustCompile(`(?i)^(want|expect|reply)`)

// classifyUse inspects the ancestor chain of an identifier use.
func classifyUse(info *types.Info, stack []ast.Node) useKind {
	// stack[len-1] is the ident itself; walk outward.
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.CaseClause:
			return useDecode
		case *ast.BinaryExpr:
			if p.Op == token.EQL || p.Op == token.NEQ {
				return useDecode
			}
		case *ast.CallExpr:
			// An argument (not the callee) of a call: the constant is
			// being written — unless the parameter it binds to is an
			// expected-reply slot (rpc's `want`), which compares it
			// against an incoming frame.
			if containsPos(p.Fun, stack[len(stack)-1].Pos()) {
				return useOther
			}
			if name := paramNameForArg(info, p, stack[len(stack)-1].Pos()); expectParamRe.MatchString(name) {
				return useDecode
			}
			return useEncode
		case *ast.ValueSpec, *ast.GenDecl:
			return useOther
		}
	}
	return useOther
}

// paramNameForArg returns the name of the callee parameter the argument
// containing pos binds to ("" when unresolvable).
func paramNameForArg(info *types.Info, call *ast.CallExpr, pos token.Pos) string {
	fn := calleeFunc(info, call)
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	for i, arg := range call.Args {
		if !containsPos(arg, pos) {
			continue
		}
		if i >= sig.Params().Len() {
			i = sig.Params().Len() - 1 // variadic tail
		}
		if i < 0 {
			return ""
		}
		return sig.Params().At(i).Name()
	}
	return ""
}

func containsPos(n ast.Node, pos token.Pos) bool {
	return n.Pos() <= pos && pos < n.End()
}

// checkStrictDecoders flags a decoder function whose last call to
// (*wire.Dec).Err or Done, in source order, is Err.
func checkStrictDecoders(pass *Pass) {
	info := pass.Info()
	forEachFunc(pass.Pkg, func(decl *ast.FuncDecl) {
		if decl.Body == nil || !decoderFuncRe.MatchString(decl.Name.Name) {
			return
		}
		var last *ast.CallExpr
		var lastName string
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleeFunc(info, call); fn != nil && (fn.Name() == "Err" || fn.Name() == "Done") &&
				funcPkgPath(fn) == wirePkgPath && recvTypeName(fn) == "Dec" {
				last, lastName = call, fn.Name() // Inspect visits in source order
			}
			return true
		})
		if lastName == "Err" {
			pass.Reportf(last.Pos(),
				"decoder %s finishes with wire.Dec.Err, which accepts trailing bytes: a payload has one layout; finish with Done",
				decl.Name.Name)
		}
	})
}
