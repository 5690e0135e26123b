package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// keypurityCheck makes stage keys provably deterministic: a taint pass
// over each function tracks values derived from nondeterministic
// sources — map iteration order, wall clocks (time.*), math/rand, and
// pointer formatting (%p) — and reports any tainted value flowing into
// a stage.KeyBuilder write method (Str, Strs, Int, Uint64, Float,
// Bool, Upstream, Append) or NewKey itself. A key built from such a
// value hashes differently run to run, which silently defeats the
// content-addressed store and, once keys route a multi-node cluster,
// scatters one artifact across shards.
//
// The peer tier's request-path builder is a sink of the same kind:
// HTTPBackend.artifactURL routes an artifact fetch, so a peer URL
// pulled out of a map range would scatter fetches nondeterministically
// across the cluster.
//
// Sorting is the sanctioned laundering step: a variable passed to
// sort.* or slices.Sort* anywhere in the function is treated as clean
// (the map-keys-into-slice-then-sort idiom). So is rendering a key via
// Key.String(): a Key is a content hash whose assembly the KeyBuilder
// sinks already guard, so its rendered form — the peer tier derives
// request paths from it — is deterministic by construction.
//
// The pass is flow-insensitive and per-function (nested literals
// included — closures share the enclosing variables), which
// over-approximates: a value tainted on one path taints all its uses.
// That is the right bias for key material.
var keypurityCheck = &Check{
	Name: "keypurity",
	Doc:  "values reaching stage.KeyBuilder writes must not derive from map order, time, rand, or pointer formatting",
	run:  runKeyPurity,
}

// keyBuilderMethods are the sink methods on stage.KeyBuilder. NewKey's
// arguments are checked too (stage name and version are key material).
var keyBuilderMethods = map[string]bool{
	"Str": true, "Strs": true, "Int": true, "Uint64": true,
	"Float": true, "Bool": true, "Upstream": true, "Append": true,
}

func runKeyPurity(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !hasKeySinks(p.Pkg, fd.Body) {
				continue
			}
			analyzeKeyPurity(p, fd.Body)
		}
	}
}

// hasKeySinks is the cheap gate: does the body mention a KeyBuilder
// write at all?
func hasKeySinks(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isKeySink(pkg, call) {
			found = true
		}
		return true
	})
	return found
}

// isKeySink reports whether call writes key material: a method in
// keyBuilderMethods on a value whose named type is KeyBuilder, a call
// to a function named NewKey, or the peer tier's request-path builder
// artifactURL on an HTTPBackend. Matching is by type name rather
// than import path so the testdata corpora (which cannot import module
// packages) exercise the same code path as the real tree.
func isKeySink(pkg *Package, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if !keyBuilderMethods[fun.Sel.Name] {
			if fun.Sel.Name == "NewKey" {
				return true
			}
			if fun.Sel.Name == "artifactURL" {
				tv, ok := pkg.Info.Types[fun.X]
				return ok && namedTypeName(tv.Type) == "HTTPBackend"
			}
			return false
		}
		tv, ok := pkg.Info.Types[fun.X]
		if !ok {
			return false
		}
		return namedTypeName(tv.Type) == "KeyBuilder"
	case *ast.Ident:
		return fun.Name == "NewKey"
	}
	return false
}

// analyzeKeyPurity runs the taint fixpoint over one function body and
// reports tainted sink arguments.
func analyzeKeyPurity(p *Pass, body *ast.BlockStmt) {
	pkg := p.Pkg
	// tainted maps a variable to the reason it is dirty; sanitized
	// variables can never become tainted.
	tainted := make(map[types.Object]string)
	sanitized := sortSanitized(pkg, body)

	taint := func(id *ast.Ident, reason string) bool {
		obj := identObj(pkg, id)
		if obj == nil || sanitized[obj] {
			return false
		}
		if _, ok := tainted[obj]; ok {
			return false
		}
		tainted[obj] = reason
		return true
	}

	// Seed: map-range loop variables.
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pkg.Info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		for _, e := range []ast.Expr{rs.Key, rs.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				taint(id, "map iteration order")
			}
		}
		return true
	})

	// Fixpoint: propagate through assignments until stable.
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range s.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					var rhs ast.Expr
					if len(s.Rhs) == len(s.Lhs) {
						rhs = s.Rhs[i]
					} else if len(s.Rhs) == 1 {
						rhs = s.Rhs[0] // multi-value: taint every LHS
					}
					if rhs == nil {
						continue
					}
					if reason := exprTaint(pkg, rhs, tainted); reason != "" {
						if taint(id, reason) {
							changed = true
						}
					}
				}
			case *ast.GenDecl:
				for _, spec := range s.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						var rhs ast.Expr
						if len(vs.Values) == len(vs.Names) {
							rhs = vs.Values[i]
						} else if len(vs.Values) == 1 {
							rhs = vs.Values[0]
						}
						if rhs == nil {
							continue
						}
						if reason := exprTaint(pkg, rhs, tainted); reason != "" {
							if taint(name, reason) {
								changed = true
							}
						}
					}
				}
			}
			return true
		})
	}

	// Sinks: report tainted arguments in deterministic source order.
	type finding struct {
		pos    ast.Expr
		sink   string
		reason string
	}
	var finds []finding
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isKeySink(pkg, call) {
			return true
		}
		sink := "NewKey"
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			switch {
			case keyBuilderMethods[sel.Sel.Name]:
				sink = "KeyBuilder." + sel.Sel.Name
			case sel.Sel.Name == "artifactURL":
				sink = "HTTPBackend.artifactURL"
			}
		}
		for _, arg := range call.Args {
			if reason := exprTaint(pkg, arg, tainted); reason != "" {
				finds = append(finds, finding{arg, sink, reason})
			}
		}
		return true
	})
	sort.Slice(finds, func(i, j int) bool { return finds[i].pos.Pos() < finds[j].pos.Pos() })
	for _, f := range finds {
		p.Reportf(f.pos.Pos(), "value derived from %s reaches %s; stage keys must be deterministic (sort or use a stable source)",
			f.reason, f.sink)
	}
}

// exprTaint returns the reason expr is tainted, or "": it mentions a
// tainted variable, or contains a nondeterministic source call.
// Key.String() subtrees are skipped — the rendering of a content hash
// is clean no matter how the Key variable was picked, because equal
// keys render equally.
func exprTaint(pkg *Package, expr ast.Expr, tainted map[types.Object]string) string {
	reason := ""
	ast.Inspect(expr, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch e := n.(type) {
		case *ast.Ident:
			if obj := identObj(pkg, e); obj != nil {
				if r, ok := tainted[obj]; ok {
					reason = r
					return false
				}
			}
		case *ast.CallExpr:
			if isKeyStringCall(pkg, e) {
				return false
			}
			if r := sourceCall(pkg, e); r != "" {
				reason = r
				return false
			}
		}
		return true
	})
	return reason
}

// isKeyStringCall reports whether call is Key.String() on a value
// whose named type is Key — the sanctioned way to turn a stage key
// into a request path or filename.
func isKeyStringCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "String" || len(call.Args) != 0 {
		return false
	}
	tv, ok := pkg.Info.Types[sel.X]
	return ok && namedTypeName(tv.Type) == "Key"
}

// sourceCall classifies a call as a nondeterminism source: anything in
// time, math/rand, math/rand/v2, or a fmt formatting call whose
// constant format string contains %p.
func sourceCall(pkg *Package, call *ast.CallExpr) string {
	fn := calleeFunc(pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		return "the wall clock (time." + fn.Name() + ")"
	case "math/rand", "math/rand/v2":
		return "math/rand (" + fn.Name() + ")"
	case "fmt":
		for _, arg := range call.Args {
			tv, ok := pkg.Info.Types[arg]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				continue
			}
			if strings.Contains(constant.StringVal(tv.Value), "%p") {
				return "pointer formatting (%p)"
			}
		}
	}
	return ""
}

// sortSanitized collects variables passed to a sort.* / slices.Sort*
// call anywhere in the body; those are declared clean.
func sortSanitized(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pkg, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		path := fn.Pkg().Path()
		if path != "sort" && !(path == "slices" && strings.HasPrefix(fn.Name(), "Sort")) {
			return true
		}
		for _, arg := range call.Args {
			if id := identRoot(arg); id != nil {
				if obj := identObj(pkg, id); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// identRoot unwraps an argument to its base identifier: x, &x, x[i:j].
func identRoot(expr ast.Expr) *ast.Ident {
	switch e := expr.(type) {
	case *ast.Ident:
		return e
	case *ast.UnaryExpr:
		return identRoot(e.X)
	case *ast.ParenExpr:
		return identRoot(e.X)
	case *ast.SliceExpr:
		return identRoot(e.X)
	}
	return nil
}

// identObj resolves an identifier to its object via Uses or Defs.
func identObj(pkg *Package, id *ast.Ident) types.Object {
	if obj := pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return pkg.Info.Defs[id]
}
