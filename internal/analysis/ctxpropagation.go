package analysis

import (
	"go/ast"
	"go/types"
)

// ctxPropagationCheck keeps cancellation flowing: a function that was
// handed a context.Context must pass it on. Inside such functions it
// flags (a) call arguments built from context.Background() or
// context.TODO(), which sever the caller's cancellation, and (b) calls
// to a context-free function F when a Context-taking sibling FContext
// exists.
var ctxPropagationCheck = &Check{
	Name: "ctxpropagation",
	Doc:  "in ctx-holding functions, forbid context.Background()/TODO() args and non-Context variants when a Context variant exists",
	run:  runCtxPropagation,
}

func runCtxPropagation(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil && hasCtxParam(p, fn.Type) {
					scanCtxBody(p, fn.Body)
					return false // scanCtxBody covered nested funcs
				}
			case *ast.FuncLit:
				if hasCtxParam(p, fn.Type) {
					scanCtxBody(p, fn.Body)
					return false
				}
			}
			return true
		})
	}
}

// hasCtxParam reports whether the function type declares a
// context.Context parameter.
func hasCtxParam(p *Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if tv, ok := p.Pkg.Info.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// scanCtxBody inspects a function body known to have ctx in scope.
// Nested function literals are included: closures still see ctx.
func scanCtxBody(p *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			if name := freshContextCall(p, arg); name != "" {
				p.Reportf(arg.Pos(), "context.%s() passed while a ctx is in scope; pass the caller's ctx so cancellation propagates", name)
			}
		}
		checkContextVariant(p, call)
		return true
	})
}

// freshContextCall returns "Background" or "TODO" when expr is a call
// to the corresponding context constructor, else "".
func freshContextCall(p *Pass, expr ast.Expr) string {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
		return ""
	}
	if name := obj.Name(); name == "Background" || name == "TODO" {
		return name
	}
	return ""
}

// checkContextVariant flags calls to a context-free function or method
// X when a sibling XContext with a context.Context parameter exists.
func checkContextVariant(p *Pass, call *ast.CallExpr) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return
	}
	obj, ok := p.Pkg.Info.Uses[id].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || signatureTakesContext(sig) {
		return
	}
	variant := obj.Name() + "Context"
	var found *types.Func
	if recv := sig.Recv(); recv != nil {
		vobj, _, _ := types.LookupFieldOrMethod(recv.Type(), true, obj.Pkg(), variant)
		found, _ = vobj.(*types.Func)
	} else if scope := obj.Pkg().Scope(); scope != nil {
		found, _ = scope.Lookup(variant).(*types.Func)
	}
	if found == nil {
		return
	}
	if vsig, ok := found.Type().(*types.Signature); !ok || !signatureTakesContext(vsig) {
		return
	}
	p.Reportf(call.Pos(), "%s drops the in-scope ctx; call %s so cancellation propagates", obj.Name(), variant)
}

func signatureTakesContext(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}
