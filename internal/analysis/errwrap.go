package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// errWrapCheck enforces error-chain hygiene: a fmt.Errorf that formats
// an error operand with %v or %s flattens it to text, so errors.Is and
// errors.As can no longer see the cause (fault.IsTransient classifies
// wrapped measurement errors that way). Any fmt.Errorf whose arguments
// include an error but whose format string has no %w is a finding.
var errWrapCheck = &Check{
	Name: "errwrap",
	Doc:  "forbid fmt.Errorf formatting an error operand without %w",
	run:  runErrWrap,
}

func runErrWrap(p *Pass) {
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "fmt" || obj.Name() != "Errorf" {
				return true
			}
			tv, ok := p.Pkg.Info.Types[call.Args[0]]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				return true // dynamic format string: nothing to prove
			}
			if strings.Contains(constant.StringVal(tv.Value), "%w") {
				return true
			}
			for _, arg := range call.Args[1:] {
				atv, ok := p.Pkg.Info.Types[arg]
				if !ok || atv.Type == nil {
					continue
				}
				if types.Implements(atv.Type, errIface) {
					p.Reportf(arg.Pos(), "fmt.Errorf formats an error without %%w; wrap it so errors.Is/As still see the cause")
				}
			}
			return true
		})
	}
}
