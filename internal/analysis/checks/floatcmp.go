package checks

import (
	"go/ast"
	"go/token"
	"go/types"

	"pcmap/internal/analysis"
)

// FloatCmp reports == and != between floating-point values in the
// statistics, energy, and experiment packages (stats, energy, exp,
// in-package tests included), where a float equality is almost always a
// latent bug: accumulated sums differ in the last ulp across
// refactorings that are supposed to be behavior-preserving, so such
// comparisons silently flip. Compare against an epsilon, or compare the
// underlying integer counters instead. Comparisons where both operands
// are compile-time constants are exact and allowed. Elsewhere, external
// test packages included, an exact comparison can be deliberate (a test
// asserting a small constant) and is not reported.
var FloatCmp = &analysis.Analyzer{
	Name: "floatcmp",
	Doc:  "reports ==/!= on floating-point operands (use an epsilon or compare integer counters)",
	Run:  runFloatCmp,
}

// floatCmpPkgs are the packages floatcmp applies to, matched on the
// last import-path element.
var floatCmpPkgs = map[string]bool{"stats": true, "energy": true, "exp": true}

func runFloatCmp(pass *analysis.Pass) error {
	if !floatCmpPkgs[pkgLast(pass.Pkg.Path())] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			xt := pass.TypesInfo.Types[be.X]
			yt := pass.TypesInfo.Types[be.Y]
			if !isFloat(xt.Type) && !isFloat(yt.Type) {
				return true
			}
			if xt.Value != nil && yt.Value != nil {
				return true // constant-folded: exact
			}
			pass.Reportf(be.OpPos, "floating-point %s comparison; compare with an epsilon or use integer counters", be.Op)
			return true
		})
	}
	return nil
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
