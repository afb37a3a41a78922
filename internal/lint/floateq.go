package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// approvedToleranceHelpers are the functions allowed to compare floats with
// == / != internally: the named tolerance helpers themselves need an exact
// fast path (ApproxEq(+Inf, +Inf) must hold even though Inf−Inf is NaN).
// Matching is by function name so the rule covers methods and any package
// that hosts a helper under the conventional names.
var approvedToleranceHelpers = map[string]bool{
	"ApproxEq":      true,
	"ApproxZero":    true,
	"ApproxEqSlice": true,
	"ApproxLE":      true,
}

// FloatEq flags == / != comparisons whose operands are floating-point (or
// complex) values, and switch statements on a floating-point tag.  Raw
// float equality is how numerical drift turns into silent wrong verdicts —
// the M/M/1 feasibility identity Σc_i = g(Σr_i) only holds to a tolerance.
// Compare against an explicit tolerance instead, or annotate an
// intentional exact comparison with //lint:allow floateq <reason>.  Test
// files are exempt: tests assert exact golden values and byte-identical
// RNG streams deliberately.
var FloatEq = &Analyzer{
	Name: "floateq",
	Doc: "flags == and != on floating-point operands; compare against " +
		"an explicit tolerance or annotate //lint:allow floateq <reason>",
	Run: runFloatEq,
}

func runFloatEq(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			// Tests assert exact golden values and byte-identical streams
			// on purpose; the tolerance discipline protects library logic.
			continue
		}
		// Track the enclosing function so comparisons inside approved
		// tolerance helpers are exempt.
		var exemptStack []bool
		inExempt := func() bool {
			for _, e := range exemptStack {
				if e {
					return true
				}
			}
			return false
		}
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				exemptStack = append(exemptStack, approvedToleranceHelpers[n.Name.Name])
				if n.Body != nil {
					ast.Inspect(n.Body, walk)
				}
				exemptStack = exemptStack[:len(exemptStack)-1]
				return false
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				if inExempt() {
					return true
				}
				if !isFloatExpr(pass, n.X) && !isFloatExpr(pass, n.Y) {
					return true
				}
				if bothConstant(pass, n.X, n.Y) {
					return true // compile-time comparison, exact by definition
				}
				if isNaNIdiom(n) {
					return true // x != x is the canonical NaN probe
				}
				pass.Reportf(n.OpPos,
					"floating-point %s comparison; compare against an explicit tolerance or annotate //lint:allow floateq <reason>",
					n.Op)
			case *ast.SwitchStmt:
				if n.Tag != nil && isFloatExpr(pass, n.Tag) && !inExempt() {
					pass.Reportf(n.Tag.Pos(),
						"switch on floating-point value compares cases with ==; restructure with tolerance checks (or annotate //lint:allow floateq)")
				}
			}
			return true
		}
		ast.Inspect(f, walk)
	}
	return nil
}

// isFloatExpr reports whether e's type is a floating-point or complex
// scalar (after unwrapping named types and aliases).
func isFloatExpr(pass *Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// bothConstant reports whether both operands are compile-time constants.
func bothConstant(pass *Pass, x, y ast.Expr) bool {
	tx, ty := pass.TypesInfo.Types[x], pass.TypesInfo.Types[y]
	return tx.Value != nil && ty.Value != nil
}

// isNaNIdiom recognizes x != x / x == x on a side-effect-free operand.
func isNaNIdiom(n *ast.BinaryExpr) bool {
	return sameSimpleExpr(n.X, n.Y)
}

// sameSimpleExpr reports whether two expressions are the identical simple
// identifier or selector chain.
func sameSimpleExpr(x, y ast.Expr) bool {
	switch x := x.(type) {
	case *ast.Ident:
		y, ok := y.(*ast.Ident)
		return ok && x.Name == y.Name
	case *ast.SelectorExpr:
		y, ok := y.(*ast.SelectorExpr)
		return ok && x.Sel.Name == y.Sel.Name && sameSimpleExpr(x.X, y.X)
	case *ast.ParenExpr:
		return sameSimpleExpr(x.X, y)
	}
	return false
}
