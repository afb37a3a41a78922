package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// FeasGuard flags evaluations of congestion formulas outside the protection
// of a feasibility check.  Every closed form in the library — g(x) =
// x/(1−x), the allocation functions, the protection bound — is only a
// model of the queue inside Σr < 1; evaluated on an unguarded rate vector
// it silently returns garbage (finite but meaningless values for Σr > 1,
// signed infinities at the pole) that downstream code happily averages
// into an experiment table.
//
// A call is a target when its callee lives in another package and its
// signature maps a Rate (or []Rate) parameter to a Congestion result — the
// dimensional fingerprint of a congestion formula — or is one of the g
// derivative helpers (GPrime, GPrime2, LPrime, LPrime2).  The call is
// clean when, on every path to it, a dominating block performs a
// feasibility check connected to the same rate data: a call to
// Feasible/InDomain/CheckFeasible/CheckFeasibleG, a read of a
// FeasibilityReport's Feasible field, or a direct comparison against 1.
//
// Exemptions, in the spirit of "fewer findings when unclear":
//   - callees declared in the same file (a file's own formula helpers are
//     its internal layering; the file guards at its boundary);
//   - bodies of allocation-contract methods (Congestion, CongestionOf,
//     OwnDerivs, Jacobian, JacobianOf, L, LPrime, LPrime2, and their
//     workspace fast paths CongestionInto, CongestionOfInto, OwnDerivsInto,
//     JacobianInto): the Allocation contract defines them on all of R⁺ⁿ
//     with +Inf outside the domain;
//   - results fed directly to Utility.Value/Gradient/MarginalRate, which
//     the AU contract requires to map c = +Inf to −Inf, so out-of-domain
//     probes are well ordered by construction;
//   - results assigned to a variable the function later passes to one of
//     those consumers or to math.IsInf/IsNaN/core.IsFiniteVec — code that
//     inspects its result for the out-of-domain sentinel is domain-aware;
//   - constant arguments that are statically feasible (a scalar in (0,1),
//     or a composite literal of positive constants summing below 1);
//   - test files, which deliberately probe out-of-domain behavior.
//
// Anything else needs either a guard or a //lint:allow feasguard with a
// comment saying why infeasible input is impossible there.
var FeasGuard = &Analyzer{
	Name: "feasguard",
	Doc: "flags congestion/g(x) evaluations whose rate argument is not " +
		"dominated by a feasibility guard (core.Feasible, mm1.InDomain, " +
		"CheckFeasible, or a comparison against 1)",
	Run: runFeasGuard,
}

// contractMethods are enclosing functions whose own contract covers
// out-of-domain evaluation.
var contractMethods = map[string]bool{
	"Congestion":       true,
	"CongestionOf":     true,
	"CongestionInto":   true,
	"CongestionOfInto": true,
	"OwnDerivs":        true,
	"OwnDerivsInto":    true,
	"Jacobian":         true,
	"JacobianInto":     true,
	"JacobianOf":       true,
	"L":                true,
	"LPrime":           true,
	"LPrime2":          true,
}

// guardFuncs are callables whose invocation constitutes a feasibility
// check of their argument.
var guardFuncs = map[string]bool{
	"Feasible":       true,
	"InDomain":       true,
	"CheckFeasible":  true,
	"CheckFeasibleG": true,
}

// derivHelpers are congestion-formula derivatives whose results are plain
// float64 (so the dimensional fingerprint misses them) but which share
// g's pole at Σr = 1.
var derivHelpers = map[string]bool{
	"GPrime":  true,
	"GPrime2": true,
	"LPrime":  true,
	"LPrime2": true,
}

// infSafeConsumers map infinite congestion to a well-ordered value, per
// the Utility contract.
var infSafeConsumers = map[string]bool{
	"Value":         true,
	"Gradient":      true,
	"MarginalRate":  true,
	"UtilityValues": true,
}

// infChecks are predicates whose use on a congestion result shows the
// caller handles the out-of-domain sentinel explicitly.
var infChecks = map[string]bool{
	"IsInf":       true,
	"IsNaN":       true,
	"IsFiniteVec": true,
}

func runFeasGuard(pass *Pass) error {
	fc := newFlowCache(pass)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if contractMethods[fd.Name.Name] {
				continue
			}
			sig, _ := pass.TypesInfo.TypeOf(fd.Name).(*types.Signature)
			checkFeasBody(pass, fc, fd.Body, sig)
		}
	}
	return nil
}

// checkFeasBody scans one function body; nested function literals recurse
// with their own flow facts so guards inside the literal count.
func checkFeasBody(pass *Pass, fc *flowCache, body *ast.BlockStmt, sig *types.Signature) {
	var ff *funcFlow // built lazily: most bodies contain no targets
	var parents []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			parents = parents[:len(parents)-1]
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			litSig, _ := types.Unalias(pass.TypesInfo.TypeOf(lit)).(*types.Signature)
			checkFeasBody(pass, fc, lit.Body, litSig)
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fn, rateIdx := feasTarget(pass, call); fn != nil {
				if ff == nil {
					ff = fc.flowFor(body, sig)
				}
				checkFeasCall(pass, ff, body, parents, call, fn, rateIdx)
			}
		}
		parents = append(parents, n)
		return true
	})
}

// feasTarget reports whether call is a congestion-formula invocation that
// needs a guard, returning the callee and the index of its rate argument.
func feasTarget(pass *Pass, call *ast.CallExpr) (*types.Func, int) {
	fn := calleeFunc(pass, call.Fun)
	if fn == nil || fn.Pkg() == nil {
		return nil, -1
	}
	// A file's own helpers are its internal layering: the file guards at
	// its boundary, so same-file calls are exempt.
	if fn.Pos().IsValid() &&
		pass.Fset.Position(fn.Pos()).Filename == pass.Fset.Position(call.Pos()).Filename {
		return nil, -1
	}
	sig, ok := types.Unalias(fn.Type()).(*types.Signature)
	if !ok {
		return nil, -1
	}
	rateIdx := -1
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		t := params.At(i).Type()
		if dimOfType(t) == dimRate || elemDim(t) == dimRate {
			rateIdx = i
			break
		}
	}
	if rateIdx < 0 || rateIdx >= len(call.Args) {
		return nil, -1
	}
	if derivHelpers[fn.Name()] {
		return fn, rateIdx
	}
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		t := results.At(i).Type()
		if dimOfType(t) == dimCongestion || elemDim(t) == dimCongestion {
			return fn, rateIdx
		}
	}
	return nil, -1
}

// calleeFunc resolves a call's function expression to its *types.Func.
func calleeFunc(pass *Pass, fun ast.Expr) *types.Func {
	switch fun := fun.(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.ParenExpr:
		return calleeFunc(pass, fun.X)
	}
	return nil
}

func checkFeasCall(pass *Pass, ff *funcFlow, body *ast.BlockStmt, parents []ast.Node, call *ast.CallExpr, fn *types.Func, rateIdx int) {
	arg := call.Args[rateIdx]
	if staticallyFeasible(pass, ff, arg) {
		return
	}
	if consumedInfSafely(pass, parents, call) {
		return
	}
	if resultInfChecked(pass, body, parents, call) {
		return
	}
	rateVars := provenanceVars(pass, ff, arg)
	for _, n := range ff.dominatorNodes(call.Pos()) {
		if containsNode(n, call) {
			// The use's own statement: only a guard textually before the
			// call counts (`if mm1.InDomain(r) && … { … G(x) }` shapes).
			if guardInNodeBefore(pass, n, call, rateVars) {
				return
			}
			continue
		}
		if nodeHasGuard(pass, n, rateVars) {
			return
		}
	}
	pass.Reportf(call.Pos(),
		"call to %s.%s with rate argument not dominated by a feasibility guard (core.Feasible / mm1.InDomain / compare Σr against 1); annotate //lint:allow feasguard if infeasible input is impossible here",
		fn.Pkg().Name(), fn.Name())
}

// containsNode reports whether outer's source span contains inner.
func containsNode(outer, inner ast.Node) bool {
	return outer.Pos() <= inner.Pos() && inner.End() <= outer.End()
}

// guardInNodeBefore searches the part of a statement before the target
// call for a guard (covers `if mm1.InDomain(r) && … { G(…) }` shapes where
// guard and use share one block node).
func guardInNodeBefore(pass *Pass, n ast.Node, call *ast.CallExpr, rateVars map[*types.Var]bool) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil || found {
			return false
		}
		if m.Pos() >= call.Pos() {
			return false
		}
		if isGuardNode(pass, m, rateVars) {
			found = true
			return false
		}
		return true
	})
	return found
}

// nodeHasGuard reports whether a dominating block node performs a
// feasibility check tied to the rate data.
func nodeHasGuard(pass *Pass, n ast.Node, rateVars map[*types.Var]bool) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if isGuardNode(pass, m, rateVars) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isGuardNode recognizes one feasibility-check expression with data
// provenance into rateVars (an empty provenance set accepts any guard).
func isGuardNode(pass *Pass, m ast.Node, rateVars map[*types.Var]bool) bool {
	switch m := m.(type) {
	case *ast.CallExpr:
		fn := calleeFunc(pass, m.Fun)
		if fn == nil || !guardFuncs[fn.Name()] {
			return false
		}
		return mentionsAny(pass, m, rateVars)
	case *ast.SelectorExpr:
		// FeasibilityReport.Feasible (or a *Feasible-suffixed field read).
		if v, ok := pass.TypesInfo.Uses[m.Sel].(*types.Var); ok && v.IsField() &&
			strings.HasSuffix(m.Sel.Name, "Feasible") {
			return mentionsAny(pass, m, rateVars)
		}
	case *ast.BinaryExpr:
		// Direct comparison against 1: `sum < 1`, `1 <= total`, …
		switch m.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
		default:
			return false
		}
		if isConstOne(pass, m.Y) {
			return mentionsAny(pass, m.X, rateVars)
		}
		if isConstOne(pass, m.X) {
			return mentionsAny(pass, m.Y, rateVars)
		}
	}
	return false
}

func isConstOne(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	v, ok := constant.Float64Val(constant.ToFloat(tv.Value))
	return ok && v == 1 //lint:allow floateq recognizing the literal constant 1 exactly is the point
}

// provenanceVars collects the variables the rate argument derives from:
// those mentioned directly, expanded twice through reaching definitions so
// local copies and accumulations trace back to their sources.
func provenanceVars(pass *Pass, ff *funcFlow, arg ast.Expr) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	collectVars(pass, arg, out)
	for depth := 0; depth < 2; depth++ {
		grown := make(map[*types.Var]bool, len(out))
		for v := range out {
			grown[v] = true
			for _, d := range ff.defsOf[v] {
				if d.rhs != nil {
					collectVars(pass, d.rhs, grown)
				}
			}
		}
		if len(grown) == len(out) {
			break
		}
		out = grown
	}
	return out
}

func collectVars(pass *Pass, e ast.Expr, into map[*types.Var]bool) {
	ast.Inspect(e, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
				into[v] = true
			}
		}
		return true
	})
}

// mentionsAny reports whether the expression references one of the
// provenance variables.  An empty provenance set (a rate argument with no
// variable roots) accepts any guard.
func mentionsAny(pass *Pass, n ast.Node, rateVars map[*types.Var]bool) bool {
	if len(rateVars) == 0 {
		return true
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if id, ok := m.(*ast.Ident); ok {
			if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && rateVars[v] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// consumedInfSafely reports whether the call's result feeds directly into
// a Utility evaluation, whose contract maps c = +Inf to −Inf.
func consumedInfSafely(pass *Pass, parents []ast.Node, call *ast.CallExpr) bool {
	for i := len(parents) - 1; i >= 0; i-- {
		switch p := parents[i].(type) {
		case *ast.CallExpr:
			if p == call {
				continue
			}
			if fn := calleeFunc(pass, p.Fun); fn != nil && infSafeConsumers[fn.Name()] {
				return true
			}
			return false // argument to some other call: stop climbing
		case *ast.ParenExpr, *ast.IndexExpr:
			continue // transparent wrappers
		case ast.Stmt:
			return false
		}
	}
	return false
}

// resultInfChecked reports whether the call's result lands in variables
// the function later feeds to an infinity check or a Utility evaluation —
// the result-inspection idiom (`c := a.CongestionOf(r, i); if
// math.IsInf(c, 1) { … }`).
func resultInfChecked(pass *Pass, body *ast.BlockStmt, parents []ast.Node, call *ast.CallExpr) bool {
	if len(parents) == 0 {
		return false
	}
	assign, ok := parents[len(parents)-1].(*ast.AssignStmt)
	if !ok {
		return false
	}
	dests := make(map[*types.Var]bool)
	for _, lhs := range assign.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		if v := varOf(pass, id); v != nil {
			dests[v] = true
		}
	}
	if len(dests) == 0 {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		c, ok := n.(*ast.CallExpr)
		if !ok || c.Pos() <= call.End() {
			return true
		}
		fn := calleeFunc(pass, c.Fun)
		if fn == nil || !(infChecks[fn.Name()] || infSafeConsumers[fn.Name()]) {
			return true
		}
		for _, a := range c.Args {
			ast.Inspect(a, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if v := varOf(pass, id); v != nil && dests[v] {
						found = true
					}
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// varOf resolves an identifier's variable object through Uses or Defs.
func varOf(pass *Pass, id *ast.Ident) *types.Var {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

// staticallyFeasible recognizes arguments whose feasibility is decidable
// at compile time: scalar constants in (0,1) and composite literals of
// positive constants summing below 1 (reached directly or through a single
// reaching definition).
func staticallyFeasible(pass *Pass, ff *funcFlow, arg ast.Expr) bool {
	if v, ok := elemConstFloat(pass, ff, arg); ok {
		return v > 0 && v < 1
	}
	if lit, ok := asRateLiteral(pass, ff, arg); ok {
		sum := 0.0
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			v, ok := elemConstFloat(pass, ff, el)
			if !ok || v <= 0 {
				return false
			}
			sum += v
		}
		return sum < 1 && len(lit.Elts) > 0
	}
	return false
}

// elemConstFloat resolves an expression to a compile-time float: a
// constant, or a variable fed by exactly one constant definition
// (x := 0.3; … G(x)).
func elemConstFloat(pass *Pass, ff *funcFlow, e ast.Expr) (float64, bool) {
	if v, ok := constFloat(pass, e); ok {
		return v, true
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return 0, false
	}
	v := ff.objVar(id)
	if v == nil {
		return 0, false
	}
	if defs := ff.reachingDefs(v, id.Pos()); len(defs) == 1 && defs[0].rhs != nil {
		return constFloat(pass, defs[0].rhs)
	}
	return 0, false
}

func constFloat(pass *Pass, e ast.Expr) (float64, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v, ok := constant.Float64Val(constant.ToFloat(tv.Value))
	return v, ok
}

// asRateLiteral unwraps arg to a slice composite literal, following one
// unambiguous reaching definition if needed.
func asRateLiteral(pass *Pass, ff *funcFlow, arg ast.Expr) (*ast.CompositeLit, bool) {
	for unwrapped := true; unwrapped; {
		unwrapped = false
		switch a := arg.(type) {
		case *ast.ParenExpr:
			arg, unwrapped = a.X, true
		case *ast.CallExpr:
			// Conversion like []core.Rate(lit).
			if tv, ok := pass.TypesInfo.Types[a.Fun]; ok && tv.IsType() && len(a.Args) == 1 {
				arg, unwrapped = a.Args[0], true
			}
		}
	}
	if lit, ok := arg.(*ast.CompositeLit); ok {
		return lit, true
	}
	id, ok := arg.(*ast.Ident)
	if !ok {
		return nil, false
	}
	v := ff.objVar(id)
	if v == nil {
		return nil, false
	}
	defs := ff.reachingDefs(v, id.Pos())
	if len(defs) != 1 || defs[0].rhs == nil {
		return nil, false
	}
	lit, ok := defs[0].rhs.(*ast.CompositeLit)
	return lit, ok
}
