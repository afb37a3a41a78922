package lint

// This file is the interprocedural substrate of the suite: a module-wide
// approximate call graph whose per-function summaries ("facts") travel
// between packages.  Within one package the graph is exact for static
// calls — function declarations linked by the calls their bodies (and
// nested function literals) make.  Across packages it is carried by
// FuncFact values: the driver analyzes packages in dependency order, so
// when package P is analyzed the facts of every package it imports are
// already in the store, and a summary like "alloc.FairShare.CongestionInto
// does not allocate" flows to callers without re-analyzing alloc.
//
// The approximations, chosen so analyzers err toward fewer findings:
//
//   - Calls through interfaces are contract boundaries, not graph edges.
//     The hot-path implementations behind them (CongestionInto and
//     friends) carry their own //lint:hotpath annotations and are checked
//     in their home packages.
//   - Calls through function values are not edges either: the function
//     value's body was scanned where the literal was created (a nested
//     literal's constructs count against its enclosing declaration).
//   - Unknown callees outside the module default to "may allocate" with a
//     witness naming them, except for a small allowlist of stdlib
//     functions that are known allocation-free (math.*, the in-place
//     sort entry points, *rand.Rand draws).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// A FuncFact is the exported, package-crossing summary of one function.
type FuncFact struct {
	// Hotpath marks a //lint:hotpath annotation on the declaration.
	Hotpath bool
	// Allocates reports whether the function may heap-allocate, directly
	// or through anything it statically calls.  Allocation sites carrying
	// //lint:allow allocfree do not count.
	Allocates bool
	// Witness names the reason for Allocates: the first allocating
	// construct, or the first allocating callee.
	Witness string
	// TakesCtx reports a context.Context parameter in the signature.
	TakesCtx bool
	// CtxVariant is the key of the sibling context-aware variant (Foo →
	// FooCtx, same receiver) when one exists, so callers holding a ctx can
	// be pointed at it.
	CtxVariant string
	// NeedsLocks lists the //lint:locked lock names of the declaration:
	// locks every caller must hold (exclusive) around a call.  The
	// guardedby analyzer checks call sites against its lock-held lattice,
	// cross-package included.
	NeedsLocks []string
}

// PkgFacts bundles one package's exported function facts.
type PkgFacts struct {
	Funcs map[string]FuncFact
}

// A FactStore accumulates the facts of analyzed packages.  The driver adds
// each package's facts as it goes, so dependents see the whole downward
// closure.
type FactStore struct {
	funcs map[string]FuncFact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{funcs: make(map[string]FuncFact)}
}

// Add merges one package's facts into the store.
func (s *FactStore) Add(pf *PkgFacts) {
	if pf == nil {
		return
	}
	for k, f := range pf.Funcs {
		s.funcs[k] = f
	}
}

// Lookup returns the fact recorded under key.
func (s *FactStore) Lookup(key string) (FuncFact, bool) {
	f, ok := s.funcs[key]
	return f, ok
}

// An AllocSite is one heap-allocating construct found in a function body.
type AllocSite struct {
	Pos  token.Pos
	What string // e.g. "make", "growing append", "closure capturing i"
}

// A CallSite is one static call edge out of a function.
type CallSite struct {
	Pos token.Pos
	// Callee resolves the target; nil for dynamic calls (function values)
	// and interface dispatch, which are not graph edges.
	Callee *types.Func
	// Local is the same-package declaration when the callee has one.
	Local *FuncInfo
	// Iface marks dispatch through an interface method.
	Iface bool
}

// A FuncInfo is one declared function of the package under analysis,
// with its local summary and outgoing static edges.
type FuncInfo struct {
	// Key is the package-qualified fact key, e.g.
	// "greednet/internal/alloc.(FairShare).CongestionInto".
	Key string
	// Display is the short human form used in messages, e.g.
	// "alloc.(FairShare).CongestionInto".
	Display string
	Decl    *ast.FuncDecl
	Obj     *types.Func
	// Hotpath marks the //lint:hotpath annotation.
	Hotpath bool
	// Locked lists the //lint:locked lock names of the declaration.
	Locked []string
	// TakesCtx reports a context.Context parameter.
	TakesCtx bool
	// Allocs are the function's own allocating constructs (allowances and
	// the guarded-grow idiom already excluded).
	Allocs []AllocSite
	// Calls are the function's outgoing call sites in source order.
	Calls []CallSite
	// Fact is the computed transitive summary exported for dependents.
	Fact FuncFact
}

// Graph is the package-level call-graph substrate handed to analyzers.
type Graph struct {
	// Funcs lists the package's declared functions in source order.
	Funcs []*FuncInfo
	// ByObj indexes them by their type-checker object.
	ByObj map[*types.Func]*FuncInfo
	// ByKey indexes them by fact key.
	ByKey map[string]*FuncInfo
	// Imported holds the facts of every dependency.
	Imported *FactStore
	// Facts is the package's own exported fact set.
	Facts *PkgFacts
}

// FuncKey builds the fact key of a function object.
func FuncKey(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if recv := recvTypeName(fn); recv != "" {
		return pkg + ".(" + recv + ")." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// displayKey is the short message form: package name instead of path.
func displayKey(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name()
	}
	if recv := recvTypeName(fn); recv != "" {
		return pkg + ".(" + recv + ")." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// recvTypeName returns the receiver's named-type name, or "".
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// isCtxType reports whether t is context.Context.
func isCtxType(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// sigTakesCtx reports whether any parameter is a context.Context.
func sigTakesCtx(sig *types.Signature) bool {
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isCtxType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// allocAllowlist lists stdlib callables known not to heap-allocate.  A
// package mapped to nil allows every function in it.
var allocAllowlist = map[string]map[string]bool{
	"math":      nil,
	"math/bits": nil,
	// The in-place sorts: they permute through the interface they are
	// handed and allocate nothing themselves (sort.Slice, which builds a
	// reflect-based swapper, is deliberately absent).
	"sort": {"Sort": true, "Stable": true, "Search": true, "SearchFloat64s": true, "SearchInts": true},
	// Draws on an existing *rand.Rand stream are arithmetic on its state.
	"math/rand": {"Float64": true, "ExpFloat64": true, "NormFloat64": true,
		"Int63": true, "Int63n": true, "Intn": true, "Int31": true, "Int31n": true,
		"Uint64": true, "Perm": false, "Shuffle": true},
}

// allowlistedAlloc reports whether a callee outside the module is known
// allocation-free.
func allowlistedAlloc(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	names, ok := allocAllowlist[fn.Pkg().Path()]
	if !ok {
		return false
	}
	if names == nil {
		return true
	}
	return names[fn.Name()]
}

// buildGraph constructs the package's call-graph substrate: declarations,
// local allocation summaries, static edges, annotation bits, and the
// fixed-point transitive facts.
func buildGraph(pass *Pass, store *FactStore) *Graph {
	g := &Graph{
		ByObj:    make(map[*types.Func]*FuncInfo),
		ByKey:    make(map[string]*FuncInfo),
		Imported: store,
	}

	// Pass 1: declare every function, with its annotation and ctx bits.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig, _ := obj.Type().(*types.Signature)
			fi := &FuncInfo{
				Key:      FuncKey(obj),
				Display:  displayKey(obj),
				Decl:     fd,
				Obj:      obj,
				Hotpath:  HasHotpathDirective(fd),
				Locked:   lockedDirective(fd),
				TakesCtx: sigTakesCtx(sig),
			}
			g.Funcs = append(g.Funcs, fi)
			g.ByObj[obj] = fi
			g.ByKey[fi.Key] = fi
		}
	}

	// Pass 2: scan bodies for allocation sites and call edges.
	for _, fi := range g.Funcs {
		scanBody(pass, g, fi)
	}

	// Ctx variants: Foo → FooCtx with the same receiver, declared in a
	// non-test file (so the fact set is identical with and without the
	// test variant's extra files).
	for _, fi := range g.Funcs {
		if fi.TakesCtx || pass.InTestFile(fi.Decl.Pos()) {
			continue
		}
		vkey := variantKey(fi.Key)
		if v, ok := g.ByKey[vkey]; ok && v.TakesCtx && !pass.InTestFile(v.Decl.Pos()) {
			fi.Fact.CtxVariant = vkey
		}
	}

	// Fixed point: a function allocates when it has a live local site or
	// statically calls something that does.  Local edges iterate to
	// convergence (recursion is a cycle, not a crash); external edges
	// consult the imported facts once.
	for _, fi := range g.Funcs {
		fi.Fact.Hotpath = fi.Hotpath
		fi.Fact.NeedsLocks = fi.Locked
		fi.Fact.TakesCtx = fi.TakesCtx
		if len(fi.Allocs) > 0 {
			fi.Fact.Allocates = true
			fi.Fact.Witness = fmt.Sprintf("%s at %s", fi.Allocs[0].What, shortPos(pass.Fset, fi.Allocs[0].Pos))
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range g.Funcs {
			if fi.Fact.Allocates {
				continue
			}
			for _, c := range fi.Calls {
				alloc, witness := calleeAllocates(g, store, c)
				if !alloc {
					continue
				}
				if pass.Allowed(c.Pos, AllocFreeName) {
					// An audited call-site allow keeps the callee's
					// allocation out of this function's summary, so it does
					// not poison callers (CtxErr's fired-path errors.Is is
					// the canonical case).
					continue
				}
				fi.Fact.Allocates = true
				fi.Fact.Witness = witness
				changed = true
				break
			}
		}
	}

	// Export: this package's functions, for the driver's fact store.
	g.Facts = &PkgFacts{Funcs: make(map[string]FuncFact)}
	for _, fi := range g.Funcs {
		g.Facts.Funcs[fi.Key] = fi.Fact
	}
	return g
}

// calleeAllocates resolves one call site's allocation behavior.
func calleeAllocates(g *Graph, store *FactStore, c CallSite) (bool, string) {
	if c.Callee == nil || c.Iface {
		// Dynamic and interface dispatch are contract boundaries — the
		// target's own package checks its body (see the file comment).
		return false, ""
	}
	if c.Local != nil {
		if c.Local.Fact.Allocates {
			w := c.Local.Fact.Witness
			if strings.HasPrefix(w, "calls ") {
				w = "transitively allocates"
			}
			return true, fmt.Sprintf("calls %s (%s)", c.Local.Display, w)
		}
		return false, ""
	}
	key := FuncKey(c.Callee)
	if fact, ok := store.Lookup(key); ok {
		if fact.Allocates {
			w := fact.Witness
			if strings.HasPrefix(w, "calls ") {
				w = "transitively allocates"
			}
			return true, fmt.Sprintf("calls %s (%s)", displayKey(c.Callee), w)
		}
		return false, ""
	}
	if allowlistedAlloc(c.Callee) {
		return false, ""
	}
	return true, fmt.Sprintf("calls %s, whose allocation behavior is unknown (no facts; outside the module)", displayKey(c.Callee))
}

// variantKey rewrites a fact key to its Ctx-variant sibling: the final
// name segment gains a "Ctx" suffix.
func variantKey(key string) string { return key + "Ctx" }

// HasHotpathDirective reports a //lint:hotpath line in the declaration's
// doc comment: the directive alone, or followed by whitespace and a note.
// A longer token such as //lint:hotpathological is another directive.
func HasHotpathDirective(fd *ast.FuncDecl) bool {
	_, _, found := directiveArgs(fd.Doc, HotpathDirective)
	return found
}

// lockedDirective parses the //lint:locked names in the declaration's doc
// comment: the locks (receiver fields or package variables, by the same
// textual paths the lock lattice uses) that every caller must hold around
// a call.  Names are sorted so the exported fact is canonical.
func lockedDirective(fd *ast.FuncDecl) []string {
	if fd.Doc == nil {
		return nil
	}
	var out []string
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(c.Text)
		if !strings.HasPrefix(text, LockedDirective) {
			continue
		}
		out = append(out, strings.Fields(strings.TrimPrefix(text, LockedDirective))...)
	}
	sort.Strings(out)
	return out
}

// shortPos renders a position as basename:line, keeping witnesses (which
// cross package boundaries inside facts) machine-independent.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// scanBody fills fi.Allocs and fi.Calls from the declaration body,
// including nested function literals (their constructs and calls count
// against the enclosing declaration; see the file comment).
func scanBody(pass *Pass, g *Graph, fi *FuncInfo) {
	// exempt spans cover the guarded-grow idiom: allocations inside
	// `if cap(buf) < n { buf = make(...) }` (or the len form) are the
	// amortized warm-up path the zero-alloc contract explicitly permits.
	var exempt []ast.Node

	addAlloc := func(pos token.Pos, what string) {
		for _, e := range exempt {
			if e.Pos() <= pos && pos <= e.End() {
				return
			}
		}
		if pass.sup.allowedAt(pass.Fset, pos, AllocFreeName) {
			return
		}
		fi.Allocs = append(fi.Allocs, AllocSite{Pos: pos, What: what})
	}

	// Selectors in call position are dispatch, not method values; collect
	// them up front so scanMethodValue can tell the two apart.
	callFuns := make(map[ast.Expr]bool)
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			callFuns[unparen(call.Fun)] = true
		}
		return true
	})

	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if isGrowGuard(n.Cond) {
				exempt = append(exempt, n.Body)
			}
		case *ast.GoStmt:
			addAlloc(n.Pos(), "goroutine spawn")
		case *ast.CallExpr:
			scanCall(pass, g, fi, n, addAlloc)
		case *ast.CompositeLit:
			switch types.Unalias(pass.TypesInfo.TypeOf(n)).Underlying().(type) {
			case *types.Slice:
				addAlloc(n.Pos(), "slice literal")
			case *types.Map:
				addAlloc(n.Pos(), "map literal")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					addAlloc(n.Pos(), "composite literal escaping through &")
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if idx, ok := lhs.(*ast.IndexExpr); ok {
					if _, ok := types.Unalias(pass.TypesInfo.TypeOf(idx.X)).Underlying().(*types.Map); ok {
						addAlloc(lhs.Pos(), "map write")
					}
				}
			}
			scanBoxing(pass, n, addAlloc)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(pass.TypesInfo.TypeOf(n)) {
				addAlloc(n.Pos(), "string concatenation")
			}
		case *ast.FuncLit:
			if capt := capturedLocal(pass, fi.Decl, n); capt != "" {
				addAlloc(n.Pos(), "closure capturing "+capt)
			}
			// Keep walking: the literal's body belongs to this function.
		case *ast.SelectorExpr:
			if !callFuns[n] {
				scanMethodValue(pass, g, fi, n, addAlloc)
			}
		case *ast.ValueSpec:
			scanSpecBoxing(pass, n, addAlloc)
		case *ast.ReturnStmt:
			scanReturnBoxing(pass, fi, n, addAlloc)
		}
		return true
	})
}

// isGrowGuard recognizes `cap(x) < n`-shaped conditions (either operand,
// len or cap, any ordering comparison).
func isGrowGuard(cond ast.Expr) bool {
	b, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch b.Op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.NEQ:
	default:
		return false
	}
	return isLenCapCall(b.X) || isLenCapCall(b.Y)
}

func isLenCapCall(e ast.Expr) bool {
	c, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := c.Fun.(*ast.Ident)
	return ok && (id.Name == "len" || id.Name == "cap")
}

// scanCall classifies one call expression: builtin allocators, string
// conversions, boxing at the call boundary, and the static call edge.
func scanCall(pass *Pass, g *Graph, fi *FuncInfo, call *ast.CallExpr, addAlloc func(token.Pos, string)) {
	// Conversions: T(x).  Flag the allocating string<->[]byte pair.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, pass.TypesInfo.TypeOf(call.Args[0])
		if isStringByteConv(to, from) {
			addAlloc(call.Pos(), "string/[]byte conversion")
		}
		if isIfaceBoxing(to, from) {
			addAlloc(call.Pos(), "interface boxing")
		}
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if obj, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch obj.Name() {
			case "make":
				addAlloc(call.Pos(), "make")
			case "new":
				addAlloc(call.Pos(), "new")
			case "append":
				addAlloc(call.Pos(), "growing append")
			}
			return
		}
	}
	fn := calleeFunc(pass, call.Fun)
	if fn == nil {
		return // dynamic call through a function value: not an edge
	}
	iface := ifaceMethod(fn)
	// Boxing of concrete arguments into interface parameters, and the
	// backing slice of a variadic call.
	if sig, ok := types.Unalias(fn.Type()).(*types.Signature); ok {
		scanArgBoxing(pass, sig, call, addAlloc)
	}
	cs := CallSite{Pos: call.Pos(), Callee: fn, Iface: iface}
	if fn.Pkg() == pass.Pkg {
		cs.Local = g.ByObj[fn]
	}
	fi.Calls = append(fi.Calls, cs)
}

// scanMethodValue records `x.Method` used as a value (never in call
// position — the caller filters those): a method value binds its receiver
// in a fresh closure (an allocation) and is an edge to the method.
func scanMethodValue(pass *Pass, g *Graph, fi *FuncInfo, sel *ast.SelectorExpr, addAlloc func(token.Pos, string)) {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return
	}
	fn, _ := s.Obj().(*types.Func)
	if fn == nil {
		return
	}
	addAlloc(sel.Pos(), "method value binding "+fn.Name())
	cs := CallSite{Pos: sel.Pos(), Callee: fn, Iface: ifaceMethod(fn)}
	if fn.Pkg() == pass.Pkg {
		cs.Local = g.ByObj[fn]
	}
	fi.Calls = append(fi.Calls, cs)
}

// ifaceMethod reports whether fn is declared on an interface — its call
// sites are dynamic dispatch, a contract boundary rather than a graph
// edge.
func ifaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, isI := sig.Recv().Type().Underlying().(*types.Interface)
	return isI
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// scanArgBoxing flags concrete-to-interface conversions at a static call
// boundary and the argument slice of a non-empty variadic call.
func scanArgBoxing(pass *Pass, sig *types.Signature, call *ast.CallExpr, addAlloc func(token.Pos, string)) {
	params := sig.Params()
	n := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= n-1:
			if call.Ellipsis.IsValid() {
				continue // pass-through slice: no new backing array
			}
			pt = params.At(n - 1).Type().(*types.Slice).Elem()
			if i == n-1 {
				addAlloc(call.Pos(), "variadic argument slice")
			}
		case i < n:
			pt = params.At(i).Type()
		default:
			continue
		}
		if isIfaceBoxing(pt, pass.TypesInfo.TypeOf(arg)) && !isUntypedNil(pass, arg) {
			addAlloc(arg.Pos(), "interface boxing")
		}
	}
}

// scanBoxing flags concrete-to-interface conversions in assignments.
func scanBoxing(pass *Pass, n *ast.AssignStmt, addAlloc func(token.Pos, string)) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, rhs := range n.Rhs {
		lt := pass.TypesInfo.TypeOf(n.Lhs[i])
		if lt == nil && n.Tok == token.DEFINE {
			continue // new variable takes the RHS type: no conversion
		}
		if isIfaceBoxing(lt, pass.TypesInfo.TypeOf(rhs)) && !isUntypedNil(pass, rhs) {
			addAlloc(rhs.Pos(), "interface boxing")
		}
	}
}

// scanSpecBoxing flags boxing in `var x Iface = concrete` declarations.
func scanSpecBoxing(pass *Pass, vs *ast.ValueSpec, addAlloc func(token.Pos, string)) {
	if vs.Type == nil {
		return
	}
	lt := pass.TypesInfo.TypeOf(vs.Type)
	for _, v := range vs.Values {
		if isIfaceBoxing(lt, pass.TypesInfo.TypeOf(v)) && !isUntypedNil(pass, v) {
			addAlloc(v.Pos(), "interface boxing")
		}
	}
}

// scanReturnBoxing flags boxing at return statements against the
// enclosing signature.
func scanReturnBoxing(pass *Pass, fi *FuncInfo, ret *ast.ReturnStmt, addAlloc func(token.Pos, string)) {
	sig, ok := fi.Obj.Type().(*types.Signature)
	if !ok || sig.Results().Len() != len(ret.Results) {
		return
	}
	for i, r := range ret.Results {
		if isIfaceBoxing(sig.Results().At(i).Type(), pass.TypesInfo.TypeOf(r)) && !isUntypedNil(pass, r) {
			addAlloc(r.Pos(), "interface boxing")
		}
	}
}

// isIfaceBoxing reports a conversion of a concrete, non-pointer-shaped
// value into an interface — the conversions that heap-allocate.  Pointer-
// shaped values (pointers, channels, maps, funcs, unsafe pointers) fit the
// interface word directly.
func isIfaceBoxing(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	if _, ok := to.Underlying().(*types.Interface); !ok {
		return false
	}
	switch from.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	}
	return true
}

func isUntypedNil(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.IsNil()
}

func isStringByteConv(to, from types.Type) bool {
	return (isStringType(to) && isByteSlice(from)) || (isByteSlice(to) && isStringType(from))
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// capturedLocal returns the name of one variable the literal captures from
// the enclosing function (parameters, receivers, and locals declared
// outside the literal), or "" when the closure is capture-free.  Package-
// level variables do not force an environment — closures over them are
// static — so they do not count.
func capturedLocal(pass *Pass, decl *ast.FuncDecl, lit *ast.FuncLit) string {
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Declared inside the enclosing declaration but outside the
		// literal — an environment capture.
		if v.Pos() >= decl.Pos() && v.Pos() <= decl.End() &&
			(v.Pos() < lit.Pos() || v.Pos() > lit.End()) {
			captured = v.Name()
			return false
		}
		return true
	})
	return captured
}
