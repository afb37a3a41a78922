package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// graphFixture typechecks one in-memory package and builds its call-graph
// substrate the same way RunPkg does.
type graphFixture struct {
	pass  *Pass
	graph *Graph
}

// mapImporter resolves imports from already-typechecked packages, letting
// tests wire up multi-package fixtures in memory; anything else falls back
// to the source importer (stdlib from GOROOT).
type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	if p, ok := m[path]; ok {
		return p, nil
	}
	return importer.ForCompiler(token.NewFileSet(), "source", nil).Import(path)
}

func buildGraphFixture(t *testing.T, path, src string, deps mapImporter, store *FactStore) *graphFixture {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: deps}
	pkg, err := conf.Check(path, fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", path, err)
	}
	if store == nil {
		store = NewFactStore()
	}
	var diags []Diagnostic
	pass := &Pass{
		Fset:      fset,
		Files:     []*ast.File{file},
		Pkg:       pkg,
		TypesInfo: info,
		sup:       collectSuppressions(fset, []*ast.File{file}),
		diags:     &diags,
	}
	pass.Graph = buildGraph(pass, store)
	return &graphFixture{pass: pass, graph: pass.Graph}
}

func (fx *graphFixture) fn(t *testing.T, key string) *FuncInfo {
	t.Helper()
	fi, ok := fx.graph.ByKey[key]
	if !ok {
		var keys []string
		for k := range fx.graph.ByKey {
			keys = append(keys, k)
		}
		t.Fatalf("no function %q in graph; have %v", key, keys)
	}
	return fi
}

func TestCallGraphStaticEdges(t *testing.T) {
	src := `package g
type Q struct{ n int }
func (q *Q) Bump() { q.n++ }
func helper(x int) int { return x + 1 }
func Root(q *Q) int {
	q.Bump()
	return helper(q.n)
}`
	fx := buildGraphFixture(t, "g", src, nil, nil)
	root := fx.fn(t, "g.Root")
	var callees []string
	for _, c := range root.Calls {
		if c.Local != nil {
			callees = append(callees, c.Local.Key)
		}
	}
	got := strings.Join(callees, ",")
	if got != "g.(Q).Bump,g.helper" {
		t.Errorf("Root's local edges = %q, want g.(Q).Bump then g.helper", got)
	}
}

func TestCallGraphMethodValueIsEdgeAndAllocation(t *testing.T) {
	src := `package g
type Q struct{ n int }
func (q *Q) Bump() { q.n++ }
func Root(q *Q) func() {
	h := q.Bump
	return h
}`
	fx := buildGraphFixture(t, "g", src, nil, nil)
	root := fx.fn(t, "g.Root")
	foundEdge := false
	for _, c := range root.Calls {
		if c.Local != nil && c.Local.Key == "g.(Q).Bump" {
			foundEdge = true
		}
	}
	if !foundEdge {
		t.Errorf("method value q.Bump did not produce a call edge to g.(Q).Bump")
	}
	foundAlloc := false
	for _, a := range root.Allocs {
		if strings.Contains(a.What, "method value") {
			foundAlloc = true
		}
	}
	if !foundAlloc {
		t.Errorf("method value q.Bump did not produce an allocation site; sites: %+v", root.Allocs)
	}
	// The same selector in call position must NOT be a method value.
	src2 := `package g
type Q struct{ n int }
func (q *Q) Bump() { q.n++ }
func Root(q *Q) { q.Bump() }`
	fx2 := buildGraphFixture(t, "g", src2, nil, nil)
	if allocs := fx2.fn(t, "g.Root").Allocs; len(allocs) != 0 {
		t.Errorf("plain method call flagged as allocation: %+v", allocs)
	}
}

func TestFactsTransitiveAllocation(t *testing.T) {
	src := `package g
func leaf(n int) []int { return make([]int, n) }
func mid(n int) []int { return leaf(n) }
func clean(x int) int { return x * 2 }
func cycleA(n int) int { if n == 0 { return 0 }; return cycleB(n - 1) }
func cycleB(n int) int { return cycleA(n) }`
	fx := buildGraphFixture(t, "g", src, nil, nil)
	if f := fx.fn(t, "g.leaf").Fact; !f.Allocates || !strings.Contains(f.Witness, "make") {
		t.Errorf("leaf fact = %+v, want Allocates with a make witness", f)
	}
	if f := fx.fn(t, "g.mid").Fact; !f.Allocates || !strings.Contains(f.Witness, "g.leaf") {
		t.Errorf("mid fact = %+v, want transitive Allocates witnessing g.leaf", f)
	}
	if f := fx.fn(t, "g.clean").Fact; f.Allocates {
		t.Errorf("clean fact = %+v, want allocation-free", f)
	}
	// Mutual recursion must converge (and neither function allocates).
	for _, name := range []string{"g.cycleA", "g.cycleB"} {
		if f := fx.fn(t, name).Fact; f.Allocates {
			t.Errorf("%s fact = %+v, want allocation-free despite the cycle", name, f)
		}
	}
}

func TestHotpathAndCtxBits(t *testing.T) {
	src := `package g
import "context"

//lint:hotpath
func Hot(x float64) float64 { return x }

func Work(xs []float64) float64 { return xs[0] }
func WorkCtx(ctx context.Context, xs []float64) float64 {
	if ctx.Err() != nil { return 0 }
	return Work(xs)
}`
	fx := buildGraphFixture(t, "g", src, nil, nil)
	if !fx.fn(t, "g.Hot").Fact.Hotpath {
		t.Errorf("//lint:hotpath doc directive not recorded in Hot's fact")
	}
	if !fx.fn(t, "g.WorkCtx").Fact.TakesCtx {
		t.Errorf("WorkCtx's context parameter not recorded in its fact")
	}
	if v := fx.fn(t, "g.Work").Fact.CtxVariant; v != "g.WorkCtx" {
		t.Errorf("Work's CtxVariant = %q, want g.WorkCtx", v)
	}
}

func TestGrowGuardAndAllowExemptions(t *testing.T) {
	src := `package g
func Grow(dst []float64, n int) []float64 {
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	return dst[:n]
}
func Fallback(p *float64) *float64 {
	if p == nil {
		p = new(float64) //lint:allow allocfree nil-arg fallback
	}
	return p
}`
	fx := buildGraphFixture(t, "g", src, nil, nil)
	if f := fx.fn(t, "g.Grow").Fact; f.Allocates {
		t.Errorf("guarded cap-grow make counted as allocation: %+v", f)
	}
	if f := fx.fn(t, "g.Fallback").Fact; f.Allocates {
		t.Errorf("allowed new counted as allocation: %+v", f)
	}
	// The consumed allow must not be reported stale.
	if stale := fx.pass.sup.staleDirectives(map[string]bool{AllocFreeName: true}); len(stale) != 0 {
		t.Errorf("fact-consumed allow reported stale: %+v", stale[0])
	}
}

// TestCrossPackageFacts drives the full two-package flow: package a is
// analyzed first, its facts feed package b's pass, and both allocfree and
// ctxflow report b's violations against a's summaries.
func TestCrossPackageFacts(t *testing.T) {
	srcA := `package a
import "context"
func Alloc(n int) []float64 { return make([]float64, n) }
func Clean(x float64) float64 { return 2 * x }
func Work(xs []float64) float64 { return xs[0] }
func WorkCtx(ctx context.Context, xs []float64) float64 {
	if ctx.Err() != nil { return 0 }
	return Work(xs)
}`
	fxA := buildGraphFixture(t, "a", srcA, nil, nil)

	store := NewFactStore()
	store.Add(fxA.graph.Facts)
	if _, ok := store.Lookup("a.Alloc"); !ok {
		t.Fatalf("store does not record package a's facts after Add")
	}

	srcB := `package b
import (
	"context"

	"a"
)

//lint:hotpath
func HotCallsClean(x float64) float64 { return a.Clean(x) }

//lint:hotpath
func HotCallsAlloc(n int) []float64 { return a.Alloc(n) }

func DropsCtx(ctx context.Context, xs []float64) float64 { return a.Work(xs) }
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "b.go", srcB, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse b: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: mapImporter{"a": fxA.pass.Pkg}}
	pkg, err := conf.Check("b", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("typecheck b: %v", err)
	}
	diags, facts, err := RunPkg([]*Analyzer{AllocFree, CtxFlow}, fset, []*ast.File{file}, pkg, info, store)
	if err != nil {
		t.Fatalf("RunPkg b: %v", err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer+": "+d.Message)
	}
	joined := strings.Join(got, "\n")
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2 (one allocfree, one ctxflow):\n%s", len(diags), joined)
	}
	if !strings.Contains(joined, "allocfree") || !strings.Contains(joined, "a.Alloc") {
		t.Errorf("missing allocfree finding against a.Alloc:\n%s", joined)
	}
	if strings.Contains(joined, "a.Clean") {
		t.Errorf("allocation-free cross-package callee a.Clean was flagged:\n%s", joined)
	}
	if !strings.Contains(joined, "ctxflow") || !strings.Contains(joined, "WorkCtx") {
		t.Errorf("missing ctxflow finding steering toward a.WorkCtx:\n%s", joined)
	}
	// b exports its own facts for the driver to add to the store.
	if _, ok := facts.Funcs["b.HotCallsClean"]; !ok {
		t.Errorf("b's own facts missing from its export")
	}
}
