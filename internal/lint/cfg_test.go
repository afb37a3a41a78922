package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// flowFixture typechecks one source file and returns the flow facts of the
// function named fn, plus lookup helpers bound to the fixture.
type flowFixture struct {
	pass *Pass
	fd   *ast.FuncDecl
	ff   *funcFlow
}

func buildFlow(t *testing.T, src, fn string) *flowFixture {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{}
	pkg, err := conf.Check("fixture", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	pass := &Pass{Fset: fset, Files: []*ast.File{file}, Pkg: pkg, TypesInfo: info}
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Name.Name != fn {
			continue
		}
		sig, _ := info.TypeOf(fd.Name).(*types.Signature)
		return &flowFixture{pass: pass, fd: fd, ff: newFuncFlow(pass, fd.Body, sig)}
	}
	t.Fatalf("no function %q in fixture", fn)
	return nil
}

// varNamed finds the (unique) variable with the given name in the fixture.
func (fx *flowFixture) varNamed(t *testing.T, name string) *types.Var {
	t.Helper()
	var found *types.Var
	for id, obj := range fx.pass.TypesInfo.Defs {
		if id.Name != name {
			continue
		}
		if v, ok := obj.(*types.Var); ok {
			if found != nil {
				t.Fatalf("variable %q declared more than once in fixture", name)
			}
			found = v
		}
	}
	if found == nil {
		t.Fatalf("no variable %q in fixture", name)
	}
	return found
}

// usePos locates the marker comment and returns the position just before
// it, i.e. of the code on the marked line.
func (fx *flowFixture) usePos(t *testing.T, src, marker string) token.Pos {
	t.Helper()
	off := strings.Index(src, marker)
	if off < 0 {
		t.Fatalf("marker %q not in fixture source", marker)
	}
	return fx.pass.Fset.File(fx.fd.Pos()).Pos(off - 2)
}

func TestReachingDefsStraightLine(t *testing.T) {
	src := `package fixture
func f() float64 {
	x := 1.0
	x = 2.0
	return x // use
}`
	fx := buildFlow(t, src, "f")
	defs := fx.ff.reachingDefs(fx.varNamed(t, "x"), fx.usePos(t, src, "// use"))
	if len(defs) != 1 {
		t.Fatalf("got %d reaching defs, want 1 (the redefinition shadows)", len(defs))
	}
	if lit, ok := defs[0].rhs.(*ast.BasicLit); !ok || lit.Value != "2.0" {
		t.Errorf("reaching def rhs = %v, want the literal 2.0", defs[0].rhs)
	}
}

func TestReachingDefsBranchJoin(t *testing.T) {
	src := `package fixture
func f(c bool) float64 {
	x := 1.0
	if c {
		x = 2.0
	}
	return x // use
}`
	fx := buildFlow(t, src, "f")
	defs := fx.ff.reachingDefs(fx.varNamed(t, "x"), fx.usePos(t, src, "// use"))
	if len(defs) != 2 {
		t.Fatalf("got %d reaching defs, want 2 (both branches reach the join)", len(defs))
	}
}

func TestReachingDefsLoopBackEdge(t *testing.T) {
	src := `package fixture
func f(n int) float64 {
	x := 1.0
	for i := 0; i < n; i++ {
		x = x + 1
	}
	return x // use
}`
	fx := buildFlow(t, src, "f")
	defs := fx.ff.reachingDefs(fx.varNamed(t, "x"), fx.usePos(t, src, "// use"))
	if len(defs) != 2 {
		t.Fatalf("got %d reaching defs, want 2 (initial and loop-carried)", len(defs))
	}
}

func TestOpaqueDefsForAliasAndClosure(t *testing.T) {
	src := `package fixture
func g(p *float64) {}
func f() (float64, float64) {
	x := 1.0
	g(&x)
	y := 1.0
	h := func() { y = 2.0 }
	h()
	return x, y
}`
	fx := buildFlow(t, src, "f")
	for _, name := range []string{"x", "y"} {
		v := fx.varNamed(t, name)
		opaque := 0
		for _, d := range fx.ff.defsOf[v] {
			if d.rhs == nil {
				opaque++
			}
		}
		if opaque == 0 {
			t.Errorf("variable %s has no opaque definition despite alias/closure write", name)
		}
	}
}

func TestParamsAreEntryDefs(t *testing.T) {
	src := `package fixture
func f(r float64) float64 {
	return r // use
}`
	fx := buildFlow(t, src, "f")
	defs := fx.ff.reachingDefs(fx.varNamed(t, "r"), fx.usePos(t, src, "// use"))
	if len(defs) != 1 || defs[0].rhs != nil || defs[0].block != cfgEntry {
		t.Fatalf("parameter defs = %+v, want one opaque entry definition", defs)
	}
}

func TestDominatorNodesSeeGuardNotBranch(t *testing.T) {
	src := `package fixture
func guard(x float64) bool { return x < 1 }
func f(x float64) float64 {
	ok := guard(x)
	if ok {
		x = 0.5 // then-only
	} else {
		x = 0.9
	}
	return x // use
}`
	fx := buildFlow(t, src, "f")
	nodes := fx.ff.dominatorNodes(fx.usePos(t, src, "// use"))
	var sawGuard, sawThen bool
	for _, n := range nodes {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.CallExpr:
				if id, ok := m.Fun.(*ast.Ident); ok && id.Name == "guard" {
					sawGuard = true
				}
			case *ast.BasicLit:
				if m.Value == "0.5" {
					sawThen = true
				}
			}
			return true
		})
	}
	if !sawGuard {
		t.Errorf("dominator nodes do not include the guard call that every path crosses")
	}
	if sawThen {
		t.Errorf("dominator nodes include a branch-only statement; branches do not dominate the join")
	}
}

// The builder must not crash or mis-wire on the grabbier control shapes;
// the dataflow answers below pin the interesting joins.
func TestCFGControlShapes(t *testing.T) {
	src := `package fixture
func f(mode int, m map[int]float64) float64 {
	x := 0.0
	switch mode {
	case 0:
		x = 1.0
	case 1:
		x = 2.0
		fallthrough
	case 2:
		x = x * 2
	}
	for _, v := range m {
		if v > 3 {
			continue
		}
		if v > 4 {
			break
		}
		x = x + v
	}
loop:
	for i := 0; i < mode; i++ {
		if i == 2 {
			break loop
		}
	}
	if mode > 5 {
		goto done
	}
	x = x + 1
done:
	return x // use
}`
	fx := buildFlow(t, src, "f")
	defs := fx.ff.reachingDefs(fx.varNamed(t, "x"), fx.usePos(t, src, "// use"))
	// At minimum: the initial def, the switch arms, the range accumulation,
	// and the post-loop increment can all reach the final use (the goto
	// skips the increment on one path, so earlier defs survive the join).
	if len(defs) < 4 {
		t.Fatalf("got %d reaching defs at the exit join, want at least 4", len(defs))
	}
	if fx.ff.cfg.blocks[cfgExit].succs != nil {
		t.Errorf("exit block has successors %v, want none", fx.ff.cfg.blocks[cfgExit].succs)
	}
}

func TestUnreachableCodeNeverDominated(t *testing.T) {
	src := `package fixture
func f(x float64) float64 {
	if x < 1 {
		return x
	}
	return 0 // use
}`
	fx := buildFlow(t, src, "f")
	dom := fx.ff.dom
	for bi := range dom {
		if !dom[bi].has(cfgEntry) {
			t.Errorf("block %d is not dominated by entry", bi)
		}
	}
}

// ---- back edges (the loop substrate ctxflow leans on) -------------------

// backEdgeCount builds the flow facts for fn and returns its back-edges.
func backEdges(t *testing.T, src, fn string) [][2]int {
	t.Helper()
	fx := buildFlow(t, src, fn)
	edges := fx.ff.backEdges()
	for _, e := range edges {
		if !fx.ff.dom[e[0]].has(e[1]) {
			t.Errorf("edge %v reported as back-edge but target does not dominate source", e)
		}
	}
	return edges
}

func TestBackEdgesSimpleLoop(t *testing.T) {
	src := `package fixture
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`
	if got := backEdges(t, src, "f"); len(got) != 1 {
		t.Errorf("simple for loop has %d back-edges, want 1", len(got))
	}
}

func TestBackEdgesLabeledContinue(t *testing.T) {
	// With a for-post outer loop the labeled continue funnels through the
	// post block, so it joins the outer loop's own back-edge: two distinct
	// back-edges (inner, outer).
	src := `package fixture
func f(m [][]int) int {
	s := 0
outer:
	for i := 0; i < len(m); i++ {
		for j := range m[i] {
			if m[i][j] < 0 {
				continue outer
			}
			s += m[i][j]
		}
	}
	return s
}`
	if got := backEdges(t, src, "f"); len(got) != 2 {
		t.Errorf("labeled-continue for-post nest has %d back-edges, want 2 (inner, outer-via-post)", len(got))
	}

	// With a range outer loop there is no post block: the labeled continue
	// jumps straight to the outer head and forms its own back-edge.
	src2 := `package fixture
func f(m [][]int) int {
	s := 0
outer:
	for i := range m {
		for j := range m[i] {
			if m[i][j] < 0 {
				continue outer
			}
			s += m[i][j]
		}
	}
	return s
}`
	if got := backEdges(t, src2, "f"); len(got) != 3 {
		t.Errorf("labeled-continue range nest has %d back-edges, want 3 (inner, outer, labeled continue)", len(got))
	}
}

func TestBackEdgesGotoLoop(t *testing.T) {
	src := `package fixture
func f(n int) int {
	s := 0
	i := 0
loop:
	if i < n {
		s += i
		i++
		goto loop
	}
	return s
}`
	got := backEdges(t, src, "f")
	if len(got) != 1 {
		t.Fatalf("goto loop has %d back-edges, want 1", len(got))
	}
	// The natural loop of the goto edge must span from the labeled
	// condition through the goto statement itself.
	fx := buildFlow(t, src, "f")
	lo, hi, ok := fx.ff.loopSpan(got[0][0], got[0][1])
	if !ok {
		t.Fatalf("goto loop span empty")
	}
	loLine := fx.pass.Fset.Position(lo).Line
	hiLine := fx.pass.Fset.Position(hi).Line
	if loLine > 6 || hiLine < 9 {
		t.Errorf("goto loop span covers lines %d-%d, want the if-through-goto body (6-9)", loLine, hiLine)
	}
}

func TestBackEdgesSelectLoop(t *testing.T) {
	// A for{select{...}} event loop: the loop head block is empty (no
	// condition), so the back-edge and its span must come from the comm
	// clauses.
	src := `package fixture
func f(ch, done chan int) int {
	s := 0
	for {
		select {
		case v := <-ch:
			s += v
		case <-done:
			return s
		}
	}
}`
	got := backEdges(t, src, "f")
	if len(got) < 1 {
		t.Fatalf("select loop has %d back-edges, want at least 1", len(got))
	}
	fx := buildFlow(t, src, "f")
	covered := false
	for _, e := range got {
		if _, _, ok := fx.ff.loopSpan(e[0], e[1]); ok {
			covered = true
		}
	}
	if !covered {
		t.Errorf("no select-loop back-edge produced a non-empty span; ctxflow would go blind here")
	}
}

func TestBackEdgesNoneInStraightLine(t *testing.T) {
	src := `package fixture
func f(a, b int) int {
	if a > b {
		return a
	}
	return b
}`
	if got := backEdges(t, src, "f"); len(got) != 0 {
		t.Errorf("branch-only function has %d back-edges, want 0", len(got))
	}
}

// ---- lock-held lattice --------------------------------------------------

// lockFixtureTypes declares a mutex-shaped local type: the lattice matches
// mutex methods by name, so fixtures need no sync import (the bare
// typechecker used here has no importer).  RLock and TryLock are declared
// so the tests can pin that the lattice does not see them.
const lockFixtureTypes = `
type rwmutex struct{ state int }

func (m *rwmutex) Lock()         {}
func (m *rwmutex) Unlock()       {}
func (m *rwmutex) RLock()        {}
func (m *rwmutex) RUnlock()      {}
func (m *rwmutex) TryLock() bool { return m.state == 0 }
`

// lockHeldAt solves the lattice for fn and queries the marker's position.
func lockHeldAt(t *testing.T, src, fn, marker string, seed lockState) (lockState, bool) {
	t.Helper()
	fx := buildFlow(t, src, fn)
	lf := newLockFlow(fx.ff, seed)
	return lf.heldAt(fx.usePos(t, src, marker))
}

func TestLockFlowDeferredUnlock(t *testing.T) {
	src := `package p
` + lockFixtureTypes + `
type box struct {
	mu rwmutex
	n  int
}

func deferred(b *box) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n++ // useA
}
`
	held, reached := lockHeldAt(t, src, "deferred", "// useA", nil)
	if !reached {
		t.Fatal("marker position reported unreachable")
	}
	if !held["b.mu"] {
		t.Error("after Lock + defer Unlock, b.mu is not held")
	}
}

// TestLockFlowTryLockBranches pins that TryLock acquires nothing in the
// lattice: on neither branch of `if mu.TryLock()` nor past a negated
// early return is the lock held, so guardedby reports what it guards.
func TestLockFlowTryLockBranches(t *testing.T) {
	src := `package p
` + lockFixtureTypes + `
type box struct {
	mu rwmutex
	n  int
}

func try(b *box) {
	if b.mu.TryLock() {
		b.n++ // useThen
		b.mu.Unlock()
	} else {
		b.n-- // useElse
	}
	if !b.mu.TryLock() {
		return
	}
	b.n++ // useGate
	b.mu.Unlock()
}
`
	for _, marker := range []string{"// useThen", "// useElse", "// useGate"} {
		held, reached := lockHeldAt(t, src, "try", marker, nil)
		if !reached {
			t.Fatalf("%s reported unreachable", marker)
		}
		if held["b.mu"] {
			t.Errorf("%s: b.mu held after TryLock, want not held (TryLock is not tracked)", marker)
		}
	}
}

// TestLockFlowRLockStrength pins that RLock carries no strength in the
// lattice: under RLock the lock is not held.
func TestLockFlowRLockStrength(t *testing.T) {
	src := `package p
` + lockFixtureTypes + `
type box struct {
	mu rwmutex
	n  int
}

func reader(b *box) int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.n // useR
}
`
	held, reached := lockHeldAt(t, src, "reader", "// useR", nil)
	if !reached {
		t.Fatal("marker position reported unreachable")
	}
	if held["b.mu"] {
		t.Error("under RLock, b.mu held, want not held (RLock is not tracked)")
	}
}

func TestLockFlowUnlockInLoopReacquire(t *testing.T) {
	src := `package p
` + lockFixtureTypes + `
type box struct {
	mu rwmutex
	n  int
}

func relock(b *box, k int) {
	for i := 0; i < k; i++ {
		k-- // useBefore
		b.mu.Lock()
		b.n++ // useInside
		b.mu.Unlock()
	}
	k++ // useAfter
}

func sticky(b *box, k int) {
	b.mu.Lock()
	for i := 0; i < k; i++ {
		b.n++ // useEach
	}
	b.n-- // usePost
	b.mu.Unlock()
}
`
	if held, _ := lockHeldAt(t, src, "relock", "// useBefore", nil); held["b.mu"] {
		t.Error("loop body before re-acquire: b.mu held, want not held")
	}
	if held, _ := lockHeldAt(t, src, "relock", "// useInside", nil); !held["b.mu"] {
		t.Error("between Lock and Unlock in the loop: b.mu not held")
	}
	if held, _ := lockHeldAt(t, src, "relock", "// useAfter", nil); held["b.mu"] {
		t.Error("after a loop that released: b.mu held, want not held")
	}
	// A lock held across the loop must survive the back-edge meet.
	if held, _ := lockHeldAt(t, src, "sticky", "// useEach", nil); !held["b.mu"] {
		t.Error("lock held across the loop: b.mu not held in the body")
	}
	if held, _ := lockHeldAt(t, src, "sticky", "// usePost", nil); !held["b.mu"] {
		t.Error("lock held across the loop: b.mu not held after it")
	}
}

func TestLockFlowHelperAcquisitionIsOpaque(t *testing.T) {
	// The lattice is intraprocedural: a lock acquired inside a helper the
	// pointer was passed to is invisible.  //lint:locked is the sanctioned
	// escape hatch — its seed is what makes the state visible.
	src := `package p
` + lockFixtureTypes + `
type box struct {
	mu rwmutex
	n  int
}

func lockIt(m *rwmutex) { m.Lock() }

func viaHelper(b *box) {
	lockIt(&b.mu)
	b.n++ // useH
}
`
	if held, _ := lockHeldAt(t, src, "viaHelper", "// useH", nil); held["b.mu"] {
		t.Error("after helper acquisition: b.mu held, want not held (helpers are opaque)")
	}
	seed := lockState{"b.mu": true}
	if held, _ := lockHeldAt(t, src, "viaHelper", "// useH", seed); !held["b.mu"] {
		t.Error("with a //lint:locked-style seed: b.mu not held")
	}
}
