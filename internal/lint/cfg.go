package lint

// This file is the dataflow substrate of the suite: a small intraprocedural
// control-flow graph over go/ast function bodies, with dominator sets and
// reaching definitions on top.  It deliberately trades precision for
// predictability — blocks are built per statement list, opaque definitions
// are injected wherever a variable could be written through an alias or a
// closure, and unsupported control flow degrades to extra edges rather
// than missing ones — because analyzers built on it (feasguard, dimcheck)
// must never crash on real code and should err toward *fewer* findings
// when the flow is unclear.

import (
	"go/ast"
	"go/token"
	"go/types"
	"math"
)

// A cfgBlock is a straight-line run of statements (and branch conditions)
// with edges to its possible successors.
type cfgBlock struct {
	index int
	// nodes holds statements and condition expressions in source order.
	nodes []ast.Node
	succs []int
}

// A cfg is the control-flow graph of one function body.  Block 0 is the
// entry; block 1 is the synthetic exit every return/panic feeds into.
type cfg struct {
	blocks []*cfgBlock
}

const (
	cfgEntry = 0
	cfgExit  = 1
)

// cfgBuilder carries the under-construction graph and the active
// break/continue/label targets.
type cfgBuilder struct {
	g    *cfg
	cur  *cfgBlock
	brk  []int // innermost-last break targets
	cont []int // innermost-last continue targets
	// labels maps a label name to its (break, continue) targets; continue
	// is −1 for non-loop labeled statements.
	labels map[string][2]int
	// gotos maps a label name to the entry block of its labeled statement.
	gotos map[string]int
	// pendingGotos are blocks that issued a goto before its label was built.
	pendingGotos map[string][]int
	// pendingLabel carries a label name between its LabeledStmt and the
	// loop statement it labels, so break/continue targets can bind.
	pendingLabel string
}

// buildCFG constructs the graph for one function body.
func buildCFG(body *ast.BlockStmt) *cfg {
	g := &cfg{}
	b := &cfgBuilder{
		g:            g,
		labels:       make(map[string][2]int),
		gotos:        make(map[string]int),
		pendingGotos: make(map[string][]int),
	}
	entry := b.newBlock() // 0
	b.newBlock()          // 1: exit
	b.cur = entry
	b.stmtList(body.List)
	b.edge(b.cur.index, cfgExit)
	// Resolve gotos whose labels appeared later in the source.
	for name, froms := range b.pendingGotos {
		if to, ok := b.gotos[name]; ok {
			for _, f := range froms {
				b.edge(f, to)
			}
		} // unknown label: cannot happen in type-checked code
	}
	return g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to int) {
	blk := b.g.blocks[from]
	for _, s := range blk.succs {
		if s == to {
			return
		}
	}
	blk.succs = append(blk.succs, to)
}

// startBlock begins a fresh block reachable from the current one.
func (b *cfgBuilder) startBlock() *cfgBlock {
	nb := b.newBlock()
	b.edge(b.cur.index, nb.index)
	b.cur = nb
	return nb
}

// deadBlock begins a fresh unreachable block (after return/panic/branch).
func (b *cfgBuilder) deadBlock() {
	b.cur = b.newBlock()
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.ReturnStmt:
		b.cur.nodes = append(b.cur.nodes, s)
		b.edge(b.cur.index, cfgExit)
		b.deadBlock()
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.cur.nodes = append(b.cur.nodes, s.Tag)
		}
		b.caseClauses(s.Body, true)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.cur.nodes = append(b.cur.nodes, s.Assign)
		b.caseClauses(s.Body, false)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	default:
		// Straight-line statement (assignment, declaration, call, send,
		// go, defer, incdec, empty).
		b.cur.nodes = append(b.cur.nodes, s)
		if isTerminatingStmt(s) {
			b.edge(b.cur.index, cfgExit)
			b.deadBlock()
		}
	}
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	b.cur.nodes = append(b.cur.nodes, s)
	switch s.Tok {
	case token.BREAK:
		to := -1
		if s.Label != nil {
			to = b.labels[s.Label.Name][0]
		} else if len(b.brk) > 0 {
			to = b.brk[len(b.brk)-1]
		}
		if to >= 0 {
			b.edge(b.cur.index, to)
		}
		b.deadBlock()
	case token.CONTINUE:
		to := -1
		if s.Label != nil {
			to = b.labels[s.Label.Name][1]
		} else if len(b.cont) > 0 {
			to = b.cont[len(b.cont)-1]
		}
		if to >= 0 {
			b.edge(b.cur.index, to)
		}
		b.deadBlock()
	case token.GOTO:
		if s.Label != nil {
			if to, ok := b.gotos[s.Label.Name]; ok {
				b.edge(b.cur.index, to)
			} else {
				b.pendingGotos[s.Label.Name] = append(b.pendingGotos[s.Label.Name], b.cur.index)
			}
		}
		b.deadBlock()
	case token.FALLTHROUGH:
		// Handled structurally by caseClauses; nothing to do here.
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.cur.nodes = append(b.cur.nodes, s.Cond)
	condIdx := b.cur.index

	after := b.newBlock()

	thenBlk := b.newBlock()
	b.edge(condIdx, thenBlk.index)
	b.cur = thenBlk
	b.stmtList(s.Body.List)
	b.edge(b.cur.index, after.index)

	if s.Else != nil {
		elseBlk := b.newBlock()
		b.edge(condIdx, elseBlk.index)
		b.cur = elseBlk
		b.stmt(s.Else)
		b.edge(b.cur.index, after.index)
	} else {
		b.edge(condIdx, after.index)
	}
	b.cur = after
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.startBlock()
	if s.Cond != nil {
		head.nodes = append(head.nodes, s.Cond)
	}
	after := b.newBlock()
	if s.Cond != nil {
		b.edge(head.index, after.index)
	}

	// continue re-evaluates Post then the condition; model Post in a block
	// of its own so defs in it reach the head.
	post := head.index
	var postBlk *cfgBlock
	if s.Post != nil {
		postBlk = b.newBlock()
		post = postBlk.index
	}

	body := b.newBlock()
	b.edge(head.index, body.index)
	b.cur = body
	b.brk = append(b.brk, after.index)
	b.cont = append(b.cont, post)
	b.registerLoopLabel(s, after.index, post)
	b.stmtList(s.Body.List)
	b.brk = b.brk[:len(b.brk)-1]
	b.cont = b.cont[:len(b.cont)-1]

	if postBlk != nil {
		b.edge(b.cur.index, postBlk.index)
		b.cur = postBlk
		b.stmt(s.Post)
		b.edge(b.cur.index, head.index)
	} else {
		b.edge(b.cur.index, head.index)
	}
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	head := b.startBlock()
	// The RangeStmt node itself carries X and the key/value definitions.
	head.nodes = append(head.nodes, s)
	after := b.newBlock()
	b.edge(head.index, after.index)

	body := b.newBlock()
	b.edge(head.index, body.index)
	b.cur = body
	b.brk = append(b.brk, after.index)
	b.cont = append(b.cont, head.index)
	b.registerLoopLabel(s, after.index, head.index)
	b.stmtList(s.Body.List)
	b.brk = b.brk[:len(b.brk)-1]
	b.cont = b.cont[:len(b.cont)-1]
	b.edge(b.cur.index, head.index)
	b.cur = after
}

// caseClauses builds switch/type-switch clause bodies.  withFallthrough
// wires each clause's end to the next clause's entry when the body ends in
// a fallthrough statement.
func (b *cfgBuilder) caseClauses(body *ast.BlockStmt, withFallthrough bool) {
	condIdx := b.cur.index
	after := b.newBlock()
	b.brk = append(b.brk, after.index)

	// Pre-create every clause entry so fallthrough edges can be added.
	var clauses []*ast.CaseClause
	var entries []*cfgBlock
	hasDefault := false
	for _, cs := range body.List {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		clauses = append(clauses, cc)
		entries = append(entries, b.newBlock())
		if cc.List == nil {
			hasDefault = true
		}
	}
	for i, cc := range clauses {
		b.edge(condIdx, entries[i].index)
		b.cur = entries[i]
		for _, e := range cc.List {
			b.cur.nodes = append(b.cur.nodes, e)
		}
		b.stmtList(cc.Body)
		if withFallthrough && endsInFallthrough(cc.Body) && i+1 < len(entries) {
			b.edge(b.cur.index, entries[i+1].index)
		} else {
			b.edge(b.cur.index, after.index)
		}
	}
	if !hasDefault {
		b.edge(condIdx, after.index)
	}
	b.brk = b.brk[:len(b.brk)-1]
	b.cur = after
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	condIdx := b.cur.index
	after := b.newBlock()
	b.brk = append(b.brk, after.index)
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		b.edge(condIdx, blk.index)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.edge(b.cur.index, after.index)
	}
	b.brk = b.brk[:len(b.brk)-1]
	b.cur = after
}

// labeledStmt registers the label and builds its statement.  For labeled
// loops the loop builder fills in break/continue targets via
// registerLoopLabel; for other statements only goto targets matter.
func (b *cfgBuilder) labeledStmt(s *ast.LabeledStmt) {
	entry := b.startBlock()
	b.gotos[s.Label.Name] = entry.index
	b.pendingLabel = s.Label.Name
	b.stmt(s.Stmt)
	b.pendingLabel = ""
}

// registerLoopLabel binds the innermost pending label (if any) to the
// loop's break/continue targets.
func (b *cfgBuilder) registerLoopLabel(_ ast.Stmt, brk, cont int) {
	if b.pendingLabel != "" {
		b.labels[b.pendingLabel] = [2]int{brk, cont}
		b.pendingLabel = ""
	}
}

// endsInFallthrough reports whether a case body's last statement is
// fallthrough.
func endsInFallthrough(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	br, ok := list[len(list)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// isTerminatingStmt recognizes statements that never fall through: panic
// and the conventional process-exit helpers.
func isTerminatingStmt(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		name := fn.Sel.Name
		return name == "Exit" || name == "Fatal" || name == "Fatalf" || name == "Fatalln"
	}
	return false
}

// ---- dominators ---------------------------------------------------------

// dominators returns, for every block, the set of blocks that dominate it
// (including itself), as bitsets indexed by block.  Unreachable blocks
// report the full set, which makes every guard appear to dominate them —
// dead code never produces findings.
func (g *cfg) dominators() []bitset {
	n := len(g.blocks)
	preds := make([][]int, n)
	for _, blk := range g.blocks {
		for _, s := range blk.succs {
			preds[s] = append(preds[s], blk.index)
		}
	}
	dom := make([]bitset, n)
	full := newBitset(n)
	for i := 0; i < n; i++ {
		full.set(i)
	}
	for i := range dom {
		if i == cfgEntry {
			dom[i] = newBitset(n)
			dom[i].set(cfgEntry)
		} else {
			dom[i] = full.clone()
		}
	}
	changed := true
	for changed {
		changed = false
		for i := 0; i < n; i++ {
			if i == cfgEntry {
				continue
			}
			var nw bitset
			first := true
			for _, p := range preds[i] {
				if first {
					nw = dom[p].clone()
					first = false
				} else {
					nw.intersect(dom[p])
				}
			}
			if first { // unreachable: keep full set
				continue
			}
			nw.set(i)
			if !nw.equal(dom[i]) {
				dom[i] = nw
				changed = true
			}
		}
	}
	return dom
}

// backEdges returns the CFG edges that close loops: edges whose target
// dominates their source.  Every loop a Go function can form — for/range
// statements, labeled continue, and backward goto — produces exactly such
// an edge, which is why the cancellation analyzer keys off this rather
// than off loop syntax.  Unreachable blocks are excluded: they carry the
// full dominator set by construction (see dominators), which would make
// every dead edge look like a loop.
func (g *cfg) backEdges(dom []bitset) [][2]int {
	reach := g.reachable()
	var out [][2]int
	for _, blk := range g.blocks {
		if !reach[blk.index] {
			continue
		}
		for _, s := range blk.succs {
			if s < len(dom) && dom[blk.index].has(s) {
				out = append(out, [2]int{blk.index, s})
			}
		}
	}
	return out
}

// reachable marks the blocks reachable from entry.
func (g *cfg) reachable() []bool {
	reach := make([]bool, len(g.blocks))
	stack := []int{cfgEntry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reach[b] {
			continue
		}
		reach[b] = true
		stack = append(stack, g.blocks[b].succs...)
	}
	return reach
}

// naturalLoop returns the block set of the natural loop of back-edge
// (from, to): to itself plus every block that reaches from without passing
// through to.
func (g *cfg) naturalLoop(from, to int) []int {
	preds := make([][]int, len(g.blocks))
	for _, blk := range g.blocks {
		for _, s := range blk.succs {
			preds[s] = append(preds[s], blk.index)
		}
	}
	in := make([]bool, len(g.blocks))
	in[to] = true
	stack := []int{from}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if in[b] {
			continue
		}
		in[b] = true
		stack = append(stack, preds[b]...)
	}
	var out []int
	for b, ok := range in {
		if ok {
			out = append(out, b)
		}
	}
	return out
}

// backEdges exposes the CFG back-edges of this function's flow facts.
func (ff *funcFlow) backEdges() [][2]int { return ff.cfg.backEdges(ff.dom) }

// loopSpan returns the source span covered by the natural loop of one
// back-edge: the positions of every statement and condition in the loop's
// blocks.  ok is false when the loop's blocks carry no nodes at all (a
// degenerate `for {}`).
func (ff *funcFlow) loopSpan(from, to int) (lo, hi token.Pos, ok bool) {
	for _, b := range ff.cfg.naturalLoop(from, to) {
		for _, n := range ff.cfg.blocks[b].nodes {
			if !ok || n.Pos() < lo {
				lo = n.Pos()
			}
			if !ok || n.End() > hi {
				hi = n.End()
			}
			ok = true
		}
	}
	return lo, hi, ok
}

// bitset is a fixed-size bit vector over block or definition indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

func (b bitset) clone() bitset {
	out := make(bitset, len(b))
	copy(out, b)
	return out
}

func (b bitset) intersect(o bitset) {
	for i := range b {
		b[i] &= o[i]
	}
}

func (b bitset) union(o bitset) bool {
	changed := false
	for i := range b {
		n := b[i] | o[i]
		if n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}

func (b bitset) equal(o bitset) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

// ---- reaching definitions ----------------------------------------------

// A vdef is one definition of a variable: an explicit assignment with its
// right-hand side, or an opaque definition (parameter, range variable,
// aliased or closure write) with rhs nil.
type vdef struct {
	v   *types.Var
	rhs ast.Expr // nil when the defined value is opaque
	// block and ord locate the definition for the dataflow solve; idx is
	// the definition's position in funcFlow.defs.
	block int
	ord   int
	idx   int
	pos   token.Pos
}

// funcFlow bundles the CFG, dominators, and reaching definitions of one
// function (or function literal) body.
type funcFlow struct {
	pass *Pass
	cfg  *cfg
	dom  []bitset

	defs []*vdef
	// defsOf indexes definitions by variable.
	defsOf map[*types.Var][]*vdef
	// in[b] is the set of definition indices reaching the start of block b.
	in []bitset
	// blockSpan locates each block's recorded nodes for blockFor lookups.
	nodeBlocks []nodeBlock
}

type nodeBlock struct {
	node  ast.Node
	block int
	ord   int
}

// newFuncFlow builds the flow facts for one function body.  typ is the
// function's signature (for parameter definitions); it may be nil.
func newFuncFlow(pass *Pass, body *ast.BlockStmt, sig *types.Signature) *funcFlow {
	ff := &funcFlow{
		pass:   pass,
		cfg:    buildCFG(body),
		defsOf: make(map[*types.Var][]*vdef),
	}
	ff.dom = ff.cfg.dominators()

	// Parameters and named results are opaque entry definitions.
	if sig != nil {
		for i := 0; i < sig.Params().Len(); i++ {
			ff.addDef(sig.Params().At(i), nil, cfgEntry, -1, sig.Params().At(i).Pos())
		}
		if recv := sig.Recv(); recv != nil {
			ff.addDef(recv, nil, cfgEntry, -1, recv.Pos())
		}
		for i := 0; i < sig.Results().Len(); i++ {
			ff.addDef(sig.Results().At(i), nil, cfgEntry, -1, sig.Results().At(i).Pos())
		}
	}

	// Collect definitions per block node.
	for _, blk := range ff.cfg.blocks {
		for ord, n := range blk.nodes {
			ff.nodeBlocks = append(ff.nodeBlocks, nodeBlock{n, blk.index, ord})
			ff.collectDefs(n, blk.index, ord)
		}
	}
	ff.solve()
	return ff
}

// objVar resolves an identifier to its variable object, if any.
func (ff *funcFlow) objVar(id *ast.Ident) *types.Var {
	if obj := ff.pass.TypesInfo.Defs[id]; obj != nil {
		v, _ := obj.(*types.Var)
		return v
	}
	if obj := ff.pass.TypesInfo.Uses[id]; obj != nil {
		v, _ := obj.(*types.Var)
		return v
	}
	return nil
}

func (ff *funcFlow) addDef(v *types.Var, rhs ast.Expr, block, ord int, pos token.Pos) {
	if v == nil {
		return
	}
	d := &vdef{v: v, rhs: rhs, block: block, ord: ord, idx: len(ff.defs), pos: pos}
	ff.defs = append(ff.defs, d)
	ff.defsOf[v] = append(ff.defsOf[v], d)
}

// collectDefs records the definitions made by one block node, including
// opaque ones for address-taken variables and closure writes.
func (ff *funcFlow) collectDefs(n ast.Node, block, ord int) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue // field/index writes are not tracked per-variable
			}
			var rhs ast.Expr
			if len(n.Rhs) == len(n.Lhs) {
				rhs = n.Rhs[i]
			}
			if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
				// Compound assignment (+=, -=, …): value derives from the
				// variable itself as well; keep the RHS for dimension
				// purposes, the variable's own type covers the rest.
				rhs = n.Rhs[0]
			}
			ff.addDef(ff.objVar(id), rhs, block, ord, id.Pos())
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				var rhs ast.Expr
				if len(vs.Values) == len(vs.Names) {
					rhs = vs.Values[i]
				}
				ff.addDef(ff.objVar(name), rhs, block, ord, name.Pos())
			}
		}
	case *ast.IncDecStmt:
		if id, ok := n.X.(*ast.Ident); ok {
			ff.addDef(ff.objVar(id), n.X, block, ord, id.Pos())
		}
	case *ast.RangeStmt:
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				ff.addDef(ff.objVar(id), nil, block, ord, id.Pos())
			}
		}
	case *ast.TypeSwitchStmt:
		// Handled via its Assign statement node.
	}
	// Opaque definitions: &x anywhere in the node makes x writable through
	// the pointer; a FuncLit writing x may run at any later point.  Model
	// both as an opaque def here.
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.UnaryExpr:
			if m.Op == token.AND {
				if id, ok := m.X.(*ast.Ident); ok {
					ff.addDef(ff.objVar(id), nil, block, ord, id.Pos())
				}
			}
		case *ast.FuncLit:
			for _, id := range assignedIdents(m.Body) {
				if v := ff.objVar(id); v != nil && v.Pos() < m.Pos() {
					ff.addDef(v, nil, block, ord, id.Pos())
				}
			}
			return false
		}
		return true
	})
}

// assignedIdents lists identifiers assigned (or inc/dec'd) anywhere in n.
func assignedIdents(n ast.Node) []*ast.Ident {
	var out []*ast.Ident
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					out = append(out, id)
				}
			}
		case *ast.IncDecStmt:
			if id, ok := m.X.(*ast.Ident); ok {
				out = append(out, id)
			}
		}
		return true
	})
	return out
}

// solve runs the classic iterative reaching-definitions dataflow.
func (ff *funcFlow) solve() {
	n := len(ff.cfg.blocks)
	nd := len(ff.defs)
	gen := make([]bitset, n)
	kill := make([]bitset, n)
	for i := range gen {
		gen[i] = newBitset(nd)
		kill[i] = newBitset(nd)
	}
	// Last definition of each variable per block generates; every
	// definition of the same variable elsewhere is killed.
	for bi := range ff.cfg.blocks {
		last := make(map[*types.Var]*vdef)
		for _, d := range ff.defs {
			if d.block == bi {
				if prev, ok := last[d.v]; !ok || prev.ord <= d.ord {
					last[d.v] = d
				}
			}
		}
		for v, d := range last {
			gen[bi].set(d.idx)
			for _, other := range ff.defsOf[v] {
				if other.idx != d.idx {
					kill[bi].set(other.idx)
				}
			}
		}
	}
	preds := make([][]int, n)
	for _, blk := range ff.cfg.blocks {
		for _, s := range blk.succs {
			preds[s] = append(preds[s], blk.index)
		}
	}
	ff.in = make([]bitset, n)
	out := make([]bitset, n)
	for i := range ff.in {
		ff.in[i] = newBitset(nd)
		out[i] = newBitset(nd)
	}
	// Entry's opaque parameter defs live in block 0's gen set already
	// (they were added with block = cfgEntry, ord = −1).
	changed := true
	for changed {
		changed = false
		for bi := range ff.cfg.blocks {
			// in[b] = ∪ out[p] over predecessors
			for _, p := range preds[bi] {
				if ff.in[bi].union(out[p]) {
					changed = true
				}
			}
			// out[b] = gen[b] ∪ (in[b] − kill[b])
			nw := gen[bi].clone()
			for i := range nw {
				nw[i] |= ff.in[bi][i] &^ kill[bi][i]
			}
			if !nw.equal(out[bi]) {
				out[bi] = nw
				changed = true
			}
		}
	}
}

// blockFor returns the innermost recorded node containing pos and its
// block, or (-1, -1, nil) when the position is not in any block (e.g. a
// type declaration).
func (ff *funcFlow) blockFor(pos token.Pos) (block, ord int, node ast.Node) {
	block, ord = -1, -1
	best := math.MaxInt64
	for _, nb := range ff.nodeBlocks {
		if nb.node.Pos() <= pos && pos <= nb.node.End() {
			if span := int(nb.node.End() - nb.node.Pos()); span < best {
				best = span
				block, ord, node = nb.block, nb.ord, nb.node
			}
		}
	}
	return block, ord, node
}

// reachingDefs returns the definitions of v that can reach the use at pos:
// the block-entry set adjusted for definitions earlier in the same block.
func (ff *funcFlow) reachingDefs(v *types.Var, pos token.Pos) []*vdef {
	block, ord, _ := ff.blockFor(pos)
	if block < 0 {
		return ff.defsOf[v] // unknown position: be conservative
	}
	// A definition in the same block before (or at) the use shadows all
	// earlier ones.
	var local *vdef
	for _, d := range ff.defsOf[v] {
		if d.block == block && d.ord <= ord {
			if local == nil || d.ord > local.ord {
				local = d
			}
		}
	}
	if local != nil {
		return []*vdef{local}
	}
	var out []*vdef
	for di, d := range ff.defs {
		if d.v == v && ff.in[block].has(di) {
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		return ff.defsOf[v] // degraded flow: fall back to all defs
	}
	return out
}

// dominatorNodes returns the nodes of every block dominating the given
// position's block, plus the nodes of the block itself up to (and
// including) the use's own statement, in arbitrary order.  This is what
// guard searches scan.
func (ff *funcFlow) dominatorNodes(pos token.Pos) []ast.Node {
	block, ord, _ := ff.blockFor(pos)
	if block < 0 || block >= len(ff.dom) {
		return nil
	}
	var out []ast.Node
	for bi, blk := range ff.cfg.blocks {
		if bi == block || !ff.dom[block].has(bi) {
			continue
		}
		out = append(out, blk.nodes...)
	}
	for i, n := range ff.cfg.blocks[block].nodes {
		if i <= ord {
			out = append(out, n)
		}
	}
	return out
}

// ---- lock-held lattice --------------------------------------------------
//
// A forward must-analysis over the CFG: at each program point, the set of
// locks provably held on *every* path from the function entry.  The join is
// set intersection (a lock is held only when all incoming paths hold it),
// Lock adds a lock, Unlock removes it, and `defer mu.Unlock()` is ignored
// deliberately — a deferred release runs at return, so the lock stays held
// for the rest of the body.  Locks are identified by the printed receiver
// path of the Lock/Unlock call ("s.mu"): two syntactically equal paths are
// assumed to name the same lock, and paths the printer cannot canonicalize
// (index expressions, call results) are not tracked at all.  Methods are
// matched by name, not by receiver type, so any sync.Locker-shaped type
// participates.  No other method acquires: a lock taken by RLock or
// TryLock is not held here, so guardedby reports what such a lock guards
// rather than passing it silently.  Untracked paths follow the file's rule
// of erring toward fewer findings: the analyzers built on the lattice
// (guardedby) only consult it where the guard and the access share a
// tracked path.

// lockState is the set of canonical lock paths held on all paths.  A nil
// map is the unreached (top) element; an empty map means "reached, nothing
// held".
type lockState map[string]bool

func (s lockState) clone() lockState {
	out := make(lockState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// lockPath renders the receiver of a mutex-method call as a canonical
// textual path.  Only parenthesized identifier/selector chains qualify;
// anything else ("locks[i]", "getMu()") returns "" and is left untracked.
func lockPath(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := lockPath(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	case *ast.ParenExpr:
		return lockPath(e.X)
	}
	return ""
}

// lockTransfer applies every Lock and Unlock call inside node n to state,
// in source order.  until (when valid) stops before calls that end at or
// after it, so heldAt can evaluate mid-node.  Deferred statements are
// skipped (a deferred Unlock runs at return — the lock stays held here) and
// so are function literals (their bodies execute elsewhere; guardedby
// analyzes them as separate units).
func lockTransfer(state lockState, n ast.Node, until token.Pos) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.DeferStmt, *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if until.IsValid() && m.End() > until {
				return true
			}
			sel, ok := unparen(m.Fun).(*ast.SelectorExpr)
			if !ok || len(m.Args) != 0 {
				return true
			}
			path := lockPath(sel.X)
			if path == "" {
				return true
			}
			switch sel.Sel.Name {
			case "Lock":
				state[path] = true
			case "Unlock":
				delete(state, path)
			}
		}
		return true
	})
}

// lockFlow is the solved lattice of one function body.
type lockFlow struct {
	ff *funcFlow
	// in[b] is the must-held set at block b's entry; nil marks unreached.
	in []lockState
}

// newLockFlow solves the lattice.  seed lists locks held on entry (from a
// //lint:locked annotation); nil means none.
func newLockFlow(ff *funcFlow, seed lockState) *lockFlow {
	lf := &lockFlow{ff: ff, in: make([]lockState, len(ff.cfg.blocks))}
	lf.in[cfgEntry] = seed.clone()
	for changed := true; changed; {
		changed = false
		for bi, blk := range ff.cfg.blocks {
			if lf.in[bi] == nil {
				continue
			}
			out := lf.in[bi].clone()
			for _, n := range blk.nodes {
				lockTransfer(out, n, token.NoPos)
			}
			for _, s := range blk.succs {
				if lf.meetInto(s, out) {
					changed = true
				}
			}
		}
	}
	return lf
}

// meetInto intersects an incoming edge state into block b's entry state
// and reports whether it changed.  After the first visit the state can
// only shrink, so the fixpoint terminates.
func (lf *lockFlow) meetInto(b int, incoming lockState) bool {
	cur := lf.in[b]
	if cur == nil {
		lf.in[b] = incoming.clone()
		return true
	}
	changed := false
	for k := range cur {
		if !incoming[k] {
			delete(cur, k)
			changed = true
		}
	}
	return changed
}

// heldAt returns the lock set provably held just before pos.  reached is
// false when the position is in unreachable code or outside every recorded
// block — callers skip those uses, so dead code never produces findings.
func (lf *lockFlow) heldAt(pos token.Pos) (held lockState, reached bool) {
	block, ord, _ := lf.ff.blockFor(pos)
	if block < 0 || lf.in[block] == nil {
		return nil, false
	}
	state := lf.in[block].clone()
	for i, n := range lf.ff.cfg.blocks[block].nodes {
		if i > ord {
			break
		}
		if i < ord {
			lockTransfer(state, n, token.NoPos)
		} else {
			lockTransfer(state, n, pos)
		}
	}
	return state, true
}

// flowCache builds funcFlows lazily per function body so several analyzers
// share the work within one pass… pass instances are per-analyzer, so the
// cache lives on the package level of each Run call instead.
type flowCache struct {
	pass  *Pass
	flows map[*ast.BlockStmt]*funcFlow
}

func newFlowCache(pass *Pass) *flowCache {
	return &flowCache{pass: pass, flows: make(map[*ast.BlockStmt]*funcFlow)}
}

// flowFor returns the funcFlow for a function declaration or literal.
func (fc *flowCache) flowFor(body *ast.BlockStmt, sig *types.Signature) *funcFlow {
	if ff, ok := fc.flows[body]; ok {
		return ff
	}
	ff := newFuncFlow(fc.pass, body, sig)
	fc.flows[body] = ff
	return ff
}
