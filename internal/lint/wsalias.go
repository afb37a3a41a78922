package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// WSAliasName is the analyzer's registered name.
const WSAliasName = "wsalias"

// WSAlias enforces the two ownership rules of the workspace API family.
//
// Rule 1 — *Into implementations own dst.  A function named FooInto with a
// `dst` slice parameter promises its callers that the returned slice is
// dst's storage (possibly regrown), never a view of another input: callers
// are allowed to write through the result while still reading the inputs.
// The analyzer flags paths that break the promise — rebinding dst to an
// expression rooted at another slice parameter (`dst = rates[:n]`) and
// returning an input parameter directly (`return rates`).  Copying values
// is fine: `dst = append(dst[:0], rates...)` copies, so only bare
// identifier / slice / index roots of input parameters are flagged.
//
// Rule 2 — workspaces don't cross goroutines.  A core.Workspace /
// game.Workspace value (any named type called Workspace, by value or
// pointer) is single-owner scratch memory; capturing one in a `go func`
// literal hands the same backing arrays to two threads.  Per-worker
// workspace slices (`wss[w]` where wss is []Workspace) are the sanctioned
// idiom and are not flagged, because the captured variable is the slice,
// not a workspace.  This composes with the race detector: `go test -race`
// catches the unsynced accesses it sees run, wsalias flags the escape
// itself even when every access is perfectly locked — a workspace is not
// a shared resource to begin with.
var WSAlias = &Analyzer{
	Name: WSAliasName,
	Doc: "*Into implementations must not return or rebind dst as an alias " +
		"of an input slice, and Workspace values must not be captured by " +
		"goroutine literals",
	Run: runWSAlias,
}

func runWSAlias(pass *Pass) error {
	for _, fi := range pass.Graph.Funcs {
		if strings.HasSuffix(fi.Obj.Name(), "Into") {
			checkIntoAliasing(pass, fi)
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
				checkWorkspaceCapture(pass, lit)
			}
			return true
		})
	}
	return nil
}

// checkIntoAliasing applies Rule 1 to one *Into function.
func checkIntoAliasing(pass *Pass, fi *FuncInfo) {
	sig, _ := fi.Obj.Type().(*types.Signature)
	if sig == nil {
		return
	}
	var dst *types.Var
	inputs := make(map[*types.Var]bool)
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if _, ok := p.Type().Underlying().(*types.Slice); !ok {
			continue
		}
		if p.Name() == "dst" {
			dst = p
		} else {
			inputs = setVar(inputs, p)
		}
	}
	if dst == nil || len(inputs) == 0 {
		return
	}

	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a nested literal has its own parameter space
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || pass.TypesInfo.Uses[id] != dst {
					continue
				}
				if i >= len(n.Rhs) {
					continue
				}
				if root := sliceRootParam(pass, n.Rhs[i], inputs); root != nil {
					pass.Reportf(n.Rhs[i].Pos(),
						"%s rebinds dst to a view of input %s; callers own dst's storage and may write through it while reading %s — copy the values instead (or annotate //lint:allow wsalias)",
						fi.Display, root.Name(), root.Name())
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if root := sliceRootParam(pass, r, inputs); root != nil {
					pass.Reportf(r.Pos(),
						"%s returns input %s instead of dst; callers own the result's storage and may write through it while reading %s — copy into dst and return that (or annotate //lint:allow wsalias)",
						fi.Display, root.Name(), root.Name())
				}
			}
		}
		return true
	})
}

func setVar(m map[*types.Var]bool, v *types.Var) map[*types.Var]bool {
	m[v] = true
	return m
}

// sliceRootParam peels slicing, indexing, and parens off e and reports the
// input parameter at its root, if any.  Expressions that construct new
// storage (append, make, calls) have no parameter root.
func sliceRootParam(pass *Pass, e ast.Expr, inputs map[*types.Var]bool) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			if v, ok := pass.TypesInfo.Uses[x].(*types.Var); ok && inputs[v] {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

// checkWorkspaceCapture applies Rule 2 to one goroutine literal.
func checkWorkspaceCapture(pass *Pass, lit *ast.FuncLit) {
	reported := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || reported[v] || !capturedVar(v, lit) {
			return true
		}
		if !isWorkspaceType(v.Type()) {
			return true
		}
		reported[v] = true
		pass.Reportf(id.Pos(),
			"workspace %s is captured by this goroutine; workspaces are single-owner scratch memory — give each worker its own (e.g. index a per-worker slice), or annotate //lint:allow wsalias",
			v.Name())
		return true
	})
}

// capturedVar reports whether v is declared outside the literal (a true
// capture, including package-level variables).
func capturedVar(v *types.Var, lit *ast.FuncLit) bool {
	return v.Pos() < lit.Pos() || v.Pos() > lit.End()
}

// isWorkspaceType reports whether t is a named type called Workspace, or a
// pointer to one.
func isWorkspaceType(t types.Type) bool {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.Obj().Name() == "Workspace"
}
