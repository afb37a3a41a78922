package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GuardedByName is the analyzer's registered name (and //lint:allow token).
const GuardedByName = "guardedby"

// GuardedBy enforces the lock discipline declared by //lint:guardedby
// annotations: a struct field marked `//lint:guardedby mu` may only be
// read or written while the sibling field mu is held.  Held locks are
// computed by the lock-held lattice in cfg.go — a forward must-analysis
// over the CFG that tracks Lock and Unlock, understands `defer
// mu.Unlock()` (the lock stays held to the end of the body), and follows
// release/re-acquisition in loops.  RLock and TryLock acquire nothing in
// the lattice, so a guarded access behind one is reported.
//
// Functions annotated `//lint:locked mu` declare a locking precondition
// instead of acquiring: their bodies start with mu held (both "mu" and
// "recv.mu" forms), and the requirement is exported cross-package as a
// NeedsLocks fact, so a method called under a lock inherits the context and
// every call site — local or importing — is checked for the lock being held
// exclusively.
//
// The lattice identifies locks by printed receiver path ("c.mu"), so a
// guarded access is only checkable when the field access and the lock share
// a base path; a lock acquired through an alias or inside a helper is
// invisible — annotate the helper //lint:locked, or the access
// //lint:allow guardedby, to teach the analyzer.  Function literals are
// analyzed as separate units with an empty entry state: a closure may run
// long after the creating scope's locks were released.  Test files are
// exempt.
var GuardedBy = &Analyzer{
	Name: GuardedByName,
	Doc: "fields annotated //lint:guardedby mu may only be accessed with mu " +
		"held, verified by a CFG lock-held lattice; //lint:locked declares " +
		"a callee's lock precondition, checked at every call site",
	Run: runGuardedBy,
}

// directiveArgs finds the first comment in cg that is the directive (see
// directiveFields) and returns its whitespace-separated arguments.
func directiveArgs(cg *ast.CommentGroup, directive string) (args []string, pos token.Pos, found bool) {
	if cg == nil {
		return nil, token.NoPos, false
	}
	for _, c := range cg.List {
		if args, ok := directiveFields(c.Text, directive); ok {
			return args, c.Pos(), true
		}
	}
	return nil, token.NoPos, false
}

// collectGuardedFields maps each annotated field object to the name of its
// guarding sibling field, reporting malformed annotations (no lock name, or
// a lock that is not a sibling field) as findings of their own.
func collectGuardedFields(pass *Pass) map[*types.Var]string {
	guards := make(map[*types.Var]string)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			siblings := make(map[string]bool)
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					siblings[name.Name] = true
				}
			}
			for _, fld := range st.Fields.List {
				args, pos, found := directiveArgs(fld.Doc, GuardedByDirective)
				if !found {
					args, pos, found = directiveArgs(fld.Comment, GuardedByDirective)
				}
				if !found {
					continue
				}
				if len(args) == 0 {
					pass.Reportf(pos, "//lint:guardedby names no lock; write //lint:guardedby <sibling mutex field>")
					continue
				}
				lock := args[0]
				if !siblings[lock] {
					pass.Reportf(pos, "//lint:guardedby %s names no sibling field of this struct; fix the lock name or delete the annotation", lock)
					continue
				}
				for _, name := range fld.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						guards[v] = lock
					}
				}
			}
			return true
		})
	}
	return guards
}

func runGuardedBy(pass *Pass) error {
	guards := collectGuardedFields(pass)
	fc := newFlowCache(pass)
	for _, fi := range pass.Graph.Funcs {
		if pass.InTestFile(fi.Decl.Pos()) {
			continue
		}
		// The declaration body starts with its //lint:locked seed; every
		// nested literal is a separate unit with an empty entry state.
		sig, _ := fi.Obj.Type().(*types.Signature)
		checkLockUnit(pass, fc, fi.Decl.Body, sig, lockSeed(fi), guards)
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				lsig, _ := types.Unalias(pass.TypesInfo.TypeOf(lit)).(*types.Signature)
				checkLockUnit(pass, fc, lit.Body, lsig, nil, guards)
			}
			return true
		})
	}
	return nil
}

// lockSeed builds the entry lock state of a //lint:locked function: each
// declared lock is held, under both its bare name and the
// receiver-qualified path, so "n" and "c.n" accesses both see it.
func lockSeed(fi *FuncInfo) lockState {
	if len(fi.Locked) == 0 {
		return nil
	}
	seed := lockState{}
	recv := ""
	if fi.Decl.Recv != nil && len(fi.Decl.Recv.List) > 0 && len(fi.Decl.Recv.List[0].Names) > 0 {
		recv = fi.Decl.Recv.List[0].Names[0].Name
	}
	for _, l := range fi.Locked {
		seed[l] = true
		if recv != "" && recv != "_" {
			seed[recv+"."+l] = true
		}
	}
	return seed
}

// guardedAccess is one guarded-field use awaiting a lattice query.
type guardedAccess struct {
	sel     *ast.SelectorExpr
	lockKey string // e.g. "c.mu"
	field   string // display form, e.g. "c.n"
	lock    string // bare lock name from the annotation
}

// lockedCall is one call to a //lint:locked function awaiting a query.
type lockedCall struct {
	call    *ast.CallExpr
	display string
	keys    []string // qualified lock paths that must be held
}

// checkLockUnit verifies one body (declaration or literal): it collects the
// guarded accesses and locked-callee calls outside nested literals, and —
// only when there are any — solves the lattice and queries it.
func checkLockUnit(pass *Pass, fc *flowCache, body *ast.BlockStmt, sig *types.Signature, seed lockState, guards map[*types.Var]string) {
	var accesses []guardedAccess
	var calls []lockedCall
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n.Body != body {
				return false // separate unit
			}
		case *ast.SelectorExpr:
			v := selectedField(pass, n)
			lock, ok := guards[v]
			if !ok {
				return true
			}
			base := lockPath(n.X)
			if base == "" {
				return true // untracked base path: lattice cannot help
			}
			accesses = append(accesses, guardedAccess{
				sel:     n,
				lockKey: base + "." + lock,
				field:   base + "." + n.Sel.Name,
				lock:    lock,
			})
		case *ast.CallExpr:
			fn := calleeFunc(pass, n.Fun)
			if fn == nil {
				return true
			}
			needs := needsLocksOf(pass, fn)
			if len(needs) == 0 {
				return true
			}
			prefix := callRecvPath(pass, n)
			keys := make([]string, len(needs))
			for i, l := range needs {
				if prefix != "" {
					keys[i] = prefix + "." + l
				} else {
					keys[i] = l
				}
			}
			calls = append(calls, lockedCall{call: n, display: displayKey(fn), keys: keys})
		}
		return true
	})
	if len(accesses) == 0 && len(calls) == 0 {
		return
	}
	ff := fc.flowFor(body, sig)
	lf := newLockFlow(ff, seed)
	for _, a := range accesses {
		held, reached := lf.heldAt(a.sel.Pos())
		if !reached {
			continue
		}
		if !held[a.lockKey] {
			pass.Reportf(a.sel.Pos(),
				"access to %s (//lint:guardedby %s) without %s held; acquire %s.Lock(), annotate the enclosing function //lint:locked %s, or //lint:allow guardedby with the reason",
				a.field, a.lock, a.lockKey, a.lockKey, a.lock)
		}
	}
	for _, c := range calls {
		held, reached := lf.heldAt(c.call.Pos())
		if !reached {
			continue
		}
		for _, key := range c.keys {
			if held[key] {
				continue
			}
			pass.Reportf(c.call.Pos(),
				"call to %s requires %s held exclusively (//lint:locked); acquire it, propagate the //lint:locked annotation, or //lint:allow guardedby with the reason",
				c.display, key)
		}
	}
}

// selectedField resolves a selector to the field object it reads or
// writes, or nil when it is not a field access.
func selectedField(pass *Pass, sel *ast.SelectorExpr) *types.Var {
	if s, ok := pass.TypesInfo.Selections[sel]; ok {
		if s.Kind() == types.FieldVal {
			v, _ := s.Obj().(*types.Var)
			return v
		}
		return nil
	}
	if v, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

// needsLocksOf returns the callee's //lint:locked requirement, from the
// local graph or the imported cross-package facts.
func needsLocksOf(pass *Pass, fn *types.Func) []string {
	if fi, ok := pass.Graph.ByObj[fn]; ok {
		return fi.Locked
	}
	if fact, ok := pass.Graph.Imported.Lookup(FuncKey(fn)); ok {
		return fact.NeedsLocks
	}
	return nil
}

// callRecvPath returns the canonical receiver path of a method call
// ("c" for c.bump()), or "" for plain and package-qualified calls.
func callRecvPath(pass *Pass, call *ast.CallExpr) string {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
			return ""
		}
	}
	return lockPath(sel.X)
}
