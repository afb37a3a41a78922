package main

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"greednet/internal/lint"
)

// A reachUnit is one type-checked package of the reference scan, with the
// path of the package whose tests it belongs to ("p" for p, p's in-package
// test variant and its external p_test package).
type reachUnit struct {
	own string
	pkg *lint.Package
}

// loadReachUnits type-checks every unit greedlint would analyze over
// ./... in dir, test files included, except the dependency-only ones.
func loadReachUnits(t *testing.T, dir string) []reachUnit {
	t.Helper()
	units, exports, err := listUnits(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var out []reachUnit
	for _, u := range units {
		if u.DepOnly {
			continue
		}
		pkg, err := lint.LoadPackage(u.config(exports))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, reachUnit{own: cmp.Or(u.ForTest, u.path()), pkg: pkg})
	}
	return out
}

// TestInternalFuncsReached is the module's dead-code gate: every function
// or method, and every package-level named type, const and var, declared
// in a non-test file under internal/ must be referenced (types.Info.Uses,
// so plain function values count as well as calls) from another package —
// a main, an example, the greednet facade, perfbench (its own module,
// loaded from perfbench/), or any other package's tests — or from a
// non-test file of its own package outside its own declaration.  A
// declaration only its own package's tests reach is dead code with a
// test.  Methods that satisfy an interface are exempt, since dispatch
// leaves no reference to the concrete method; that includes the errors
// protocol, by which errors.Is and errors.As reach Unwrap, Is and As.
func TestInternalFuncsReached(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	// go test caches a pass against the files and directories this
	// process opened, and go list's reads are not among them: opening
	// every directory makes a new file or package a cache miss.
	if err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	units := append(loadReachUnits(t, root), loadReachUnits(t, filepath.Join(root, "perfbench"))...)

	type declared struct {
		obj types.Object
		pos string
	}
	decls := make(map[string]declared)
	reached := make(map[string]bool)
	// Interfaces as sets of method names; the errors protocol asserts
	// anonymous interfaces inside package errors, which no scope shows.
	ifaces := map[string][]string{"Error,Unwrap": {"Error", "Unwrap"}, "As,Error": {"As", "Error"}, "Error,Is": {"Error", "Is"}}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			var names []string
			for i := 0; i < it.NumMethods(); i++ {
				names = append(names, it.Method(i).Name())
			}
			sort.Strings(names)
			ifaces[strings.Join(names, ",")] = names
		}
	}
	seen := make(map[*types.Package]bool)
	var addScope func(p *types.Package)
	addScope = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			addScope(imp)
		}
	}

	for _, u := range units {
		addScope(u.pkg.Pkg)
		for _, tv := range u.pkg.Info.Types {
			addIface(tv.Type)
		}
		for _, f := range u.pkg.Files {
			name := u.pkg.Fset.Position(f.Pos()).Filename
			test := strings.HasSuffix(name, "_test.go")
			// A function is one declaration; a type, const or var block
			// is one per spec.
			var nodes []ast.Node
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok {
					for _, spec := range gd.Specs {
						nodes = append(nodes, spec)
					}
				} else {
					nodes = append(nodes, d)
				}
			}
			for _, n := range nodes {
				self := make(map[string]bool)
				for _, id := range declaredNames(n) {
					obj := u.pkg.Info.Defs[id]
					key := reachKey(obj)
					if key == "" || obj.Name() == "_" || obj.Name() == "init" {
						continue
					}
					self[key] = true
					if !test && strings.HasPrefix(u.own, "greednet/internal/") {
						rel, _ := filepath.Rel(root, name)
						decls[key] = declared{obj, fmt.Sprintf("%s:%d", rel, u.pkg.Fset.Position(id.Pos()).Line)}
					}
				}
				ast.Inspect(n, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := u.pkg.Info.Uses[id]
					if key := reachKey(obj); key != "" && !self[key] && (!test || obj.Pkg().Path() != u.own) {
						reached[key] = true
					}
					return true
				})
			}
		}
	}

	var dead []string
	for key, d := range decls {
		if fn, ok := d.obj.(*types.Func); !reached[key] && !(ok && satisfiesInterface(fn, ifaces)) {
			dead = append(dead, d.pos+": "+key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is referenced by nothing but its own package's tests: delete it, or move it into them", d)
	}
}

// declaredNames returns the names a top-level declaration or spec binds.
func declaredNames(n ast.Node) []*ast.Ident {
	switch n := n.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{n.Name}
	case *ast.TypeSpec:
		return []*ast.Ident{n.Name}
	case *ast.ValueSpec:
		return n.Names
	}
	return nil
}

// reachKey names a function, a method or a package-level object, and is
// "" for anything else (locals, fields, type parameters, the universe).
// Keys are strings because each package is type-checked separately, so
// one declaration is a distinct object in every package that imports it.
func reachKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		return lint.FuncKey(fn.Origin())
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// satisfiesInterface reports whether fn is a method of a type whose method
// set holds every method of some interface that has fn among its methods.
// Matching is by name, so it holds across the separately type-checked
// packages, whose identical types are distinct objects.
func satisfiesInterface(fn *types.Func, ifaces map[string][]string) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if _, ok := typ.(*types.Pointer); !ok {
		typ = types.NewPointer(typ)
	}
	has := make(map[string]bool)
	ms := types.NewMethodSet(typ)
	for i := 0; i < ms.Len(); i++ {
		has[ms.At(i).Obj().Name()] = true
	}
	for _, names := range ifaces {
		all, mine := true, false
		for _, n := range names {
			all = all && has[n]
			mine = mine || n == fn.Name()
		}
		if all && mine {
			return true
		}
	}
	return false
}
