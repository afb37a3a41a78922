package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/types"
	"io"
	"io/fs"
	"os/exec"
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

// loadReachUnits type-checks every package that `go list -deps -test
// -export ./...` reports in dir, test files included, each once: a
// package with in-package tests only as its test variant, and the test
// mains and dependency-only packages not at all.
func loadReachUnits(t *testing.T, dir string) []reachUnit {
	t.Helper()
	cmd := exec.Command("go", "list", "-e", "-deps", "-test", "-export",
		"-json=ImportPath,ForTest,Dir,Export,GoFiles,ImportMap,DepOnly,Standard", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	type testPackage struct {
		listPackage
		ForTest   string
		ImportMap map[string]string
	}
	exports := make(map[string]string)
	var pkgs []testPackage
	hasTestVariant := make(map[string]bool)
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p testPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		exports[p.ImportPath] = p.Export
		base, _, _ := strings.Cut(p.ImportPath, " [")
		if p.Standard || p.DepOnly || strings.HasSuffix(p.ImportPath, ".test") ||
			p.ForTest != "" && base != p.ForTest && base != p.ForTest+"_test" {
			continue // outside the module, a test main, or a package recompiled for another's test
		}
		if base == p.ForTest {
			hasTestVariant[base] = true
		}
		pkgs = append(pkgs, p)
	}
	var units []reachUnit
	for _, p := range pkgs {
		if p.ForTest == "" && hasTestVariant[p.ImportPath] {
			continue
		}
		base, _, _ := strings.Cut(p.ImportPath, " [")
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		pkg, err := lint.LoadPackage(lint.LoadConfig{ImportPath: base, GoFiles: files,
			ImportMap: p.ImportMap, PackageFile: exports})
		if err != nil {
			t.Fatal(err)
		}
		own := p.ForTest
		if own == "" {
			own = base
		}
		units = append(units, reachUnit{own: own, pkg: pkg})
	}
	return units
}

// TestInternalFuncsReached is the module's dead-code gate: every function
// or method declared in a non-test file under internal/ must be referenced
// (types.Info.Uses, so plain function values count as well as calls) from
// another package — a main, an example, the greednet facade, perfbench
// (its own module, loaded from perfbench/), or any other package's tests —
// or from a non-test file of its own package outside its own body.  A
// function only its own package's tests reach is dead code with a test.
// Methods that satisfy an interface are exempt, since dispatch leaves no
// reference to the concrete method; that includes the errors protocol, by
// which errors.Is and errors.As reach Unwrap, Is and As.
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
		fn  *types.Func
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
			for _, d := range f.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = u.pkg.Info.Defs[fd.Name]
					if fn, ok := self.(*types.Func); ok && !test && fn.Name() != "init" &&
						strings.HasPrefix(u.own, "greednet/internal/") {
						rel, _ := filepath.Rel(root, name)
						decls[lint.FuncKey(fn)] = declared{fn, fmt.Sprintf("%s:%d", rel, u.pkg.Fset.Position(fd.Pos()).Line)}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if fn, ok := u.pkg.Info.Uses[id].(*types.Func); ok && fn.Origin() != self && fn.Pkg() != nil &&
						(!test || fn.Pkg().Path() != u.own) {
						reached[lint.FuncKey(fn.Origin())] = true
					}
					return true
				})
			}
		}
	}

	var dead []string
	for key, d := range decls {
		if !reached[key] && !satisfiesInterface(d.fn, ifaces) {
			dead = append(dead, d.pos+": "+key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is referenced by nothing but its own package's tests: delete it, or move it into them", d)
	}
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
