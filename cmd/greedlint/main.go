// Command greedlint runs greednet's in-tree static-analysis suite
// (internal/lint): the syntactic analyzers floateq, rngsource, panicfree,
// and errdrop; the dataflow-aware set feasguard, detorder, and dimcheck;
// the interprocedural set allocfree, ctxflow, and wsalias, which flow
// per-function call-graph facts (who allocates, who carries a Ctx sibling)
// across package boundaries; and the concurrency-contract set guardedby,
// chanown, and fanout, which enforce the //lint:guardedby lock discipline
// on a CFG lock-held lattice, //lint:chanowner channel close ownership,
// and the parallel-only goroutine inventory.  A framework-level staleallow
// check reports //lint:allow directives that no longer suppress anything.
//
// It runs over package patterns:
//
//	greedlint ./...
//	greedlint -analyzers floateq,errdrop ./internal/mm1
//
// One `go list -deps -test -export` call supplies file lists and export
// data.  Each package is analyzed once with its test files, in dependency
// order so the facts flow, and the findings in the named packages print
// as one sorted listing with paths relative to the working directory.
//
// Suppress an intentional finding with a trailing or preceding comment:
//
//	if cv2 == 0 { ... } //lint:allow floateq exact sentinel value
//
// Exit status: 0 when clean, 2 when findings were reported, 1 on errors.
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"

	"greednet/internal/lint"
)

var analyzersFlag = flag.String("analyzers", "", "comma-separated analyzer subset to run (default: all)")

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: greedlint [-analyzers=a,b] package...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	analyzers, err := lint.ByName(*analyzersFlag)
	if err != nil {
		fatal(err)
	}
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(1)
	}
	units, exports, err := listUnits("", flag.Args())
	if err != nil {
		fatal(err)
	}

	// Thread one fact store through the dependency-ordered units, collect
	// every finding, then render one globally sorted listing: byte-stable
	// across runs and machines, so it can serve as a golden file.
	store := lint.NewFactStore()
	var all []finding
	for _, u := range units {
		run := analyzers
		if u.DepOnly {
			run = nil // facts only: not a named target
		}
		diags, fset, facts, err := lint.AnalyzePkg(u.config(exports), run, store)
		if err != nil {
			fatal(err)
		}
		store.Add(facts)
		if u.DepOnly {
			continue
		}
		for _, d := range diags {
			pos := fset.Position(d.Pos)
			all = append(all, finding{relPath(pos.Filename), pos.Line, pos.Column, d.Analyzer, d.Message})
		}
	}
	slices.SortFunc(all, func(a, b finding) int {
		return cmp.Or(strings.Compare(a.file, b.file), cmp.Compare(a.line, b.line),
			cmp.Compare(a.col, b.col), strings.Compare(a.analyzer, b.analyzer),
			strings.Compare(a.message, b.message))
	})
	for _, d := range all {
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s [%s]\n", d.file, d.line, d.col, d.message, d.analyzer)
	}
	if len(all) > 0 {
		os.Exit(2)
	}
}

// finding is one diagnostic resolved to its printable position.
type finding struct {
	file              string
	line, col         int
	analyzer, message string
}

// listPackage is the subset of `go list -json` output greedlint consumes.
type listPackage struct {
	ImportPath string
	ForTest    string
	Dir        string
	Export     string
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	DepOnly    bool
	Standard   bool
}

// path is the import path without go list's " [p.test]" suffix.  A test
// variant is type-checked under it, so its fact keys are the package's.
func (p *listPackage) path() string {
	path, _, _ := strings.Cut(p.ImportPath, " [")
	return path
}

// config describes the package to lint.LoadPackage, resolving its imports
// through exports.
func (p *listPackage) config(exports map[string]string) lint.LoadConfig {
	files := make([]string, len(p.GoFiles))
	for i, f := range p.GoFiles {
		files[i] = filepath.Join(p.Dir, f)
	}
	return lint.LoadConfig{ImportPath: p.path(), GoFiles: files, ImportMap: p.ImportMap, PackageFile: exports}
}

// listUnits runs `go list -e -deps -test -export` over patterns in dir (""
// for the working directory).  It returns the units to analyze,
// dependencies first, and the export data of every listed package.  A unit
// is a package outside the standard library, test files included: a
// package with in-package tests as its test variant "p [p.test]", and
// external tests as "p_test [p.test]".  Test mains and packages recompiled
// for another package's tests are dropped.
func listUnits(dir string, patterns []string) ([]listPackage, map[string]string, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-deps", "-test", "-export",
		"-json=ImportPath,ForTest,Dir,Export,GoFiles,Imports,ImportMap,DepOnly,Standard"}, patterns...)...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("greedlint: go list: %w", err)
	}
	exports := make(map[string]string)
	var pkgs []listPackage
	tested := make(map[string]bool) // packages listed with their test variant
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("greedlint: decoding go list output: %w", err)
		}
		exports[p.ImportPath] = p.Export
		path := p.path()
		if p.Standard || strings.HasSuffix(p.ImportPath, ".test") ||
			p.ForTest != "" && path != p.ForTest && path != p.ForTest+"_test" {
			continue
		}
		if path == p.ForTest {
			tested[path] = true
		}
		pkgs = append(pkgs, p)
	}
	units := pkgs[:0]
	for _, p := range pkgs {
		if p.ForTest != "" || !tested[p.ImportPath] {
			units = append(units, p)
		}
	}
	return topoOrder(units), exports, nil
}

// topoOrder sorts units dependencies first, so each unit's analysis sees
// its dependencies' facts.  Units and imports are both keyed on the
// suffix-free path: a test variant stands in for its package, and an
// import of a package recompiled for a test ("q [p.test]") is an edge to
// q's unit.  Two packages whose tests import each other would close a
// cycle, and one of them would miss the other's facts.
func topoOrder(units []listPackage) []listPackage {
	byPath := make(map[string]*listPackage, len(units))
	for i := range units {
		byPath[units[i].path()] = &units[i]
	}
	var out []listPackage
	seen := make(map[string]bool)
	var visit func(p *listPackage)
	visit = func(p *listPackage) {
		if seen[p.path()] {
			return
		}
		seen[p.path()] = true
		for _, imp := range p.Imports {
			path, _, _ := strings.Cut(imp, " [")
			if dep, ok := byPath[path]; ok {
				visit(dep)
			}
		}
		out = append(out, *p)
	}
	for i := range units {
		visit(&units[i])
	}
	return out
}

// relPath reports p relative to the working directory when it lies inside
// it, keeping the listing (and golden files) machine-independent.
func relPath(p string) string {
	wd, err := os.Getwd()
	if err != nil {
		return p
	}
	rel, err := filepath.Rel(wd, p)
	if err != nil || strings.HasPrefix(rel, "..") {
		return p
	}
	return rel
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
