// Package lint is greednet's in-tree static-analysis suite.  It enforces
// the numerical and simulation invariants the compiler cannot see:
//
//   - floateq: floating-point values are never compared with raw == / !=:
//     compare against an explicit tolerance or annotate
//     //lint:allow floateq <reason>.
//   - rngsource: every stochastic component must draw from an explicitly
//     seeded stream constructed by internal/randdist, so the EXPERIMENTS.md
//     verdicts stay bit-for-bit reproducible.
//   - panicfree: library packages must return errors instead of panicking
//     on user input; panics are reserved for documented invariant helpers.
//   - errdrop: error return values must be handled (or explicitly
//     discarded with `_ =`), errcheck-style.
//
// On top of the syntactic set sit the dataflow analyzers (feasguard,
// detorder, dimcheck — built on the intraprocedural CFG in cfg.go), the
// interprocedural set (allocfree, ctxflow, wsalias — built on the
// module-wide approximate call graph in callgraph.go, whose per-function
// summaries travel between packages as facts), and the
// concurrency-contract set (guardedby, chanown, fanout — built on the
// lock-held lattice in cfg.go and the same call-graph facts).
//
// The framework deliberately mirrors a small slice of the
// golang.org/x/tools/go/analysis API so the analyzers read like standard
// vet checks, but it is implemented entirely on the standard library
// (go/ast, go/token, go/types) because this repository builds offline with
// no third-party modules.  cmd/greedlint drives the suite over `go list`
// output, each package once with its test files, in dependency order.
//
// Findings are suppressed line-by-line with an annotation comment:
//
//	x := a == b //lint:allow floateq exact sentinel comparison
//
// A whole-line `//lint:allow <analyzer> <reason>` comment suppresses
// findings on the next source line instead.  An allow that suppresses
// nothing is itself reported (as staleallow), so annotations cannot
// outlive the code they were written for.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name is the short identifier used in diagnostics and in
	// //lint:allow annotations.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run inspects one package through the Pass and reports findings.
	Run func(*Pass) error
}

// A Pass provides one analyzer with a single type-checked package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps positions for every file in the package.
	Fset *token.FileSet
	// Files are the parsed sources, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo records types and uses for every expression.
	TypesInfo *types.Info
	// Graph is the package's call-graph substrate: local functions with
	// their call edges and allocation summaries, plus the imported facts
	// of every dependency (see callgraph.go).
	Graph *Graph

	sup   *suppressions
	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos falls in a _test.go file.  Some analyzers
// relax their rules for tests (tests may construct local RNGs directly, and
// may panic freely).
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// A Diagnostic is one finding.
type Diagnostic struct {
	// Analyzer names the check that produced the finding.
	Analyzer string
	// Pos locates the finding.
	Pos token.Pos
	// Message describes the violation and the expected fix.
	Message string
}

// AllowDirective is the comment prefix that suppresses a finding.
const AllowDirective = "//lint:allow"

// HotpathDirective marks a function as a zero-allocation hot-path root:
// the function and everything statically reachable from it must not heap-
// allocate (see the allocfree analyzer).  It is written in the function's
// doc comment (or on the line directly above the declaration).
const HotpathDirective = "//lint:hotpath"

// GuardedByDirective marks a struct field as protected by a sibling mutex
// field: `//lint:guardedby mu` on (or above) the field declaration means
// the field may only be read while mu is at least read-locked and only be
// written while mu is exclusively locked (see the guardedby analyzer).
const GuardedByDirective = "//lint:guardedby"

// LockedDirective asserts a function's locking precondition:
// `//lint:locked mu` in the doc comment means every caller must hold mu
// exclusively around the call.  The lock lattice seeds the body with mu
// held (both bare and receiver-qualified), and the requirement is exported
// as a NeedsLocks fact so cross-package call sites are checked too.
const LockedDirective = "//lint:locked"

// ChanOwnerDirective declares the single function allowed to close a
// channel: `//lint:chanowner Run` on a channel-typed struct field or var
// declaration restricts close() of that channel to a function named Run
// (see the chanown analyzer).
const ChanOwnerDirective = "//lint:chanowner"

// FanoutDirective whitelists one go statement outside internal/parallel:
// `//lint:fanout <role> <why>` on (or above) the spawning line admits the
// goroutine into the audited inventory (see the fanout analyzer).  The
// canonical role in this tree is "watchdog".
const FanoutDirective = "//lint:fanout"

// StaleAllowName is the pseudo-analyzer name under which unused
// //lint:allow directives are reported.  It is a framework invariant, not
// a member of All(): it cannot be selected, and it cannot be suppressed.
const StaleAllowName = "staleallow"

// allowEntry is one parsed //lint:allow directive.
type allowEntry struct {
	name string // analyzer being allowed
	file string
	// lines are the source lines the directive covers: its own line, and
	// the following line when the comment stands alone.
	lines [2]int
	pos   token.Pos
	used  bool
}

// suppressions indexes the //lint:allow directives of one package.
type suppressions struct {
	entries []*allowEntry
	// byLine maps file name → line → directives covering that line.
	byLine map[string]map[int][]*allowEntry
}

// collectSuppressions scans every comment for //lint:allow directives.  A
// directive suppresses matching findings on its own line; a directive that
// is the only thing on its line also suppresses the following line, so
// annotations can sit above long statements.
func collectSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	sup := &suppressions{byLine: make(map[string]map[int][]*allowEntry)}
	add := func(e *allowEntry, line int) {
		if sup.byLine[e.file] == nil {
			sup.byLine[e.file] = make(map[int][]*allowEntry)
		}
		sup.byLine[e.file][line] = append(sup.byLine[e.file][line], e)
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, AllowDirective) {
					continue
				}
				rest := strings.TrimPrefix(text, AllowDirective)
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				e := &allowEntry{
					name: fields[0],
					file: pos.Filename,
					pos:  c.Pos(),
				}
				e.lines[0] = pos.Line
				add(e, pos.Line)
				if pos.Column == 1 || onlyCommentOnLine(fset, f, c) {
					e.lines[1] = pos.Line + 1
					add(e, pos.Line+1)
				}
				sup.entries = append(sup.entries, e)
			}
		}
	}
	return sup
}

// onlyCommentOnLine reports whether comment c shares its line with no other
// syntax, i.e. it is a standalone annotation line.
func onlyCommentOnLine(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	line := fset.Position(c.Pos()).Line
	alone := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !alone {
			return false
		}
		switch n.(type) {
		case *ast.CommentGroup, *ast.Comment:
			return false
		}
		start := fset.Position(n.Pos()).Line
		end := fset.Position(n.End()).Line
		if end < line || start > line {
			return false // entirely off the line; skip the subtree
		}
		if start == line || end == line {
			// One of the node's own tokens sits on the comment's line, so
			// the comment shares the line with real syntax.  A node that
			// merely spans the line (the enclosing function or block) does
			// not count — recurse to check its children instead.
			alone = false
			return false
		}
		return true
	})
	return alone
}

// allowedAt reports whether a finding by the named analyzer at pos is
// covered by an annotation, marking every covering directive as used.
// Analyzers that fold allowances into facts (allocfree) call this through
// Pass.Allowed while summarizing, so an allow consumed by the fact
// computation counts as live even though no diagnostic was ever filed.
func (s *suppressions) allowedAt(fset *token.FileSet, pos token.Pos, name string) bool {
	p := fset.Position(pos)
	byLine := s.byLine[p.Filename]
	if byLine == nil {
		return false
	}
	allowed := false
	for _, e := range byLine[p.Line] {
		if e.name == name || e.name == "all" {
			e.used = true
			allowed = true
		}
	}
	return allowed
}

// Allowed reports whether a finding by the named analyzer at pos carries a
// //lint:allow annotation, marking the annotation as used.
func (p *Pass) Allowed(pos token.Pos, name string) bool {
	return p.sup.allowedAt(p.Fset, pos, name)
}

// staleDirectives returns the directives that suppressed nothing, limited
// to analyzer names in ran (an allow for an analyzer that did not run this
// pass is not stale — it may fire on the full suite).  Directives naming
// no known analyzer at all are always stale: they are typos that can never
// suppress anything.
func (s *suppressions) staleDirectives(ran map[string]bool) []*allowEntry {
	var out []*allowEntry
	for _, e := range s.entries {
		if e.used || e.name == "all" {
			continue
		}
		if ran[e.name] || !knownAnalyzer(e.name) {
			out = append(out, e)
		}
	}
	return out
}

// knownAnalyzer reports whether name identifies a member of the full suite.
func knownAnalyzer(name string) bool {
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// Run executes the analyzers over one type-checked package and returns the
// findings that survive //lint:allow suppression, sorted by position.  It
// is RunPkg without imported facts — sufficient for single-package
// fixtures and tests; drivers use RunPkg so interprocedural facts flow.
func Run(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	diags, _, err := RunPkg(analyzers, fset, files, pkg, info, nil)
	return diags, err
}

// RunPkg executes the analyzers over one type-checked package with the
// facts of its dependencies available in store (nil means none), and
// returns the surviving findings together with the package's own exported
// facts, which the driver forwards to dependent packages.
func RunPkg(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, store *FactStore) ([]Diagnostic, *PkgFacts, error) {
	if store == nil {
		store = NewFactStore()
	}
	sup := collectSuppressions(fset, files)

	// The call-graph substrate is built once per package — before any
	// analyzer runs — because fact computation itself consumes allowances
	// (an allowed allocation must not poison every caller's summary).
	var diags []Diagnostic
	base := &Pass{
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		sup:       sup,
		diags:     &diags,
	}
	graph := buildGraph(base, store)
	base.Graph = graph

	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Graph:     graph,
			sup:       sup,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("lint: analyzer %s: %w", a.Name, err)
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if !sup.allowedAt(fset, d.Pos, d.Analyzer) {
			kept = append(kept, d)
		}
	}
	// An allow that suppressed nothing — neither a filed diagnostic nor a
	// fact-level allowance — has rotted; report it at its own position.
	for _, e := range sup.staleDirectives(ran) {
		kept = append(kept, Diagnostic{
			Analyzer: StaleAllowName,
			Pos:      e.pos,
			Message: fmt.Sprintf("//lint:allow %s suppresses nothing on this line; delete the stale annotation (or fix its analyzer name)",
				e.name),
		})
	}
	sort.Slice(kept, func(i, j int) bool {
		pi, pj := fset.Position(kept[i].Pos), fset.Position(kept[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return kept, graph.Facts, nil
}

// All returns the full greedlint analyzer suite: the syntactic v1
// analyzers, the dataflow-aware v2 set built on the CFG pass, the
// interprocedural v3 set built on the call-graph facts, and the v4
// concurrency-contract set built on the lock-held lattice.
func All() []*Analyzer {
	return []*Analyzer{
		FloatEq, RNGSource, PanicFree, ErrDrop,
		FeasGuard, DetOrder, DimCheck,
		AllocFree, CtxFlow, WSAlias,
		GuardedBy, ChanOwn, Fanout,
	}
}

// ByName resolves a comma-separated analyzer list; an empty spec means all.
func ByName(spec string) ([]*Analyzer, error) {
	if strings.TrimSpace(spec) == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}
