package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"greednet/internal/lint"
)

// The -escapes gate pins the compiler's escape analysis on the hot
// paths.  greedlint's allocfree analyzer proves no *call* on a
// //lint:hotpath route reaches make/new/append-growth, but it cannot
// see what the compiler decides about the allocations that remain: a
// refactor that makes a workspace pointer escape turns an intended
// stack allocation into a per-call heap allocation without changing
// any syntax the analyzer checks.  So the gate asks the compiler
// directly: build with -gcflags=-m, keep every "escapes to heap" /
// "moved to heap" diagnostic that lands inside a //lint:hotpath
// function, and diff the result against the committed baseline.  A new
// escape fails the gate (a regression slipped in); a stale baseline
// entry also fails (the escape was fixed — re-baseline so the next
// regression is visible), mirroring the stale-allow janitor.

// escapeEntry is one compiler-reported heap escape inside a hot-path
// function, as archived in BENCH_escapes.json.
type escapeEntry struct {
	Func string `json:"func"`
	File string `json:"file"`
	Line int    `json:"line"`
	What string `json:"what"`
}

func (e escapeEntry) String() string {
	return fmt.Sprintf("%s:%d: %s (in //lint:hotpath %s)", e.File, e.Line, e.What, e.Func)
}

// hotSpan is the source extent of one //lint:hotpath function.
type hotSpan struct {
	fn         string // display name: pkg.Name or pkg.(Recv).Name
	file       string // module-root-relative path
	start, end int    // inclusive line range
}

// escapeLineRe matches one compiler diagnostic: file:line:col: message.
var escapeLineRe = regexp.MustCompile(`^([^:]+\.go):(\d+):\d+: (.+)$`)

// parseEscapeLine extracts a heap-escape diagnostic from one line of
// -gcflags=-m output; ok is false for every other line (inlining
// decisions, package headers, <autogenerated> stubs, non-escape
// diagnostics).
func parseEscapeLine(line string) (file string, lineNo int, what string, ok bool) {
	m := escapeLineRe.FindStringSubmatch(line)
	if m == nil {
		return "", 0, "", false
	}
	what = m[3]
	if !strings.HasSuffix(what, "escapes to heap") && !strings.Contains(what, "moved to heap") {
		return "", 0, "", false
	}
	n, err := strconv.Atoi(m[2])
	if err != nil {
		return "", 0, "", false
	}
	return m[1], n, what, true
}

// hotSpansOf collects the //lint:hotpath function extents of one parsed
// file.  relFile is the path the compiler will print for this file.
func hotSpansOf(fset *token.FileSet, f *ast.File, relFile string) []hotSpan {
	var spans []hotSpan
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil || !lint.HasHotpathDirective(fd) {
			continue
		}
		name := f.Name.Name + "." + fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) > 0 {
			t := fd.Recv.List[0].Type
			if star, ok := t.(*ast.StarExpr); ok {
				t = star.X
			}
			recv := ""
			switch rt := t.(type) {
			case *ast.Ident:
				recv = rt.Name
			case *ast.IndexExpr: // generic receiver T[P]
				if id, ok := rt.X.(*ast.Ident); ok {
					recv = id.Name
				}
			}
			if recv != "" {
				name = fmt.Sprintf("%s.(%s).%s", f.Name.Name, recv, fd.Name.Name)
			}
		}
		spans = append(spans, hotSpan{
			fn:    name,
			file:  relFile,
			start: fset.Position(fd.Pos()).Line,
			end:   fset.Position(fd.End()).Line,
		})
	}
	return spans
}

// escapesInSpans filters raw -gcflags=-m output down to the heap
// escapes that land inside a hot-path span, deduplicated (generic
// instantiation can replay a diagnostic) and deterministically sorted.
func escapesInSpans(output string, spans []hotSpan) []escapeEntry {
	byFile := make(map[string][]hotSpan)
	for _, s := range spans {
		byFile[s.file] = append(byFile[s.file], s)
	}
	seen := make(map[escapeEntry]bool)
	var entries []escapeEntry
	for _, line := range strings.Split(output, "\n") {
		file, n, what, ok := parseEscapeLine(line)
		if !ok {
			continue
		}
		for _, s := range byFile[file] {
			if n < s.start || n > s.end {
				continue
			}
			e := escapeEntry{Func: s.fn, File: file, Line: n, What: what}
			if !seen[e] {
				seen[e] = true
				entries = append(entries, e)
			}
			break
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.What < b.What
	})
	return entries
}

// diffEscapes splits the current escapes into the ones the baseline
// already carries, the new regressions, and the baseline entries whose
// escape no longer exists (stale, in the stale-allow janitor's sense).
func diffEscapes(baseline, current []escapeEntry) (added, removed []escapeEntry) {
	old := make(map[escapeEntry]bool, len(baseline))
	for _, e := range baseline {
		old[e] = true
	}
	cur := make(map[escapeEntry]bool, len(current))
	for _, e := range current {
		cur[e] = true
		if !old[e] {
			added = append(added, e)
		}
	}
	for _, e := range baseline {
		if !cur[e] {
			removed = append(removed, e)
		}
	}
	return added, removed
}

// moduleRoot locates the directory holding go.mod, so the gate works
// from any cwd inside the module and the compiler's cwd-relative
// diagnostic paths match the span paths.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", errors.New("not inside a Go module")
	}
	return filepath.Dir(gomod), nil
}

// collectHotSpans parses every non-test Go file in the module and
// returns the //lint:hotpath extents.
func collectHotSpans(root string) ([]hotSpan, error) {
	cmd := exec.Command("go", "list", "-f",
		`{{$d := .Dir}}{{range .GoFiles}}{{$d}}/{{.}}{{"\n"}}{{end}}`, "./...")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	fset := token.NewFileSet()
	var spans []hotSpan
	for _, path := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path == "" {
			continue
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", rel, err)
		}
		spans = append(spans, hotSpansOf(fset, f, filepath.ToSlash(rel))...)
	}
	return spans, nil
}

// currentEscapes asks the compiler for its escape decisions and filters
// them to the hot-path spans.  The build output is discarded into a
// temp dir; the diagnostics arrive on stderr, which the build cache
// replays verbatim on cache hits, so repeat runs are cheap.
func currentEscapes(root string) ([]escapeEntry, error) {
	spans, err := collectHotSpans(root)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "greedbench-escapes-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(tmp) }() // best-effort temp cleanup
	cmd := exec.Command("go", "build", "-o", tmp+string(os.PathSeparator), "-gcflags=-m", "./...")
	cmd.Dir = root
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %w\n%s", err, stderr.String())
	}
	return escapesInSpans(stderr.String(), spans), nil
}

// writeEscapesJSON runs the escape gate against the baseline at path.
// A missing baseline is written and accepted; otherwise new escapes
// (regressions) and stale entries (fixed escapes the baseline still
// lists) each fail the gate with exit code 1, and a clean comparison
// rewrites the file byte-identically so CI can assert reproducibility
// with git diff.
func writeEscapesJSON(path string) (int, error) {
	root, err := moduleRoot()
	if err != nil {
		return 0, err
	}
	current, err := currentEscapes(root)
	if err != nil {
		return 0, err
	}
	data, err := json.MarshalIndent(current, "", "  ")
	if err != nil {
		return 0, err
	}
	data = append(data, '\n')

	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if werr := os.WriteFile(path, data, 0o644); werr != nil {
			return 0, werr
		}
		fmt.Printf("escape gate: %d hot-path escapes -> %s (new baseline)\n", len(current), path)
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var baseline []escapeEntry
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return 0, fmt.Errorf("parse %s: %w", path, err)
	}

	added, removed := diffEscapes(baseline, current)
	for _, e := range added {
		fmt.Printf("ESCAPE(new) %s\n", e)
	}
	for _, e := range removed {
		fmt.Printf("ESCAPE(stale) %s:%d: baseline lists %q but the compiler no longer reports it; re-baseline with make escapes-update\n",
			e.File, e.Line, e.What)
	}
	if len(added) > 0 || len(removed) > 0 {
		fmt.Printf("escape gate: %d new, %d stale vs %s; fix the regression or re-baseline with make escapes-update\n",
			len(added), len(removed), path)
		return 1, nil
	}
	// Byte-identical rewrite: proves the file is reproducible and lets
	// CI gate on `git diff --exit-code`.
	if werr := os.WriteFile(path, data, 0o644); werr != nil {
		return 0, werr
	}
	fmt.Printf("escape gate: %d hot-path escapes match %s\n", len(current), path)
	return 0, nil
}
