package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// FanoutName is the analyzer's registered name (and //lint:allow token).
const FanoutName = "fanout"

// parallelPath is the one package allowed to spawn goroutines freely: its
// order-preserving worker pool is the sanctioned fan-out mechanism, and the
// byte-identical-output contract of the experiment suite rests on every
// other spawn being part of a small audited inventory.
const parallelPath = "greednet/internal/parallel"

// Fanout keeps the goroutine inventory of the tree closed: every go
// statement must live in internal/parallel (the worker pool), carry a
// `//lint:fanout <role> <why>` annotation admitting it to the audited
// inventory (the per-experiment deadline watchdogs are the canonical
// role), or be flagged.  An annotation that whitelists nothing is itself
// flagged, the same janitor rule //lint:allow lives under — dead
// annotations must not outlive their go statements.  Test files are
// exempt: tests may spawn helpers freely.
//
// `go test -race` checks that a spawn's captures are race-free; fanout
// checks that the spawn is *supposed to exist at all*.  The two together
// are what lets the golden tests trust byte-identical output under any
// worker count.
var Fanout = &Analyzer{
	Name: FanoutName,
	Doc: "go statements are only allowed in internal/parallel's worker " +
		"pool or under an audited //lint:fanout <role> <why> annotation; " +
		"stale fanout annotations are flagged too",
	Run: runFanout,
}

// fanoutEntry is one parsed //lint:fanout directive.
type fanoutEntry struct {
	role   string
	reason string
	file   string
	pos    token.Pos
	used   bool
}

func runFanout(pass *Pass) error {
	if pass.Pkg != nil && pass.Pkg.Path() == parallelPath {
		return nil // the sanctioned pool itself
	}
	// Index directives by file and covered line, mirroring //lint:allow: a
	// directive covers its own line, and the following line when it stands
	// alone.
	byLine := make(map[string]map[int][]*fanoutEntry)
	var entries []*fanoutEntry
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, FanoutDirective) {
					continue
				}
				rest := strings.TrimPrefix(text, FanoutDirective)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue
				}
				fields := strings.Fields(rest)
				p := pass.Fset.Position(c.Pos())
				e := &fanoutEntry{file: p.Filename, pos: c.Pos()}
				if len(fields) > 0 {
					e.role = fields[0]
					e.reason = strings.Join(fields[1:], " ")
				}
				if byLine[e.file] == nil {
					byLine[e.file] = make(map[int][]*fanoutEntry)
				}
				byLine[e.file][p.Line] = append(byLine[e.file][p.Line], e)
				if p.Column == 1 || onlyCommentOnLine(pass.Fset, f, c) {
					byLine[e.file][p.Line+1] = append(byLine[e.file][p.Line+1], e)
				}
				entries = append(entries, e)
			}
		}
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			p := pass.Fset.Position(g.Pos())
			var covering *fanoutEntry
			for _, e := range byLine[p.Filename][p.Line] {
				covering = e
				break
			}
			switch {
			case covering == nil:
				pass.Reportf(g.Pos(),
					"go statement outside internal/parallel; route fan-out through the worker pool (parallel.MapOrderedCtx) or, if this spawn belongs in the audited goroutine inventory, annotate it //lint:fanout <role> <why>")
			case covering.role == "" || covering.reason == "":
				covering.used = true
				pass.Reportf(g.Pos(),
					"//lint:fanout needs a role and a justification (e.g. //lint:fanout watchdog abandons a hung experiment); bare annotations are not an audit")
			default:
				covering.used = true
			}
			return true
		})
	}
	// Janitor: a fanout annotation whose go statement is gone has rotted.
	for _, e := range entries {
		if !e.used {
			pass.Reportf(e.pos, "//lint:fanout whitelists no go statement on this line; delete the stale annotation")
		}
	}
	return nil
}
