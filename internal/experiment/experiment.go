// Package experiment contains the reproduction harness: one runner per
// paper claim (Table 1 and Theorems 1–8, plus the §5 discussion claims),
// each printing the measured table and a paper-vs-measured verdict line.
// cmd/greedbench drives the full suite; EXPERIMENTS.md records the output.
package experiment

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"text/tabwriter"
	"time"
)

// Options tunes a run.
type Options struct {
	// Fast shrinks simulation horizons and search budgets for use in
	// benchmarks and smoke tests.
	Fast bool
	// Seed makes randomized searches reproducible; 0 means the per-
	// experiment default unless SeedSet marks the zero as intentional.
	Seed int64
	// SeedSet marks Seed as explicitly chosen, which makes seed 0
	// pinnable (cmd/greedbench sets it whenever -seed appears on the
	// command line, whatever its value).
	SeedSet bool
	// Timeout, when positive, arms a per-experiment watchdog in RunSuite:
	// an experiment still running after Timeout is abandoned and its slot
	// renders a deterministic FAILED(deadline) block.  Zero (the default)
	// disables the watchdog.
	Timeout time.Duration
	// Ctx, when non-nil, cancels the whole run: the suite driver stops
	// starting experiments once it fires, and cooperative experiments
	// observe it via Context().  Nil means context.Background().
	Ctx context.Context
}

// Context resolves the run's context, never nil.
func (o Options) Context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// SeedOr resolves the run's seed: Seed when pinned (nonzero, or zero
// with SeedSet), otherwise the experiment's default def.
func (o Options) SeedOr(def int64) int64 {
	if o.SeedSet || o.Seed != 0 {
		return o.Seed
	}
	return def
}

// Experiment is one reproducible claim from the paper.
type Experiment struct {
	// ID is the short handle, e.g. "E1".
	ID string
	// Source cites the paper location, e.g. "Table 1" or "Theorem 4".
	Source string
	// Title summarizes the claim.
	Title string
	// Run executes the experiment, writing its table to w.  The returned
	// Verdict reports whether the measured shape matches the paper.
	Run func(w io.Writer, opt Options) (Verdict, error)
}

// Verdict is the outcome of comparing measurement to the paper's claim.
type Verdict struct {
	// Match is true when the measured shape reproduces the paper.
	Match bool
	// Note is a one-line summary of what was checked.
	Note string
}

// All returns the experiment registry in presentation order.
func All() []Experiment {
	return []Experiment{
		E1Table1(),
		E2Efficiency(),
		E3SymmetricPareto(),
		E4Envy(),
		E5Uniqueness(),
		E6Learning(),
		E7Revelation(),
		E8Relaxation(),
		E9Protection(),
		E10FTPTelnet(),
		E11Separable(),
		E12Network(),
		E13FairQueueing(),
		E14ClosedLoop(),
		E15GeneralService(),
		E16Coalition(),
		E17Automata(),
		E18DKSFairQueueing(),
		E19Tandem(),
		E20OnlyFairShare(),
		E21ClassAggregation(),
	}
}

// registryByID is the one-time ID index over All(); constructors run
// once instead of once per lookup.  All() itself still materializes a
// fresh slice per call, so callers remain free to reslice it.
var (
	registryOnce sync.Once
	registryByID map[string]Experiment
)

// ByID returns the experiment with the given ID, or false.
func ByID(id string) (Experiment, bool) {
	registryOnce.Do(func() {
		all := All()
		registryByID = make(map[string]Experiment, len(all))
		for _, e := range all {
			registryByID[e.ID] = e
		}
	})
	e, ok := registryByID[id]
	return e, ok
}

// table wraps a tabwriter with convenience row helpers.  Write errors are
// latched on first occurrence and surfaced by flush, so row stays chainable.
type table struct {
	tw  *tabwriter.Writer
	err error
}

func newTable(w io.Writer) *table {
	return &table{tw: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)}
}

func (t *table) record(_ int, err error) {
	if t.err == nil {
		t.err = err
	}
}

func (t *table) row(cells ...interface{}) {
	for i, c := range cells {
		if i > 0 {
			t.record(fmt.Fprint(t.tw, "\t"))
		}
		switch v := c.(type) {
		case float64:
			t.record(fmt.Fprintf(t.tw, "%s", fnum(v)))
		default:
			t.record(fmt.Fprintf(t.tw, "%v", v))
		}
	}
	t.record(fmt.Fprintln(t.tw))
}

// flush writes the buffered table and reports the first error from any row
// or from the flush itself.
func (t *table) flush() error {
	if err := t.tw.Flush(); t.err == nil {
		t.err = err
	}
	return t.err
}

// fnum renders a float compactly.
func fnum(v float64) string {
	switch {
	case math.IsNaN(v):
		return "nan"
	case math.IsInf(v, 1):
		return "+inf"
	case math.IsInf(v, -1):
		return "-inf"
	case v == 0: //lint:allow floateq exact sentinel: render literal zero as "0"
		return "0"
	case math.Abs(v) >= 1e4 || math.Abs(v) < 1e-4:
		return fmt.Sprintf("%.3e", v)
	default:
		return fmt.Sprintf("%.5g", v)
	}
}

// yesno renders a boolean as a table cell.
func yesno(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// errf builds an experiment error.
func errf(format string, args ...interface{}) error {
	return fmt.Errorf("experiment: "+format, args...)
}

// header prints the experiment banner.
func header(w io.Writer, e Experiment) error {
	_, err := fmt.Fprintf(w, "== %s (%s): %s ==\n", e.ID, e.Source, e.Title)
	return err
}

// verdictLine prints and returns the verdict.
func verdictLine(w io.Writer, match bool, note string) (Verdict, error) {
	status := "MATCH"
	if !match {
		status = "MISMATCH"
	}
	_, err := fmt.Fprintf(w, "verdict: %s — %s\n\n", status, note)
	return Verdict{Match: match, Note: note}, err
}
