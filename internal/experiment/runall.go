package experiment

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"greednet/internal/core"
	"greednet/internal/parallel"
)

// Outcome pairs an experiment with its run result.
type Outcome struct {
	// Experiment is the registry entry that ran.
	Experiment Experiment
	// Verdict is the paper-vs-measured comparison (zero when Err != nil).
	Verdict Verdict
	// Err is the run's error, if any; a failed experiment does not stop
	// the rest of the suite.  Watchdog and cancellation failures carry
	// core.ErrDeadline / core.ErrCanceled; contained panics carry a
	// *PanicError.
	Err error
}

// PanicError wraps a panic contained by the suite driver so a panicking
// experiment degrades into a FAILED(panic) block instead of taking down
// the process (and every sibling experiment's output with it).
type PanicError struct {
	// Value is the recovered panic value, stringified.
	Value string
}

// Error implements error.
func (p *PanicError) Error() string { return "experiment panicked: " + p.Value }

// SuiteError aggregates a suite run's failed or mismatched experiments
// into one error, so CLI drivers can exit non-zero off a single check.
// Write errors and infrastructure failures are NOT SuiteErrors; callers
// distinguish them with errors.As.
type SuiteError struct {
	// Failures lists "ID: description" entries in registry order —
	// deterministic whatever the worker count.
	Failures []string
}

// Error implements error.
func (e *SuiteError) Error() string {
	return fmt.Sprintf("experiment: %d failed: %s", len(e.Failures), strings.Join(e.Failures, "; "))
}

// RunSuite executes the given experiments, fanning the runs across a
// worker pool.  Each experiment renders into its own buffer and the
// buffers are flushed to w in the given order, so the combined output is
// byte-identical for every worker count.  workers is how many
// experiments run at once (≤ 0 means runtime.GOMAXPROCS(0); 1 runs them
// one at a time on the calling goroutine).  Independently of it, an
// experiment with independent simulations (E14, E15, E18, E19) spreads
// them over GOMAXPROCS and renders them in a fixed order, so its bytes
// do not depend on GOMAXPROCS either.
//
// Panics are always contained: a panicking experiment renders a
// FAILED(panic) block in its slot and the rest of the suite completes.
// With opt.Timeout > 0 each experiment additionally runs under a
// watchdog; one that exceeds it is abandoned and renders a deterministic
// FAILED(deadline) block, leaving every other slot byte-identical to an
// untimed run.  With opt.Ctx set, the suite stops claiming experiments
// once the context fires and never-started slots render FAILED(canceled).
//
// The returned outcomes are in the same order as es.  The error is the
// first failure writing to w if any; otherwise a *SuiteError aggregating
// every failed or verdict-mismatched experiment; otherwise nil.
func RunSuite(w io.Writer, es []Experiment, opt Options, workers int) ([]Outcome, error) {
	bufs := make([]bytes.Buffer, len(es))
	out := make([]Outcome, len(es))
	started := make([]bool, len(es))
	suiteCtx := opt.Context()
	// The pool's own error channel is unused: per-experiment failures are
	// rendered into their slots, and suite-level cancellation is re-read
	// from the context below.
	_ = parallel.MapOrderedCtx(suiteCtx, workers, len(es), func(i int) error {
		started[i] = true
		out[i] = runGuarded(&bufs[i], es[i], opt, suiteCtx)
		return nil
	})
	for i := range bufs {
		if !started[i] {
			// Never claimed: the suite context fired first.
			err := core.CtxErr(suiteCtx)
			if err == nil {
				err = core.ErrCanceled
			}
			renderFailed(&bufs[i], es[i], reasonOf(err), "suite canceled before this experiment started")
			out[i] = Outcome{Experiment: es[i], Err: err}
		}
		if _, err := w.Write(bufs[i].Bytes()); err != nil {
			return out, err
		}
	}
	return out, suiteErr(out)
}

// RunAll runs the full registry in presentation order; see RunSuite.
func RunAll(w io.Writer, opt Options, workers int) ([]Outcome, error) {
	return RunSuite(w, All(), opt, workers)
}

// runGuarded runs one experiment with panic containment and, when
// opt.Timeout > 0, a wall-clock watchdog.  Failure modes render a
// canonical FAILED block into buf; partial output from a failed run is
// discarded (it would vary with where the run died, breaking the
// byte-determinism contract for the surviving slots' siblings).
func runGuarded(buf *bytes.Buffer, e Experiment, opt Options, suiteCtx context.Context) Outcome {
	if opt.Timeout <= 0 {
		// No watchdog: run on the calling goroutine, containment only.
		scratch := &bytes.Buffer{}
		o := runContained(scratch, e, opt)
		adoptOrFail(buf, scratch, e, opt, o)
		return o
	}
	ctx, cancel := context.WithTimeout(suiteCtx, opt.Timeout)
	defer cancel()
	optCtx := opt
	optCtx.Ctx = ctx
	// The runner goroutine owns scratch exclusively.  If the watchdog
	// fires we abandon both: a leaked cooperative experiment stops at its
	// next ctx poll, and scratch is never read after abandonment, so
	// there is no data race and no nondeterministic partial output.
	scratch := &bytes.Buffer{}
	done := make(chan Outcome, 1)
	//lint:fanout watchdog runs one experiment so the select below can abandon it at the deadline; done is buffered so the leaked runner never blocks
	go func() {
		done <- runContained(scratch, e, optCtx)
	}()
	select {
	case o := <-done:
		adoptOrFail(buf, scratch, e, opt, o)
		return o
	case <-ctx.Done():
		// Prefer a result that raced the deadline in: its bytes are real.
		select {
		case o := <-done:
			adoptOrFail(buf, scratch, e, opt, o)
			return o
		default:
		}
		err := core.CtxErr(ctx)
		renderFailed(buf, e, reasonOf(err), failDetail(err, opt))
		return Outcome{Experiment: e, Err: err}
	}
}

// runContained invokes the experiment with panic containment.
func runContained(w io.Writer, e Experiment, opt Options) (o Outcome) {
	o.Experiment = e
	defer func() {
		if r := recover(); r != nil {
			o.Verdict = Verdict{}
			o.Err = &PanicError{Value: fmt.Sprint(r)}
		}
	}()
	o.Verdict, o.Err = e.Run(w, opt)
	return o
}

// adoptOrFail moves a completed run's bytes into its slot, unless the run
// failed in a degradation mode (cooperative timeout/cancellation, or a
// contained panic) — those discard the partial output and render the same
// canonical FAILED block the abandonment path produces, so cooperative
// and abandoned failures are byte-identical.
func adoptOrFail(buf, scratch *bytes.Buffer, e Experiment, opt Options, o Outcome) {
	var pe *PanicError
	switch {
	case o.Err != nil && errors.As(o.Err, &pe):
		renderFailed(buf, e, "panic", pe.Value)
	case o.Err != nil && (errors.Is(o.Err, core.ErrDeadline) || errors.Is(o.Err, core.ErrCanceled)):
		renderFailed(buf, e, reasonOf(o.Err), failDetail(o.Err, opt))
	default:
		// Ordinary completion — including ordinary errors, whose partial
		// tables are deterministic and worth keeping.
		buf.Write(scratch.Bytes())
	}
}

// reasonOf maps a context-flavored error to its FAILED tag.
func reasonOf(err error) string {
	if errors.Is(err, core.ErrDeadline) {
		return "deadline"
	}
	return "canceled"
}

// failDetail renders the deterministic one-line explanation for a
// context-flavored failure.  It depends only on the configuration, never
// on elapsed wall-clock, so FAILED blocks are byte-stable across runs.
func failDetail(err error, opt Options) string {
	if errors.Is(err, core.ErrDeadline) && opt.Timeout > 0 {
		return fmt.Sprintf("exceeded the %v watchdog", opt.Timeout)
	}
	return err.Error()
}

// renderFailed writes the canonical failure block: the experiment's usual
// banner, one FAILED line, and the blank separator every experiment ends
// with — so a failed slot is the same shape as a healthy one.
func renderFailed(buf *bytes.Buffer, e Experiment, reason, detail string) {
	buf.Reset()
	fmt.Fprintf(buf, "== %s (%s): %s ==\n", e.ID, e.Source, e.Title)
	fmt.Fprintf(buf, "FAILED(%s): %s\n\n", reason, detail)
}

// suiteErr aggregates outcome failures into a *SuiteError (nil when the
// whole suite matched).
func suiteErr(out []Outcome) error {
	var fails []string
	for _, o := range out {
		switch {
		case o.Err != nil:
			var pe *PanicError
			if errors.As(o.Err, &pe) {
				fails = append(fails, o.Experiment.ID+": FAILED(panic)")
			} else if errors.Is(o.Err, core.ErrDeadline) {
				fails = append(fails, o.Experiment.ID+": FAILED(deadline)")
			} else if errors.Is(o.Err, core.ErrCanceled) {
				fails = append(fails, o.Experiment.ID+": FAILED(canceled)")
			} else {
				fails = append(fails, o.Experiment.ID+": "+o.Err.Error())
			}
		case !o.Verdict.Match:
			fails = append(fails, o.Experiment.ID+": verdict MISMATCH")
		}
	}
	if len(fails) == 0 {
		return nil
	}
	return &SuiteError{Failures: fails}
}
