package experiment

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"greednet/internal/core"
)

// TestWatchdogGoldenByteIdentity is the acceptance check for the
// watchdog: a suite containing a hanging chaos experiment, run under a
// timeout, must render a deterministic FAILED(deadline) block in the
// hanging slot while every OTHER experiment's output stays byte-identical
// to a run with no timeout at all.
func TestWatchdogGoldenByteIdentity(t *testing.T) {
	healthy := All()[:3]
	timeout := 300 * time.Millisecond
	opt := Options{Fast: true}

	// Reference: the healthy experiments with no watchdog.
	var refBufs []string
	for _, e := range healthy {
		var b bytes.Buffer
		if _, err := e.Run(&b, opt); err != nil {
			t.Fatalf("reference %s: %v", e.ID, err)
		}
		refBufs = append(refBufs, b.String())
	}

	es := append(append([]Experiment{}, healthy...), ChaosHang())
	var out bytes.Buffer
	optT := opt
	optT.Timeout = timeout
	outcomes, err := RunSuite(&out, es, optT, 2)

	var se *SuiteError
	if !errors.As(err, &se) {
		t.Fatalf("want a *SuiteError for the hung slot, got %v", err)
	}
	if len(se.Failures) != 1 || !strings.Contains(se.Failures[0], "EX1: FAILED(deadline)") {
		t.Errorf("SuiteError = %v, want exactly the EX1 deadline failure", se.Failures)
	}
	if len(outcomes) != len(es) {
		t.Fatalf("%d outcomes, want %d", len(outcomes), len(es))
	}
	for i, o := range outcomes[:len(healthy)] {
		if o.Err != nil {
			t.Errorf("healthy %s errored: %v", o.Experiment.ID, o.Err)
		}
		_ = i
	}
	if !errors.Is(outcomes[len(healthy)].Err, core.ErrDeadline) {
		t.Errorf("hung outcome error = %v, want core.ErrDeadline", outcomes[len(healthy)].Err)
	}

	// The combined output must be exactly: every healthy slot's reference
	// bytes, then the canonical FAILED(deadline) block.
	want := strings.Join(refBufs, "")
	hang := ChaosHang()
	want += fmt.Sprintf("== %s (%s): %s ==\nFAILED(deadline): exceeded the %v watchdog\n\n",
		hang.ID, hang.Source, hang.Title, timeout)
	if out.String() != want {
		t.Errorf("suite output diverged from the golden composition (%d vs %d bytes)",
			out.Len(), len(want))
	}

	// And the FAILED block itself must be byte-stable across repeat runs.
	var again bytes.Buffer
	if _, err := RunSuite(&again, []Experiment{ChaosHang()}, optT, 1); err == nil {
		t.Fatal("second hung run should also report a SuiteError")
	}
	wantBlock := fmt.Sprintf("== %s (%s): %s ==\nFAILED(deadline): exceeded the %v watchdog\n\n",
		hang.ID, hang.Source, hang.Title, timeout)
	if again.String() != wantBlock {
		t.Errorf("FAILED block not deterministic:\n%q\nwant\n%q", again.String(), wantBlock)
	}
}

// TestAbandonedSimulationsStop checks that the DES-heavy experiments
// observe the watchdog's context: under a 20 ms watchdog each renders
// FAILED(deadline), and its abandoned runner is gone within 100 ms of
// RunSuite returning.  Every pool joins its tasks before returning, so
// the runner's stack holds the experiment's frames for as long as any of
// its simulations is still running.  Those frames are the Run closure,
// named <constructor>.funcN (behind the test's name when the constructor
// is inlined here).
func TestAbandonedSimulationsStop(t *testing.T) {
	timeout := 20 * time.Millisecond
	for _, tc := range []struct {
		e     Experiment
		frame string
	}{
		{E14ClosedLoop(), ".E14ClosedLoop.func"},
		{E18DKSFairQueueing(), ".E18DKSFairQueueing.func"},
		{E15GeneralService(), ".E15GeneralService.func"},
		{E19Tandem(), ".E19Tandem.func"},
	} {
		var out bytes.Buffer
		outcomes, _ := RunSuite(&out, []Experiment{tc.e}, Options{Timeout: timeout}, 1)
		returned := time.Now()
		want := fmt.Sprintf("== %s (%s): %s ==\nFAILED(deadline): exceeded the %v watchdog\n\n",
			tc.e.ID, tc.e.Source, tc.e.Title, timeout)
		if !errors.Is(outcomes[0].Err, core.ErrDeadline) || out.String() != want {
			t.Errorf("%s: err = %v, output %q; want FAILED(deadline)", tc.e.ID, outcomes[0].Err, out.String())
		}
		for stacksContain(tc.frame) {
			if time.Since(returned) > 100*time.Millisecond {
				t.Errorf("%s: abandoned run still going 100 ms after RunSuite returned", tc.e.ID)
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// stacksContain reports whether any goroutine's stack trace mentions s.
func stacksContain(s string) bool {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Contains(string(buf[:n]), s)
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestPanicContainment proves a panicking experiment renders a
// deterministic FAILED(panic) block and leaves its siblings intact —
// with and without a watchdog armed.
func TestPanicContainment(t *testing.T) {
	for _, timeout := range []time.Duration{0, 2 * time.Second} {
		es := []Experiment{All()[0], ChaosPanic()}
		var healthyRef bytes.Buffer
		if _, err := es[0].Run(&healthyRef, Options{Fast: true}); err != nil {
			t.Fatalf("reference: %v", err)
		}
		var out bytes.Buffer
		outcomes, err := RunSuite(&out, es, Options{Fast: true, Timeout: timeout}, 2)
		var se *SuiteError
		if !errors.As(err, &se) {
			t.Fatalf("timeout=%v: want *SuiteError, got %v", timeout, err)
		}
		var pe *PanicError
		if !errors.As(outcomes[1].Err, &pe) {
			t.Fatalf("timeout=%v: outcome error = %v, want *PanicError", timeout, outcomes[1].Err)
		}
		if !strings.Contains(pe.Value, "index out of range") {
			t.Errorf("timeout=%v: panic value %q lost the runtime message", timeout, pe.Value)
		}
		p := ChaosPanic()
		want := healthyRef.String() + fmt.Sprintf(
			"== %s (%s): %s ==\nFAILED(panic): runtime error: index out of range [3] with length 0\n\n",
			p.ID, p.Source, p.Title)
		if out.String() != want {
			t.Errorf("timeout=%v: output diverged:\n%q\nwant\n%q", timeout, out.String(), want)
		}
	}
}

// TestSuiteCancellation cancels the suite context up front: every slot
// must render FAILED(canceled) and the aggregate error must list them
// all, in registry order.
func TestSuiteCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	es := All()[:3]
	var out bytes.Buffer
	outcomes, err := RunSuite(&out, es, Options{Fast: true, Ctx: ctx}, 2)
	var se *SuiteError
	if !errors.As(err, &se) {
		t.Fatalf("want *SuiteError, got %v", err)
	}
	if len(se.Failures) != len(es) {
		t.Fatalf("%d failures, want %d", len(se.Failures), len(es))
	}
	for i, o := range outcomes {
		if !errors.Is(o.Err, core.ErrCanceled) {
			t.Errorf("slot %d: err = %v, want core.ErrCanceled", i, o.Err)
		}
		if !strings.HasPrefix(se.Failures[i], es[i].ID+":") {
			t.Errorf("failure %d = %q, want registry order (%s first)", i, se.Failures[i], es[i].ID)
		}
	}
	if got := strings.Count(out.String(), "FAILED(canceled)"); got != len(es) {
		t.Errorf("%d FAILED(canceled) blocks, want %d", got, len(es))
	}
}

// TestVerdictMismatchAggregates checks a mismatched verdict (no error)
// still surfaces in the SuiteError, so CLIs exit non-zero on silent
// disagreements with the paper.
func TestVerdictMismatchAggregates(t *testing.T) {
	mismatch := Experiment{ID: "EZ", Source: "test", Title: "always mismatches"}
	mismatch.Run = func(w io.Writer, opt Options) (Verdict, error) {
		return Verdict{Match: false, Note: "deliberate"}, nil
	}
	var out bytes.Buffer
	_, err := RunSuite(&out, []Experiment{mismatch}, Options{}, 1)
	var se *SuiteError
	if !errors.As(err, &se) {
		t.Fatalf("want *SuiteError, got %v", err)
	}
	if len(se.Failures) != 1 || se.Failures[0] != "EZ: verdict MISMATCH" {
		t.Errorf("Failures = %v", se.Failures)
	}
}
