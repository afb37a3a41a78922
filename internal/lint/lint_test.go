package lint_test

import (
	"strings"
	"testing"

	"greednet/internal/lint"
	"greednet/internal/lint/linttest"
)

func TestFloatEq(t *testing.T) {
	linttest.Run(t, "testdata/floateq", "fixture/floateq", []*lint.Analyzer{lint.FloatEq})
}

func TestRNGSource(t *testing.T) {
	linttest.Run(t, "testdata/rngsource", "fixture/rngsource", []*lint.Analyzer{lint.RNGSource})
}

func TestRNGSourceExemptsRanddist(t *testing.T) {
	// Under the sanctioned wrapper's import path the same construction
	// pattern produces no findings.
	linttest.Run(t, "testdata/rngsource_randdist", "greednet/internal/randdist",
		[]*lint.Analyzer{lint.RNGSource})
}

func TestPanicFree(t *testing.T) {
	linttest.Run(t, "testdata/panicfree", "fixture/panicfree", []*lint.Analyzer{lint.PanicFree})
}

func TestPanicFreeExemptsMain(t *testing.T) {
	linttest.Run(t, "testdata/panicfree_main", "fixture/panicfree_main",
		[]*lint.Analyzer{lint.PanicFree})
}

func TestErrDrop(t *testing.T) {
	linttest.Run(t, "testdata/errdrop", "fixture/errdrop", []*lint.Analyzer{lint.ErrDrop})
}

func TestFeasGuard(t *testing.T) {
	linttest.Run(t, "testdata/feasguard", "fixture/feasguard", []*lint.Analyzer{lint.FeasGuard})
}

func TestDetOrder(t *testing.T) {
	linttest.Run(t, "testdata/detorder", "fixture/detorder", []*lint.Analyzer{lint.DetOrder})
}

func TestDimCheck(t *testing.T) {
	linttest.Run(t, "testdata/dimcheck", "fixture/dimcheck", []*lint.Analyzer{lint.DimCheck})
}

func TestAllocFree(t *testing.T) {
	linttest.Run(t, "testdata/allocfree", "fixture/allocfree", []*lint.Analyzer{lint.AllocFree})
}

func TestCtxFlow(t *testing.T) {
	linttest.Run(t, "testdata/ctxflow", "fixture/ctxflow", []*lint.Analyzer{lint.CtxFlow})
}

func TestGuardedBy(t *testing.T) {
	linttest.Run(t, "testdata/guardedby", "fixture/guardedby", []*lint.Analyzer{lint.GuardedBy})
}

func TestFanout(t *testing.T) {
	linttest.Run(t, "testdata/fanout", "fixture/fanout", []*lint.Analyzer{lint.Fanout})
}

func TestFanoutExemptsParallel(t *testing.T) {
	// Under the worker pool's import path the same spawns produce no
	// findings: the pool is the sanctioned fan-out mechanism.
	linttest.Run(t, "testdata/fanout_parallel", "greednet/internal/parallel",
		[]*lint.Analyzer{lint.Fanout})
}

func TestStaleAllow(t *testing.T) {
	// Run with floateq only: stale detection applies to allows naming a
	// running analyzer (or no known analyzer at all), while allows for the
	// rest of the suite are left alone.
	linttest.Run(t, "testdata/staleallow", "fixture/staleallow", []*lint.Analyzer{lint.FloatEq})
}

func TestAllRegistersEveryAnalyzer(t *testing.T) {
	names := make(map[string]bool)
	for _, a := range lint.All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q is missing Name, Doc, or Run", a.Name)
		}
		names[a.Name] = true
	}
	want := []string{
		"floateq", "rngsource", "panicfree", "errdrop",
		"feasguard", "detorder", "dimcheck",
		"allocfree", "ctxflow",
		"guardedby", "fanout",
	}
	for _, name := range want {
		if !names[name] {
			t.Errorf("All() does not register %q", name)
		}
	}
	if len(names) != len(want) {
		t.Errorf("All() registers %d analyzers, want %d", len(names), len(want))
	}
}

func TestByName(t *testing.T) {
	as, err := lint.ByName("floateq,errdrop")
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	if len(as) != 2 || as[0].Name != "floateq" || as[1].Name != "errdrop" {
		t.Errorf("ByName returned %v", as)
	}
	if _, err := lint.ByName("nosuch"); err == nil ||
		!strings.Contains(err.Error(), "nosuch") {
		t.Errorf("ByName(nosuch) err = %v, want mention of the bad name", err)
	}
}
