package hotpath

import (
	"context"
	"fmt"
	"math"

	"greednet/internal/alloc"
	"greednet/internal/core"
	"greednet/internal/game"
	"greednet/internal/utility"
)

// The class-solver benchmark family behind `greedbench -bench classes`:
// K utility classes carrying N users in total, solved by the O(K)-per-step
// class arithmetic.  The headline configuration — K = 8 classes, N = 10^6
// users — is the regime the per-user solver cannot touch (10^6 inner line
// searches per round); the class solver's cost depends on K alone, so the
// same equilibrium falls out in milliseconds, and BENCH_classes.json pins
// both that ceiling and the warm steady state's zero allocs/op.

// ClassScale is one (K, N) configuration of the class-solver family.
type ClassScale struct {
	// Name is the stable identifier recorded in BENCH_classes.json.
	Name string
	// K is the class count, N the total user count (multiplicity N/K per
	// class).
	K, N int
	// NsCeiling is the ns/op gate ceiling for the class solve at this
	// scale.  Ceilings are set an order of magnitude above a warm
	// measurement on a commodity core: they catch "the solve went
	// accidentally O(N)" — the failure mode that matters — without
	// contending with host-to-host variance.
	NsCeiling float64
	// ExactCompare marks scales small enough to also time the exact
	// per-user solver on the expanded profile, so the artifact carries a
	// measured class-vs-exact speedup instead of a claim.
	ExactCompare bool
}

// ClassScales returns the class-solver benchmark family in emission
// order.
func ClassScales() []ClassScale {
	return []ClassScale{
		{Name: "k8_n64", K: 8, N: 64, NsCeiling: 10e6, ExactCompare: true},
		{Name: "k8_n256", K: 8, N: 256, NsCeiling: 10e6, ExactCompare: true},
		{Name: "k8_n4096", K: 8, N: 4096, NsCeiling: 10e6},
		{Name: "k8_n1e6", K: 8, N: 1_000_000, NsCeiling: 10e6},
		{Name: "k64_n1e6", K: 64, N: 1_000_000, NsCeiling: 100e6},
	}
}

// ClassGameFor builds the family's canonical K-class game over N users:
// linear utilities with K distinct γ spread over [0.2, 0.8] (distinct
// specs keep the classes from merging), every member demanding 0.4/N so
// the start is feasible at total load 0.4 for every scale.
func ClassGameFor(k, n int) (game.ClassGame, error) {
	if k < 1 || n < k || n%k != 0 {
		return game.ClassGame{}, fmt.Errorf("hotpath: class scale needs 1 <= K <= N with K | N, got K=%d N=%d", k, n)
	}
	classes := make([]game.Class, k)
	for j := range classes {
		classes[j] = game.Class{
			U:     utility.NewLinear(1, 0.2+0.6*float64(j)/float64(k)),
			Rate:  0.4 / float64(n),
			Count: n / k,
		}
	}
	return game.NewClassGame(classes)
}

// ClassNashOpts returns the family's solve options.  Tol sits at 1e-9:
// below the per-member rate scale even at N = 10^6 (0.4/N = 4e-7), yet
// above the ≈1e-10 argmax noise of the inner golden-section searches, so
// every scale converges instead of jittering at the tolerance floor.
func ClassNashOpts() game.NashOptions {
	return game.NashOptions{
		Tol:     1e-9,
		Damping: 0.5,
		MaxIter: 2000,
	}
}

// ClassBench owns the warm state for repeated solves of one scale: the
// game, a workspace, and the result destinations, so each Solve is the
// pure steady-state cost the allocation gate measures.
type ClassBench struct {
	cg         game.ClassGame
	ws         *game.Workspace
	r0         []float64
	rdst, cdst []float64
	opt        game.NashOptions
}

// NewClassBench builds the warm harness for a scale and runs one solve
// to materialize every workspace buffer.
func NewClassBench(s ClassScale) (*ClassBench, error) {
	cg, err := ClassGameFor(s.K, s.N)
	if err != nil {
		return nil, err
	}
	k := cg.K()
	cb := &ClassBench{
		cg:   cg,
		ws:   game.NewWorkspace(),
		r0:   cg.Rates(),
		rdst: make([]float64, k),
		cdst: make([]float64, k),
		opt:  ClassNashOpts(),
	}
	res, err := cb.Solve()
	if err != nil {
		return nil, err
	}
	if !res.Converged {
		return nil, fmt.Errorf("hotpath: class scale %s did not converge in %d rounds", s.Name, res.Iters)
	}
	return cb, nil
}

// Solve runs one full class-aggregated Nash solve from the family start.
// With the harness warm this is allocation-free.
func (cb *ClassBench) Solve() (game.NashResult, error) {
	return game.SolveNashClassInto(context.Background(), cb.ws, alloc.FairShare{}, cb.cg, cb.r0, cb.opt, cb.rdst, cb.cdst)
}

// ExactSolve solves the same game with the per-user solver on the
// expanded profile — the baseline the class-vs-exact speedup in
// BENCH_classes.json is measured against.  O(N) per inner step; only
// the ExactCompare scales pay for it.
func (cb *ClassBench) ExactSolve() (game.NashResult, error) {
	us, r0 := cb.cg.Expand()
	return game.SolveNashWS(context.Background(), game.NewWorkspace(), alloc.FairShare{}, us, r0, cb.opt)
}

// fullEval hides alloc.FairShare's concrete type while forwarding its
// core.AllocationInto fast path, so the per-user solver evaluates every
// best-response probe through the full Fair Share congestion vector —
// an oracle that shares no kernel with the class arithmetic it checks.
type fullEval struct{ core.AllocationInto }

// ClassBitEquality verifies the class arithmetic against the exact
// per-user solver at K = N, where bit-equality is the contract: with
// every class multiplicity one the summation-order contract degenerates
// to the per-user expression sequence.  The per-user side runs on
// fullEval, so the check compares the class kernels against full
// evaluations.  It returns nil when every solved rate and congestion,
// the iteration count and the convergence flag match Float64bits for
// Float64bits, and a description of the first mismatch otherwise.
// greedbench's classes layer runs this before timing, so
// BENCH_classes.json never records the speed of a solver that drifted
// off the exact answers.
func ClassBitEquality() error {
	const n = 64
	cg, err := ClassGameFor(n, n)
	if err != nil {
		return err
	}
	opt := ClassNashOpts()
	cres, err := game.SolveNashClassWS(context.Background(), nil, alloc.FairShare{}, cg, nil, opt)
	if err != nil {
		return err
	}
	us, r0 := cg.Expand()
	xres, err := game.SolveNashWS(context.Background(), nil, fullEval{alloc.FairShare{}}, us, r0, opt)
	if err != nil {
		return err
	}
	if cres.Converged != xres.Converged || cres.Iters != xres.Iters {
		return fmt.Errorf("hotpath: K=N=%d converged/iters (%v, %d) vs exact (%v, %d)",
			n, cres.Converged, cres.Iters, xres.Converged, xres.Iters)
	}
	for j := range cg.Classes {
		if math.Float64bits(cres.R[j]) != math.Float64bits(xres.R[j]) {
			return fmt.Errorf("hotpath: K=N=%d class %d rate: class %v, exact %v", n, j, cres.R[j], xres.R[j])
		}
		if math.Float64bits(cres.C[j]) != math.Float64bits(xres.C[j]) {
			return fmt.Errorf("hotpath: K=N=%d class %d congestion: class %v, exact %v", n, j, cres.C[j], xres.C[j])
		}
	}
	return nil
}
