package game

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"greednet/internal/alloc"
	"greednet/internal/core"
	"greednet/internal/mm1"
	"greednet/internal/utility"
)

func TestMaximizeGridNonUnimodal(t *testing.T) {
	// Two humps; the taller one is at x = 7.
	f := objectiveFunc(func(x float64) float64 {
		return math.Exp(-(x-2)*(x-2)) + 2*math.Exp(-(x-7)*(x-7))
	})
	x, _ := maximize(f, 0, 10, 50, 1e-10)
	if math.Abs(x-7) > 1e-3 {
		t.Errorf("argmax %v, want ≈7", x)
	}
}

func TestMaximizeGridInfPlateau(t *testing.T) {
	// −Inf outside [0, 0.5], maximum at 0.3: the shape best-response
	// searches encounter at domain boundaries.
	f := objectiveFunc(func(x float64) float64 {
		if x > 0.5 {
			return math.Inf(-1)
		}
		return -(x - 0.3) * (x - 0.3)
	})
	x, _ := maximize(f, 0, 1, 64, 1e-10)
	if math.Abs(x-0.3) > 1e-6 {
		t.Errorf("argmax %v, want 0.3", x)
	}
}

func TestMaximizeGridEndpointMax(t *testing.T) {
	f := objectiveFunc(func(x float64) float64 { return x })
	x, _ := maximize(f, 0, 1, 16, 1e-10)
	if math.Abs(x-1) > 1e-6 {
		t.Errorf("argmax %v, want 1", x)
	}
}

// TestMaximizeNarrowFiniteInterval pins the −Inf refinement fallback: the
// payoff is finite only on [0, 0.004], narrower than one 1/64 grid cell,
// so both golden probes of the best cell land on −Inf and the bracket
// walks to the cell's right edge.  The search must return the grid's
// finite best point, not that infeasible edge.
func TestMaximizeNarrowFiniteInterval(t *testing.T) {
	f := objectiveFunc(func(x float64) float64 {
		if x > 0.004 {
			return math.Inf(-1)
		}
		return -(x - 0.002) * (x - 0.002)
	})
	x, fx := maximize(f, 0, 1, 64, 1e-10)
	if math.IsInf(fx, -1) || x > 0.004 {
		t.Fatalf("maximize returned (%v, %v), outside the finite interval [0, 0.004]", x, fx)
	}
	if !sameBits(fx, f(x)) {
		t.Errorf("reported payoff %v is not f(%v) = %v", fx, x, f(x))
	}
}

// pollProfile is the N-user four-spec population of the service
// benchmarks: specs round-robin, rates uniform in [0.2, 0.95)/N.
func pollProfile(n int, seed int64) (core.Profile, []core.Rate, []Class) {
	specs := []core.Utility{
		utility.Linear{A: 1, Gamma: 4},
		utility.Linear{A: 1, Gamma: 2},
		utility.Log{W: 2, Gamma: 1},
		utility.Sqrt{W: 1, Gamma: 2},
	}
	rng := rand.New(rand.NewSource(seed))
	us := make(core.Profile, n)
	r := make([]core.Rate, n)
	for i := range us {
		us[i] = specs[i%len(specs)]
		r[i] = (0.2 + 0.75*rng.Float64()) / float64(n)
	}
	classes := make([]Class, len(specs))
	for j, u := range specs {
		classes[j] = Class{U: u, Rate: 0.5 / float64(n), Count: n / len(specs)}
	}
	return us, r, classes
}

// TestSolveNashLargeNStaysFeasible is the regression test for best
// responses walking out of the feasible region: at N = 512 each user's
// feasible interval is narrower than one grid cell, and the search used
// to return the cell's infeasible right edge — a "converged" profile
// with Σr = N/64 and every congestion +Inf.  The solve must land on a
// feasible point (Σc = g(Σr), finite congestions) that no user can
// improve on, matching the class solve of the same four-class game.
func TestSolveNashLargeNStaysFeasible(t *testing.T) {
	const n = 512
	us, r0, classes := pollProfile(n, 1)
	opt := NashOptions{MaxIter: 200, Tol: 1e-6}
	res, err := SolveNashWS(context.Background(), nil, alloc.FairShare{}, us, r0, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d rounds", res.Iters)
	}
	// CheckFeasible requires Σr < 1 and finite congestions, then checks
	// Σc = g(Σr) and every subset constraint.
	if rep := mm1.CheckFeasible(res.R, res.C, 1e-8); !rep.Feasible {
		t.Fatalf("infeasible solve: Σr = %v, report %+v", mm1.Sum(res.R), rep)
	}
	if res.MaxGain > 1e-9 {
		t.Errorf("MaxGain %g, want ≈ 0", res.MaxGain)
	}

	cg, err := NewClassGame(classes)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := SolveNashClassWS(context.Background(), nil, alloc.FairShare{}, cg, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !cres.Converged {
		t.Fatalf("class solve did not converge in %d rounds", cres.Iters)
	}
	for i, u := range us {
		j := -1
		for k, c := range cg.Classes {
			if UtilitySpec(c.U) == UtilitySpec(u) {
				j = k
			}
		}
		if d := math.Abs(res.R[i] - cres.R[j]); d > 1e-6 {
			t.Errorf("user %d (%s): rate %v vs class %v", i, UtilitySpec(u), res.R[i], cres.R[j])
		}
	}
}
