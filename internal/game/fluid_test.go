package game

import (
	"context"
	"math"
	"testing"

	"greednet/internal/alloc"
	"greednet/internal/core"
	"greednet/internal/utility"
)

func fluidFixture(t *testing.T, n int) ClassGame {
	t.Helper()
	if n%2 != 0 {
		t.Fatalf("fixture wants even n, got %d", n)
	}
	// Dyadic rates: 0.5/n is exact for power-of-two n, so ŷ = n·rate
	// reproduces 0.5 bit for bit at every n — the N-invariance lever.
	cg, err := NewClassGame([]Class{
		{U: utility.NewLinear(1, 0.5), Rate: 0.5 / float64(n), Count: n / 2},
		{U: utility.NewLinear(1, 1.5), Rate: 0.5 / float64(n), Count: n / 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cg
}

// TestFluidMatchesClassLargeN pins the heavy-traffic claim: the scaled
// finite-N equilibrium N·r_j approaches the fluid ŷ_j as N grows, for
// both supported disciplines.
func TestFluidMatchesClassLargeN(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		a    core.Allocation
	}{
		{"fair-share", alloc.FairShare{}},
		{"proportional", alloc.Proportional{}},
	} {
		n := 1 << 14
		cg := fluidFixture(t, n)
		fres, err := SolveNashFluid(ctx, tc.a, cg, NashOptions{})
		if err != nil {
			t.Fatalf("%s: fluid: %v", tc.name, err)
		}
		if !fres.Converged {
			t.Fatalf("%s: fluid did not converge", tc.name)
		}
		// Tol must clear the per-user rate scale (~1e-5 at this N) but
		// stay above the golden-section BR jitter (BR.Tol = 1e-10).
		// Damping tempers the proportional whole-class overshoot cycle
		// (see propSymBR); it is harmless for fair share.
		copt := NashOptions{Tol: 1e-9, Damping: 0.5, MaxIter: 2000}
		cres, err := SolveNashClassWS(ctx, nil, tc.a, cg, nil, copt)
		if err != nil {
			t.Fatalf("%s: class: %v", tc.name, err)
		}
		if !cres.Converged {
			t.Fatalf("%s: class solve did not converge", tc.name)
		}
		for j := range cg.Classes {
			scaled := float64(n) * cres.R[j]
			if fres.Y[j] < 1e-3 {
				// A class at its zero corner: both solvers bottom out at
				// their Lo bounds, which differ in scale (per-user vs ŷ).
				if scaled > 1e-3 {
					t.Errorf("%s: class %d scaled rate %.6f but fluid is at its zero corner", tc.name, j, scaled)
				}
				continue
			}
			if rel := math.Abs(scaled-fres.Y[j]) / fres.Y[j]; rel > 0.02 {
				t.Errorf("%s: class %d scaled rate %.6f vs fluid %.6f (rel %.3g)",
					tc.name, j, scaled, fres.Y[j], rel)
			}
		}
	}
}

// TestFluidNInvariance pins the defining property of the fluid solve:
// with fractions and scaled volumes fixed, the answer is bit-identical
// at every N.
func TestFluidNInvariance(t *testing.T) {
	ctx := context.Background()
	a, err := SolveNashFluid(ctx, alloc.FairShare{}, fluidFixture(t, 1024), NashOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveNashFluid(ctx, alloc.FairShare{}, fluidFixture(t, 1<<20), NashOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Y {
		if math.Float64bits(a.Y[j]) != math.Float64bits(b.Y[j]) {
			t.Errorf("Y[%d] differs across N: %x vs %x", j, a.Y[j], b.Y[j])
		}
		if math.Float64bits(a.Chat[j]) != math.Float64bits(b.Chat[j]) {
			t.Errorf("Chat[%d] differs across N: %x vs %x", j, a.Chat[j], b.Chat[j])
		}
	}
	if a.Iters != b.Iters || a.Converged != b.Converged {
		t.Errorf("trajectory differs across N: (%d, %v) vs (%d, %v)", a.Iters, a.Converged, b.Iters, b.Converged)
	}
}

// TestFluidRejectsUnsupported pins the guardrails: non-linear utilities
// and disciplines without a fluid limit fail typed.
func TestFluidRejectsUnsupported(t *testing.T) {
	ctx := context.Background()
	logGame, err := NewClassGame([]Class{
		{U: utility.Log{W: 0.3, Gamma: 1}, Rate: 0.001, Count: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveNashFluid(ctx, alloc.FairShare{}, logGame, NashOptions{}); err != ErrFluidUtility {
		t.Fatalf("log utility: got %v, want ErrFluidUtility", err)
	}
	cg := fluidFixture(t, 8)
	if _, err := SolveNashFluid(ctx, alloc.Square{}, cg, NashOptions{}); err != ErrFluidAlloc {
		t.Fatalf("square: got %v, want ErrFluidAlloc", err)
	}
}
