package dynamics

import (
	"context"
	"math"
	"testing"

	"greednet/internal/alloc"
	"greednet/internal/core"
	"greednet/internal/game"
	"greednet/internal/numeric"
	"greednet/internal/utility"
)

func TestBoxBasics(t *testing.T) {
	b := NewBox(3, 0.1, 0.5)
	if w := b.Width(); math.Abs(w-0.4) > 1e-15 {
		t.Errorf("Width = %v", w)
	}
	m := b.Mid()
	for _, v := range m {
		if math.Abs(v-0.3) > 1e-15 {
			t.Errorf("Mid = %v", m)
		}
	}
}

func TestGHCConvergesFairShareIdentical(t *testing.T) {
	// Theorem 5(1): all generalized hill climbers converge under FS.
	n := 3
	gamma := 0.25
	us := utility.Identical(utility.NewLinear(1, gamma), n)
	res := GeneralizedHillClimb(alloc.FairShare{}, us, NewBox(n, 1e-6, 1-1e-6),
		EliminationOptions{Tol: 1e-3})
	if !res.Converged {
		t.Fatalf("GHC did not converge: rounds=%d widths=%v stalled=%v",
			res.Rounds, res.Widths, res.Stalled)
	}
	want := (1 - math.Sqrt(gamma)) / float64(n)
	nash := []float64{want, want, want}
	if !res.Final.Contains(nash, 1e-9) {
		t.Errorf("Nash %v escaped the terminal box %+v", nash, res.Final)
	}
	for i, v := range res.Final.Mid() {
		if math.Abs(v-want) > 1e-3 {
			t.Errorf("S∞ mid[%d] = %v, want Nash %v", i, v, want)
		}
	}
}

func TestGHCConvergesFairShareHeterogeneous(t *testing.T) {
	us := core.Profile{
		utility.NewLinear(1, 0.2),
		utility.Log{W: 0.3, Gamma: 1},
		utility.Sqrt{W: 1, Gamma: 2},
	}
	res := GeneralizedHillClimb(alloc.FairShare{}, us, NewBox(3, 1e-6, 1-1e-6), EliminationOptions{})
	// The interval relaxation stalls at a small floor; require the box to
	// have collapsed by more than an order of magnitude and to still
	// contain the Nash equilibrium.
	if w := res.Final.Width(); w > 0.06 {
		t.Fatalf("GHC box still wide (%v): widths=%v", w, res.Widths)
	}
	nash, err := game.SolveNash(alloc.FairShare{}, us, []float64{0.1, 0.1, 0.1}, game.NashOptions{})
	if err != nil || !nash.Converged {
		t.Fatal("nash solve failed")
	}
	if !res.Final.Contains(nash.R, 1e-6) {
		t.Errorf("Nash %v escaped the terminal box %+v", nash.R, res.Final)
	}
	if d := numeric.VecDist(res.Final.Mid(), nash.R); d > res.Final.Width() {
		t.Errorf("S∞ mid %v differs from Nash %v by %v", res.Final.Mid(), nash.R, d)
	}
}

func TestGHCStallsProportional(t *testing.T) {
	// Under FIFO a candidate's guaranteed payoff is −Inf while the box can
	// overload the switch, so elimination cannot begin from the full box.
	n := 3
	us := utility.Identical(utility.NewLinear(1, 0.25), n)
	res := GeneralizedHillClimb(alloc.Proportional{}, us, NewBox(n, 1e-6, 1-1e-6), EliminationOptions{})
	if res.Converged {
		t.Fatalf("proportional GHC should not converge from the full box: %+v", res.Final)
	}
	if !res.Stalled {
		t.Errorf("expected a stall, got rounds=%d widths=%v", res.Rounds, res.Widths)
	}
	if res.Final.Width() < 0.5 {
		t.Errorf("proportional box should remain wide, width=%v", res.Final.Width())
	}
}

func TestRoundEliminateSound(t *testing.T) {
	// The Nash equilibrium always survives elimination rounds under FS.
	n := 2
	gamma := 0.25
	us := utility.Identical(utility.NewLinear(1, gamma), n)
	want := (1 - math.Sqrt(gamma)) / float64(n)
	b := NewBox(n, 1e-6, 1-1e-6)
	for round := 0; round < 30; round++ {
		b = roundEliminateWS(nil, alloc.FairShare{}, us, b, EliminationOptions{})
		for i := 0; i < n; i++ {
			if want < b.Lo[i]-1e-9 || want > b.Hi[i]+1e-9 {
				t.Fatalf("round %d: Nash rate %v eliminated from [%v, %v]",
					round, want, b.Lo[i], b.Hi[i])
			}
		}
	}
}

func TestHillClimbConvergesFairShare(t *testing.T) {
	n := 3
	gamma := 0.25
	us := utility.Identical(utility.NewLinear(1, gamma), n)
	traj, err := HillClimbCtx(context.Background(), alloc.FairShare{}, us, []float64{0.05, 0.2, 0.4}, HillClimbOptions{
		Step:   0.005,
		Rounds: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	final := traj[len(traj)-1]
	want := (1 - math.Sqrt(gamma)) / float64(n)
	for i, v := range final {
		if math.Abs(v-want) > 5e-3 {
			t.Errorf("hill climb final[%d] = %v, want %v", i, v, want)
		}
	}
}

func TestHillClimbHeterogeneousPeriods(t *testing.T) {
	// A slow user mixed with fast users still converges under FS.
	n := 3
	gamma := 0.25
	us := utility.Identical(utility.NewLinear(1, gamma), n)
	traj, err := HillClimbCtx(context.Background(), alloc.FairShare{}, us, []float64{0.3, 0.1, 0.1}, HillClimbOptions{
		Step:   0.005,
		Rounds: 8000,
		Period: []int{7, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	final := traj[len(traj)-1]
	want := (1 - math.Sqrt(gamma)) / float64(n)
	for i, v := range final {
		if math.Abs(v-want) > 5e-3 {
			t.Errorf("final[%d] = %v, want %v", i, v, want)
		}
	}
}

func TestHillClimbTrajectoryShape(t *testing.T) {
	us := utility.Identical(utility.NewLinear(1, 0.3), 2)
	traj, err := HillClimbCtx(context.Background(), alloc.FairShare{}, us, []float64{0.1, 0.1}, HillClimbOptions{Rounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(traj) != 11 {
		t.Fatalf("trajectory length %d, want 11", len(traj))
	}
	if traj[0][0] != 0.1 {
		t.Error("trajectory should include the start")
	}
}
