package dynamics

import (
	"context"
	"math"
	"testing"

	"greednet/internal/alloc"
	"greednet/internal/core"
	"greednet/internal/utility"
)

// A reused elimination workspace must be stateless across rounds: stepping
// roundEliminateWS with nil scratch (fresh per call) bit-matches the shared
// workspace that GeneralizedHillClimb threads through all its rounds.
func TestGHCSharedWorkspaceBitMatchesStepwiseRounds(t *testing.T) {
	for _, a := range []core.Allocation{alloc.FairShare{}, alloc.Proportional{}} {
		us := utility.Identical(utility.NewLinear(1, 0.25), 3)
		opt := EliminationOptions{Grid: 24, MaxRounds: 8}
		res := GeneralizedHillClimb(a, us, NewBox(3, 1e-6, 1-1e-6), opt)

		b := NewBox(3, 1e-6, 1-1e-6)
		for round := 0; round < res.Rounds; round++ {
			b = roundEliminateWS(nil, a, us, b, opt)
		}
		for i := range b.Lo {
			if math.Float64bits(res.Final.Lo[i]) != math.Float64bits(b.Lo[i]) ||
				math.Float64bits(res.Final.Hi[i]) != math.Float64bits(b.Hi[i]) {
				t.Fatalf("%s user %d: shared-ws box [%v,%v], stepwise [%v,%v]",
					a.Name(), i, res.Final.Lo[i], res.Final.Hi[i], b.Lo[i], b.Hi[i])
			}
		}
	}
}

// The hoisted probe buffers of HillClimbCtx must reproduce the historical
// trajectory: probing with the reused r|ⁱ(r_i±probe) vector is the same
// arithmetic as the fresh core.WithRate copies it replaced.
func TestHillClimbMatchesWithRateProbes(t *testing.T) {
	a := alloc.FairShare{}
	us := utility.Identical(utility.NewLinear(1, 0.3), 3)
	r0 := []core.Rate{0.05, 0.2, 0.12}
	opt := HillClimbOptions{Rounds: 40, Period: []int{1, 2, 3}}
	traj, err := HillClimbCtx(context.Background(), a, us, r0, opt)
	if err != nil {
		t.Fatal(err)
	}

	o := opt.withDefaults(len(r0))
	r := append([]float64(nil), r0...)
	for round := 1; round < len(traj); round++ {
		next := append([]float64(nil), r...)
		for i := range r {
			if round%o.Period[i] != 0 {
				continue
			}
			up := us[i].Value(r[i]+o.Probe, a.CongestionOf(core.WithRate(r, i, r[i]+o.Probe), i))
			dn := us[i].Value(r[i]-o.Probe, a.CongestionOf(core.WithRate(r, i, r[i]-o.Probe), i))
			step := o.Step * (up - dn) / (2 * o.Probe)
			if step > o.Step {
				step = o.Step
			} else if step < -o.Step {
				step = -o.Step
			}
			next[i] = core.Clamp(r[i]+step, o.Lo, o.Hi)
		}
		r = next
		for i := range r {
			if math.Float64bits(traj[round][i]) != math.Float64bits(r[i]) {
				t.Fatalf("round %d user %d: trajectory %v, reference %v", round, i, traj[round][i], r[i])
			}
		}
	}
}

// Warm elimination rounds must not allocate per probe: the round's own
// outputs (the cloned box and the candidate list growth on first use) are
// the only allocations, independent of grid resolution.
func TestRoundEliminateWSAllocsIndependentOfGrid(t *testing.T) {
	us := utility.Identical(utility.NewLinear(1, 0.25), 4)
	b := NewBox(4, 1e-6, 1-1e-6)
	measure := func(grid int) float64 {
		ws := &elimWorkspace{}
		opt := EliminationOptions{Grid: grid}
		roundEliminateWS(ws, alloc.FairShare{}, us, b, opt) // warm
		return testing.AllocsPerRun(20, func() {
			roundEliminateWS(ws, alloc.FairShare{}, us, b, opt)
		})
	}
	coarse, fine := measure(16), measure(256)
	if fine > coarse {
		t.Errorf("allocs grew with grid resolution: %v at grid=16, %v at grid=256", coarse, fine)
	}
}
