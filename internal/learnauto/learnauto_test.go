package learnauto

import (
	"math"
	"testing"

	"greednet/internal/alloc"
	"greednet/internal/utility"
)

func TestAutomataConvergeFairShare(t *testing.T) {
	// Three identical automata over a Fair Share switch concentrate near
	// the (discretized) Nash rate (1−√γ)/N.
	n := 3
	gamma := 0.25
	us := utility.Identical(utility.NewLinear(1, gamma), n)
	want := (1 - math.Sqrt(gamma)) / float64(n) // 1/6
	res := Run(AnalyticPayoff(alloc.FairShare{}, us), n, Options{
		Seed:   1,
		Rounds: 12000,
	})
	gridStep := res.Grid[1] - res.Grid[0]
	for i, m := range res.Modal {
		if math.Abs(m-want) > 1.5*gridStep {
			t.Errorf("automaton %d modal rate %v, want ≈%v (grid step %v)", i, m, want, gridStep)
		}
	}
}

func TestAutomataConcentrate(t *testing.T) {
	n := 2
	us := utility.Identical(utility.NewLinear(1, 0.25), n)
	res := Run(AnalyticPayoff(alloc.FairShare{}, us), n, Options{Seed: 2, Rounds: 12000})
	for i, mass := range res.ModalMass {
		if mass < 0.5 {
			t.Errorf("automaton %d modal mass %v, want concentration > 0.5", i, mass)
		}
	}
}

func TestProbabilitiesRemainSimplex(t *testing.T) {
	n := 3
	us := utility.Identical(utility.NewLinear(1, 0.3), n)
	res := Run(AnalyticPayoff(alloc.FairShare{}, us), n, Options{Seed: 3, Rounds: 2000})
	for i, p := range res.Probs {
		sum := 0.0
		for _, v := range p {
			if v < -1e-12 || v > 1+1e-12 {
				t.Fatalf("automaton %d has invalid probability %v", i, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("automaton %d distribution sums to %v", i, sum)
		}
	}
}

func TestInfinitePayoffsHandled(t *testing.T) {
	// A payoff function that returns −Inf outside a narrow band must not
	// corrupt the distributions.
	payoff := func(r []float64, i int) float64 {
		if r[i] > 0.3 {
			return math.Inf(-1)
		}
		return -math.Abs(r[i] - 0.2)
	}
	res := Run(payoff, 2, Options{Seed: 4, Rounds: 6000})
	for i, m := range res.Modal {
		if m > 0.3 {
			t.Errorf("automaton %d settled in the −Inf region at %v", i, m)
		}
		if math.Abs(m-0.2) > 0.08 {
			t.Errorf("automaton %d modal %v, want ≈0.2", i, m)
		}
	}
}

// mean returns each user's distribution-mean rate: a smoother summary of
// the automata's final distributions than the mode.
func mean(r Result) []float64 {
	out := make([]float64, len(r.Probs))
	for i, p := range r.Probs {
		for k, v := range p {
			out[i] += v * r.Grid[k]
		}
	}
	return out
}
