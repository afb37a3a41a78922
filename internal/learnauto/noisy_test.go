package learnauto

import (
	"math"
	"math/rand"
	"testing"

	"greednet/internal/alloc"
	"greednet/internal/utility"
)

func TestAutomataConvergeUnderNoise(t *testing.T) {
	// The automata only ever see noisy payoffs in practice; with zero-mean
	// observation noise they must still concentrate near the Nash rate.
	n := 2
	gamma := 0.25
	us := utility.Identical(utility.NewLinear(1, gamma), n)
	base := AnalyticPayoff(alloc.FairShare{}, us)
	noise := rand.New(rand.NewSource(11))
	payoff := func(r []float64, i int) float64 {
		v := base(r, i)
		if math.IsInf(v, 0) {
			return v
		}
		return v + 0.02*noise.NormFloat64()
	}
	res := Run(payoff, n, Options{Seed: 12, Rounds: 16000, LearnRate: 0.03})
	want := (1 - math.Sqrt(gamma)) / float64(n)
	gridStep := res.Grid[1] - res.Grid[0]
	for i, m := range res.Modal {
		if math.Abs(m-want) > 2*gridStep {
			t.Errorf("noisy automaton %d modal %v, want ≈%v", i, m, want)
		}
	}
}

func TestAutomataMeanTracksModal(t *testing.T) {
	us := utility.Identical(utility.NewLinear(1, 0.25), 2)
	res := Run(AnalyticPayoff(alloc.FairShare{}, us), 2, Options{Seed: 13, Rounds: 12000})
	means := mean(res)
	for i := range means {
		if math.Abs(means[i]-res.Modal[i]) > 0.1 {
			t.Errorf("automaton %d mean %v far from modal %v", i, means[i], res.Modal[i])
		}
	}
}
