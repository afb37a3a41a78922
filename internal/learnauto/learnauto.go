// Package learnauto implements the distributed learning automata of the
// paper's reference [8] (Friedman & Shenker, "Learning by Distributed
// Automata"): each user maintains a probability distribution over a finite
// set of candidate rates, samples a rate each round, observes only its own
// (possibly noisy) payoff, and nudges the distribution toward actions that
// paid off — the linear reward–inaction (L_R-I) scheme.  No user knows the
// game, the switch, or the other users.  Under the Fair Share discipline
// these automata concentrate on the (discretized) Nash equilibrium.
package learnauto

import (
	"math"
	"math/rand"

	"greednet/internal/core"
	"greednet/internal/randdist"
)

// PayoffFunc returns user i's payoff when the full action profile (actual
// rates) is r.  Implementations may be the analytic allocation or a noisy
// simulation measurement.
type PayoffFunc func(r []core.Rate, i int) float64

// AnalyticPayoff builds a PayoffFunc from an allocation and a profile.
func AnalyticPayoff(a core.Allocation, us core.Profile) PayoffFunc {
	return func(r []core.Rate, i int) float64 {
		return us[i].Value(r[i], a.CongestionOf(r, i))
	}
}

// Options configures the automata run.
type Options struct {
	// Actions is the number of candidate rates per user; default 12.
	Actions int
	// Lo and Hi bound the candidate grid; defaults 0.02 and 0.6.
	Lo, Hi float64
	// LearnRate is the L_R-I reward step in (0, 1); default 0.05.
	LearnRate float64
	// Rounds is the number of play rounds; default 4000.
	Rounds int
	// Seed seeds the action sampling.
	Seed int64
	// Window is the payoff normalization window: rewards are rescaled to
	// [0, 1] using a running min/max estimate; default 200 rounds warmup.
	Window int
}

func (o Options) withDefaults() Options {
	if o.Actions <= 0 {
		o.Actions = 12
	}
	if o.Lo <= 0 {
		o.Lo = 0.02
	}
	if o.Hi <= 0 {
		o.Hi = 0.6
	}
	if o.LearnRate <= 0 || o.LearnRate >= 1 {
		o.LearnRate = 0.05
	}
	if o.Rounds <= 0 {
		o.Rounds = 4000
	}
	if o.Window <= 0 {
		o.Window = 200
	}
	return o
}

// Result reports the automata run.
type Result struct {
	// Grid is the shared candidate-rate grid.
	Grid []float64
	// Probs is each user's final action distribution.
	Probs [][]float64
	// Modal is each user's most probable rate.
	Modal []float64
	// ModalMass is the probability of the modal action per user.
	ModalMass []float64
	// Rounds is the number of rounds played.
	Rounds int
}

// Run plays n automata against each other through the payoff function.
func Run(payoff PayoffFunc, n int, opt Options) Result {
	opt = opt.withDefaults()
	rng := randdist.NewRand(opt.Seed)
	grid := make([]float64, opt.Actions)
	for k := range grid {
		grid[k] = opt.Lo + (opt.Hi-opt.Lo)*float64(k)/float64(opt.Actions-1)
	}
	probs := make([][]float64, n)
	for i := range probs {
		probs[i] = make([]float64, opt.Actions)
		for k := range probs[i] {
			probs[i][k] = 1 / float64(opt.Actions)
		}
	}
	// Reinforcement-comparison normalization: each user tracks an
	// exponential moving baseline of its payoffs and a moving scale of
	// deviations; the reward is the positive excess over the baseline.
	// This is robust to the unbounded negatives congested switches
	// produce, which would crush a min/max normalization.
	baseline := make([]float64, n)
	scale := make([]float64, n)
	init := make([]bool, n)
	const ema = 0.03
	acts := make([]int, n)
	r := make([]float64, n)
	for round := 0; round < opt.Rounds; round++ {
		for i := 0; i < n; i++ {
			acts[i] = sample(rng, probs[i])
			r[i] = grid[acts[i]]
		}
		for i := 0; i < n; i++ {
			u := payoff(r, i)
			if math.IsNaN(u) {
				continue
			}
			if math.IsInf(u, -1) {
				// Catastrophic outcome: treat as far below baseline (no
				// reward, so inaction), but do not poison the statistics.
				continue
			}
			if !init[i] {
				baseline[i] = u
				scale[i] = 1e-9
				init[i] = true
				continue
			}
			dev := math.Abs(u - baseline[i])
			scale[i] += ema * (dev - scale[i])
			excess := u - baseline[i]
			baseline[i] += ema * excess
			if round < opt.Window || excess <= 0 || scale[i] <= 0 {
				continue
			}
			reward := excess / (4 * scale[i])
			if reward > 1 {
				reward = 1
			}
			// L_R-I update: move probability mass toward the played
			// action in proportion to the normalized reward.
			step := opt.LearnRate * reward
			pa := probs[i]
			for k := range pa {
				if k == acts[i] {
					pa[k] += step * (1 - pa[k])
				} else {
					pa[k] -= step * pa[k]
				}
			}
		}
	}
	res := Result{Grid: grid, Probs: probs, Rounds: opt.Rounds}
	res.Modal = make([]float64, n)
	res.ModalMass = make([]float64, n)
	for i := range probs {
		best := 0
		for k := range probs[i] {
			if probs[i][k] > probs[i][best] {
				best = k
			}
		}
		res.Modal[i] = grid[best]
		res.ModalMass[i] = probs[i][best]
	}
	return res
}

// sample draws an index from the distribution p.
func sample(rng *rand.Rand, p []float64) int {
	x := rng.Float64()
	acc := 0.0
	for k, v := range p {
		acc += v
		if x < acc {
			return k
		}
	}
	return len(p) - 1
}
