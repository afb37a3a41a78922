package game

import (
	"math"
	"math/rand"

	"greednet/internal/alloc"
	"greednet/internal/core"
	"greednet/internal/mm1"
	"greednet/internal/numeric"
)

// ParetoResidual returns the per-user violation of the Pareto first-
// derivative condition M_i(r_i, c_i) − Z(r) at the point.  For an interior
// allocation, Pareto optimality requires every component to vanish
// (§4.1.1); a nonzero residual certifies inefficiency.
func ParetoResidual(us core.Profile, p core.Point) []float64 {
	z := mm1.Z(p.R)
	out := make([]float64, len(p.R))
	for i := range p.R {
		out[i] = core.MarginalRate(us[i], p.R[i], p.C[i]) - z
	}
	return out
}

// SymmetricParetoRate solves for the common rate r at which the completely
// symmetric allocation (r, ..., r) with equal congestion split g(n·r)/n
// satisfies the Pareto FDC for n users sharing the same utility u:
//
//	M(r, g(n·r)/n) = −g'(n·r)
//
// It returns the rate, the per-user congestion, and whether a solution was
// found in (0, 1/n).
func SymmetricParetoRate(u core.Utility, n int) (r, c float64, ok bool) {
	fn := func(r float64) float64 {
		c := mm1.SymmetricCongestion(n, r)
		return core.MarginalRate(u, r, c) + mm1.GPrime(float64(n)*r) //lint:allow feasguard Brent bracket [1e-9, 1/n-1e-9] keeps n*r < 1 by construction
	}
	lo, hi := 1e-9, 1/float64(n)-1e-9
	flo, fhi := fn(lo), fn(hi)
	if math.IsNaN(flo) || math.IsNaN(fhi) || math.Signbit(flo) == math.Signbit(fhi) {
		return 0, 0, false
	}
	r, err := numeric.Brent(fn, lo, hi, 1e-13)
	if err != nil {
		return 0, 0, false
	}
	return r, mm1.SymmetricCongestion(n, r), true //lint:allow feasguard root returned by Brent lies inside the feasible bracket
}

// DominanceWitness is a feasible allocation that Pareto-dominates a probe
// point, produced by FindDominating.
type DominanceWitness struct {
	Point core.Point
	// Gains holds U_i(witness) − U_i(probe) per user; all ≥ 0 with at
	// least one > 0.
	Gains []float64
}

// FindDominating searches for a feasible allocation that Pareto-dominates
// the point p under profile us.  The search samples rate vectors near p
// (including uniform rescalings) and spans the congestion side of the
// feasible set with Fair-Share/proportional blends and HOL-priority
// allocations, which are all feasible by construction.  A non-nil result is
// a constructive certificate that p is not Pareto optimal; nil is
// inconclusive.
func FindDominating(us core.Profile, p core.Point, rng *rand.Rand, samples int) *DominanceWitness {
	n := len(p.R)
	u0 := p.UtilityValues(us)
	spanning := []core.Allocation{
		alloc.FairShare{},
		alloc.Proportional{},
		alloc.Blend{Theta: 0.5},
		alloc.HOLPriority{Order: alloc.SmallestFirst},
		alloc.HOLPriority{Order: alloc.LargestFirst},
	}
	try := func(r []core.Rate) *DominanceWitness {
		if !mm1.InDomain(r) {
			return nil
		}
		for _, a := range spanning {
			c := a.Congestion(r)
			if !core.IsFiniteVec(c) {
				continue
			}
			gains := make([]float64, n)
			better, strict := true, false
			for i := range r {
				gains[i] = us[i].Value(r[i], c[i]) - u0[i]
				if gains[i] < 0 {
					better = false
					break
				}
				if gains[i] > 1e-12 {
					strict = true
				}
			}
			if better && strict {
				return &DominanceWitness{
					Point: core.Point{R: append([]float64(nil), r...), C: c},
					Gains: gains,
				}
			}
		}
		return nil
	}
	r := make([]float64, n)
	for k := 0; k < samples; k++ {
		switch k % 3 {
		case 0: // Uniform rescaling of the whole vector.
			scale := 0.5 + rng.Float64()
			for i := range r {
				r[i] = p.R[i] * scale
			}
		case 1: // Independent per-user jitter.
			for i := range r {
				r[i] = p.R[i] * (0.7 + 0.6*rng.Float64())
			}
		default: // Pull toward the symmetric average.
			avg := mm1.Sum(p.R) / float64(n)
			t := rng.Float64()
			for i := range r {
				r[i] = (1-t)*p.R[i] + t*avg
			}
		}
		if w := try(r); w != nil {
			return w
		}
	}
	return nil
}
