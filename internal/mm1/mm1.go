// Package mm1 provides the M/M/1 analytics that underpin the feasibility
// structure of the single-switch model in Shenker's "Making Greed Work in
// Networks" (SIGCOMM 1994).
//
// The switch is an exponential server of rate 1 shared by N independent
// Poisson sources with rates r_i > 0.  Any work-conserving (nonstalling)
// service discipline yields per-user average queue lengths c_i satisfying
//
//	Σ c_i = g(Σ r_i),  g(x) = x / (1 − x),
//
// together with the Coffman–Mitrani subset constraints: ordering users so
// that c_i/r_i is increasing, every prefix must satisfy
// Σ_{i≤k} c_i ≥ g(Σ_{i≤k} r_i).  This package implements g and its
// derivatives, the feasibility predicate, and assorted helpers used by the
// allocation functions and the game solvers.
package mm1

import (
	"math"
	"sort"

	"greednet/internal/core"
)

// G is the M/M/1 mean-queue-length function g(x) = x/(1−x).
// For x ≥ 1 (an overloaded server) it returns +Inf; for x < 0 it returns
// the analytic continuation, which callers should treat as out of domain.
func G(x core.Rate) core.Congestion {
	if x >= 1 {
		return math.Inf(1)
	}
	return x / (1 - x)
}

// GPrime is g'(x) = 1/(1−x)², the marginal congestion of total load.
// It returns +Inf for x ≥ 1.
func GPrime(x core.Rate) float64 {
	if x >= 1 {
		return math.Inf(1)
	}
	d := 1 - x
	return 1 / (d * d)
}

// GPrime2 is g”(x) = 2/(1−x)³.  It returns +Inf for x ≥ 1.
func GPrime2(x core.Rate) float64 {
	if x >= 1 {
		return math.Inf(1)
	}
	d := 1 - x
	return 2 / (d * d * d)
}

// Sum returns the total of the vector.
func Sum(r []core.Rate) core.Rate {
	var s core.Rate
	for _, v := range r {
		s += v
	}
	return s
}

// InDomain reports whether the rate vector lies in the natural domain
// D = { r : r_i > 0 and Σ r_i < 1 } of the allocation functions.
func InDomain(r []core.Rate) bool {
	var s core.Rate
	for _, v := range r {
		if v <= 0 || math.IsNaN(v) {
			return false
		}
		s += v
	}
	return s < 1
}

// FeasibilityReport describes how a proposed allocation (r, c) relates to
// the feasible set of work-conserving service disciplines.
type FeasibilityReport struct {
	// TotalResidual is Σc − g(Σr); zero (within tolerance) for any
	// nonstalling discipline, positive for stalling ones.
	TotalResidual float64
	// MinPrefixSlack is the minimum over prefixes k (in increasing c_i/r_i
	// order) of Σ_{i≤k} c_i − g(Σ_{i≤k} r_i).  Nonnegative iff the subset
	// constraints hold; strictly positive for all k < N iff the allocation
	// lies in the interior of the feasible set.
	MinPrefixSlack float64
	// Feasible is true when the equality holds within tol and every subset
	// constraint is satisfied within −tol.
	Feasible bool
	// Interior is true when additionally every proper-prefix slack exceeds
	// +tol (the inequalities are unsaturated).
	Interior bool
}

// CheckFeasible validates the allocation (r, c) against the work-conserving
// feasible set with absolute tolerance tol.  It requires len(r) == len(c)
// and r in D; otherwise Feasible is false.
func CheckFeasible(r []core.Rate, c []core.Congestion, tol float64) FeasibilityReport {
	var rep FeasibilityReport
	rep.MinPrefixSlack = math.Inf(1)
	if len(r) != len(c) || len(r) == 0 || !InDomain(r) {
		rep.TotalResidual = math.NaN()
		return rep
	}
	for _, v := range c {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			rep.TotalResidual = math.NaN()
			return rep
		}
	}
	n := len(r)
	// Order users by increasing c_i/r_i.  The paper notes it suffices to
	// check the prefix constraints in this ordering.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return c[idx[a]]*r[idx[b]] < c[idx[b]]*r[idx[a]]
	})
	sumC, sumR := 0.0, 0.0
	interior := true
	for k := 0; k < n; k++ {
		sumC += c[idx[k]]
		sumR += r[idx[k]]
		slack := sumC - G(sumR)
		if k < n-1 {
			if slack < rep.MinPrefixSlack {
				rep.MinPrefixSlack = slack
			}
			if slack <= tol {
				interior = false
			}
		} else {
			rep.TotalResidual = slack
		}
	}
	if n == 1 {
		rep.MinPrefixSlack = 0
	}
	rep.Feasible = math.Abs(rep.TotalResidual) <= tol && rep.MinPrefixSlack >= -tol
	rep.Interior = rep.Feasible && interior
	return rep
}

// SymmetricCongestion returns the per-user congestion at the completely
// symmetric allocation where each of the n users sends rate r: g(n·r)/n.
func SymmetricCongestion(n int, r core.Rate) core.Congestion {
	if n <= 0 {
		return math.NaN()
	}
	return G(float64(n)*r) / float64(n)
}

// ProtectionBound is the best symmetric out-of-equilibrium guarantee the
// paper defines (Definition 7): the congestion user i would suffer if all n
// users sent her rate, r/(1 − n·r).  For n·r ≥ 1 it is +Inf.
func ProtectionBound(n int, r core.Rate) core.Congestion {
	nr := float64(n) * r
	if nr >= 1 {
		return math.Inf(1)
	}
	return r / (1 - nr)
}

// Z is the Pareto first-derivative quantity Z_i = −1/(1−Σr)² (the ratio of
// constraint partials ∂F/∂r_i ÷ ∂F/∂c_i), identical for every user.
func Z(r []core.Rate) float64 {
	s := Sum(r)
	if s >= 1 {
		return math.Inf(-1)
	}
	d := 1 - s
	return -1 / (d * d)
}
