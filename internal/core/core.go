// Package core defines the central model abstractions of the greednet
// library: allocation functions C(r) induced by switch service disciplines,
// utility functions U(r, c) of selfish users, and the vocabulary shared by
// the game solvers, dynamics, mechanisms, and simulators.
//
// The model follows Shenker, "Making Greed Work in Networks" (SIGCOMM '94):
// a single exponential server of rate 1 is shared by N Poisson sources with
// rates r_i; a service discipline determines each user's average queue
// length c_i = C_i(r); each user i holds a private utility U_i(r_i, c_i),
// increasing in r_i and decreasing in c_i, and adjusts r_i selfishly.
package core

import "math"

// Rate is the dimension of a Poisson arrival rate r_i (or a total rate
// Σr), measured in units of the server rate, so the feasibility region is
// Σr < 1.  Congestion is the dimension of an average queue length c_i.
//
// Both are declared as type aliases of float64, not defined types: the
// alias keeps every rate/congestion vector assignment- and
// arithmetic-compatible with the numeric kernels (no conversion copies on
// hot paths, no interface breakage), while go/types materializes the alias
// (types.Alias, default since Go 1.23), so greedlint's dimcheck analyzer
// can still see the declared dimension of every expression and flag
// rate/congestion mixes the compiler cannot.  Convert through float64(x)
// to deliberately erase the dimension, or annotate //lint:allow dimcheck.
type (
	// Rate is a throughput demand on the shared server, Σr < 1 feasible.
	Rate = float64
	// Congestion is an average queue length C_i(r).
	Congestion = float64
)

// Feasible reports whether the rate vector lies inside the M/M/1
// feasibility region: every r_i > 0 (and NaN-free) with Σ r_i < 1.  It is
// the canonical guard the greedlint feasguard analyzer looks for in front
// of unprotected g(x)/congestion evaluations (mm1.InDomain is equivalent
// and also recognized).
func Feasible(r []Rate) bool {
	var s Rate
	for _, v := range r {
		if v <= 0 || math.IsNaN(v) {
			return false
		}
		s += v
	}
	return s < 1
}

// Allocation is an allocation function C: rate vector → congestion vector,
// induced by a (work-conserving, symmetric) switch service discipline.
//
// Implementations must be symmetric (permutation equivariant) and defined on
// all of R⁺ⁿ: outside the natural domain D = {r_i > 0, Σr < 1} the returned
// congestions may be +Inf, as the paper requires for the learning analysis.
type Allocation interface {
	// Name identifies the discipline, e.g. "fair-share" or "proportional".
	Name() string
	// Congestion returns the congestion vector C(r).  The input must not be
	// modified; the output is freshly allocated.
	Congestion(r []Rate) []Congestion
	// CongestionOf returns C_i(r) alone.  It is equivalent to
	// Congestion(r)[i] but may be cheaper.
	CongestionOf(r []Rate, i int) Congestion
}

// OwnDeriver is implemented by allocations that provide analytic first and
// second derivatives of C_i with respect to the user's own rate r_i.
// Solvers fall back to finite differences when unavailable.
type OwnDeriver interface {
	// OwnDerivs returns ∂C_i/∂r_i and ∂²C_i/∂r_i² at r.
	OwnDerivs(r []Rate, i int) (d1, d2 float64)
}

// Jacobianer is implemented by allocations that provide an analytic
// Jacobian ∂C_i/∂r_j.
type Jacobianer interface {
	// Jacobian returns the matrix J with J[i][j] = ∂C_i/∂r_j at r.
	Jacobian(r []Rate) [][]float64
}

// Utility is a user's utility function over (rate, congestion) allocations,
// in the paper's admissible set AU: C², strictly increasing in r, strictly
// decreasing in c, with convex preferences.  Utilities are ordinal — all
// results must be invariant under monotone transformations.
type Utility interface {
	// Value returns U(r, c).  Implementations must map c = +Inf to −Inf
	// (infinite congestion is the worst possible outcome) so that
	// out-of-domain probes made by optimizers are well ordered.
	Value(r Rate, c Congestion) float64
	// Gradient returns (∂U/∂r, ∂U/∂c) with ∂U/∂r > 0 and ∂U/∂c < 0 for
	// finite c.
	Gradient(r Rate, c Congestion) (dr, dc float64)
}

// Profile is one utility per user.
type Profile []Utility

// MarginalRate returns M(r, c) = (∂U/∂r)/(∂U/∂c), the ratio of marginal
// utilities from the paper's first-derivative conditions.  It is negative
// for utilities in AU.
func MarginalRate(u Utility, r Rate, c Congestion) float64 {
	dr, dc := u.Gradient(r, c)
	return dr / dc
}

// Point is an operating point: rates with the congestions some allocation
// assigns to them.
type Point struct {
	R []Rate
	C []Congestion
}

// At evaluates the allocation at r and bundles the result.
func At(a Allocation, r []Rate) Point {
	return Point{R: append([]Rate(nil), r...), C: a.Congestion(r)}
}

// UtilityValues returns each user's utility at the point.
func (p Point) UtilityValues(us Profile) []float64 {
	out := make([]float64, len(p.R))
	for i, u := range us {
		out[i] = u.Value(p.R[i], p.C[i])
	}
	return out
}

// WithRate returns a copy of r with element i replaced by x — the paper's
// r|ⁱx notation.
func WithRate(r []Rate, i int, x Rate) []Rate {
	out := append([]Rate(nil), r...)
	out[i] = x
	return out
}

// Clamp returns x restricted to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// IsFiniteVec reports whether every component is finite.
func IsFiniteVec(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
