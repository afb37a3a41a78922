package game

import (
	"math"

	"greednet/internal/core"
	"greednet/internal/numeric"
)

// ResidualField evaluates the Nash residual E(r) as a vector field, for use
// with finite-difference Jacobians.
func ResidualField(a core.Allocation, us core.Profile) func([]float64) []float64 {
	return func(r []core.Rate) []float64 { return NashResidual(a, us, r) }
}

// RelaxationMatrix builds the paper's §4.2.3 relaxation matrix at r:
//
//	A_ij = δ_ij − (∂E_i/∂r_j) / (∂E_j/∂r_j)
//
// describing the linearized synchronous Newton dynamics E(t+1) = A·E(t).
// The Jacobian of E is computed by central finite differences with step h
// (pass h ≤ 0 for a scaled default).  Points where some ∂E_j/∂r_j vanishes
// yield ±Inf entries; callers should avoid degenerate points.
func RelaxationMatrix(a core.Allocation, us core.Profile, r []core.Rate, h float64) *numeric.Matrix {
	je := numeric.JacobianFD(ResidualField(a, us), r, h)
	n := len(r)
	A := numeric.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := -je.At(i, j) / je.At(j, j)
			if i == j {
				v = 0 // δ_ii − 1 exactly; avoid FD noise on the diagonal.
			}
			A.Set(i, j, v)
		}
	}
	return A
}

// NewtonStep applies one synchronous Newton update of the paper's simple
// hill-climbing dynamics: r_i ← r_i − E_i/(∂E_i/∂r_i).  The derivative is a
// scalar finite difference of E_i in its own coordinate.  Rates are clamped
// to (lo, hi) to keep iterates inside the sampling region.
func NewtonStep(a core.Allocation, us core.Profile, r []core.Rate, lo, hi float64) []float64 {
	n := len(r)
	e := NashResidual(a, us, r)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		f := func(x float64) float64 {
			return NashResidual(a, us, core.WithRate(r, i, x))[i]
		}
		d := numeric.Derivative(f, r[i], 1e-6*(math.Abs(r[i])+1e-3))
		step := 0.0
		if d != 0 && !math.IsNaN(d) && !math.IsInf(d, 0) { //lint:allow floateq division guard: any nonzero derivative is usable
			step = e[i] / d
		}
		out[i] = core.Clamp(r[i]-step, lo, hi)
	}
	return out
}

// NewtonConvergence iterates NewtonStep from r0 and returns the ∞-norm of
// the Nash residual after each step (index 0 is the residual at r0).  For
// Fair Share the relaxation matrix is nilpotent, so in the linear regime
// the residual hits (numerical) zero within N steps (Theorem 7); for
// proportional allocations with enough users it grows.
func NewtonConvergence(a core.Allocation, us core.Profile, r0 []core.Rate, steps int) []float64 {
	r := append([]float64(nil), r0...)
	out := make([]float64, 0, steps+1)
	out = append(out, numeric.VecNormInf(NashResidual(a, us, r)))
	for k := 0; k < steps; k++ {
		r = NewtonStep(a, us, r, 1e-9, 1-1e-9)
		res := numeric.VecNormInf(NashResidual(a, us, r))
		out = append(out, res)
		if math.IsNaN(res) || math.IsInf(res, 0) {
			break
		}
	}
	return out
}
