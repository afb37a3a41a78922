package numeric

import "math"

// defaultStep picks a central-difference step scaled to the magnitude of x.
func defaultStep(x float64) float64 {
	h := 1e-6 * (math.Abs(x) + 1)
	return h
}

// Derivative estimates f'(x) with a central difference.  Pass h ≤ 0 to use
// a magnitude-scaled default step.
func Derivative(f func(float64) float64, x, h float64) float64 {
	if h <= 0 {
		h = defaultStep(x)
	}
	return (f(x+h) - f(x-h)) / (2 * h)
}

// SecondDerivative estimates f”(x) with a central difference.
func SecondDerivative(f func(float64) float64, x, h float64) float64 {
	if h <= 0 {
		h = 1e-4 * (math.Abs(x) + 1)
	}
	return (f(x+h) - 2*f(x) + f(x-h)) / (h * h)
}

// JacobianFD estimates the Jacobian of a vector field F: R^n → R^m with
// central differences; the result has m rows and n columns.
func JacobianFD(F func([]float64) []float64, x []float64, h float64) *Matrix {
	xx := append([]float64(nil), x...)
	n := len(x)
	var m int
	var jac *Matrix
	for j := 0; j < n; j++ {
		hj := h
		if hj <= 0 {
			hj = defaultStep(x[j])
		}
		orig := xx[j]
		xx[j] = orig + hj
		fp := F(xx)
		xx[j] = orig - hj
		fm := F(xx)
		xx[j] = orig
		if jac == nil {
			m = len(fp)
			jac = NewMatrix(m, n)
		}
		for i := 0; i < m; i++ {
			jac.Set(i, j, (fp[i]-fm[i])/(2*hj))
		}
	}
	if jac == nil {
		return NewMatrix(0, n)
	}
	return jac
}
