package numeric

import (
	"errors"
	"math"
)

// ErrSingular is returned when a linear solve encounters a (numerically)
// singular matrix.
var ErrSingular = errors.New("numeric: singular matrix")

// LU holds an LU factorization with partial pivoting: P·A = L·U.
type LU struct {
	lu    *Matrix
	pivot []int
}

// Factor computes the LU factorization of the square matrix a with partial
// pivoting (Doolittle).  The input is not modified.
func Factor(a *Matrix) (*LU, error) {
	if !a.IsSquare() {
		return nil, errors.New("numeric: Factor requires a square matrix")
	}
	n := a.Rows()
	lu := a.Clone()
	pivot := make([]int, n)
	for k := 0; k < n; k++ {
		// Find pivot.
		p, mx := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > mx {
				p, mx = i, v
			}
		}
		pivot[k] = p
		if mx == 0 { //lint:allow floateq exactly-zero pivot means structurally singular
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				t := lu.At(k, j)
				lu.Set(k, j, lu.At(p, j))
				lu.Set(p, j, t)
			}
		}
		d := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / d
			lu.Set(i, k, m)
			if m == 0 { //lint:allow floateq exactly-zero multiplier needs no elimination
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Set(i, j, lu.At(i, j)-m*lu.At(k, j))
			}
		}
	}
	return &LU{lu: lu, pivot: pivot}, nil
}

// Solve solves A·x = b for the factored A.  b is not modified.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.Rows()
	if len(b) != n {
		return nil, errors.New("numeric: Solve length mismatch")
	}
	x := append([]float64(nil), b...)
	// Apply row permutations.
	for k := 0; k < n; k++ {
		if p := f.pivot[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		d := f.lu.At(i, i)
		if d == 0 { //lint:allow floateq division guard: exactly-zero diagonal means singular
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// Solve solves A·x = b directly (factor + solve).
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
