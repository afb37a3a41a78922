package numeric

import (
	"errors"
	"math"
	"math/cmplx"
	"sort"
)

// Eigenvalues computes all eigenvalues of a real square matrix using
// balancing, elimination to upper Hessenberg form, and the Francis
// double-shift QR iteration.  Complex conjugate pairs are returned as
// complex numbers.  The input matrix is not modified.
func Eigenvalues(a *Matrix) ([]complex128, error) {
	if !a.IsSquare() {
		return nil, errors.New("numeric: Eigenvalues requires a square matrix")
	}
	n := a.Rows()
	if n == 0 {
		return nil, nil
	}
	if n == 1 {
		return []complex128{complex(a.At(0, 0), 0)}, nil
	}
	w := a.Clone()
	balance(w)
	hessenberg(w)
	ev, err := hqr(w)
	if err != nil {
		return nil, err
	}
	// Sort by decreasing magnitude, then by real part for determinism.
	sort.Slice(ev, func(i, j int) bool {
		mi, mj := cmplx.Abs(ev[i]), cmplx.Abs(ev[j])
		if mi != mj { //lint:allow floateq exact tie-break keeps the sort deterministic
			return mi > mj
		}
		if real(ev[i]) != real(ev[j]) { //lint:allow floateq exact tie-break keeps the sort deterministic
			return real(ev[i]) > real(ev[j])
		}
		return imag(ev[i]) > imag(ev[j])
	})
	return ev, nil
}

// SpectralRadius returns max |λ_i| over the eigenvalues of a.
func SpectralRadius(a *Matrix) (float64, error) {
	ev, err := Eigenvalues(a)
	if err != nil {
		return 0, err
	}
	r := 0.0
	for _, l := range ev {
		if m := cmplx.Abs(l); m > r {
			r = m
		}
	}
	return r, nil
}

// balance applies the Osborne/Parlett–Reinsch diagonal similarity scaling
// in-place so that row and column norms are comparable (improves the
// accuracy of the QR iteration).
func balance(a *Matrix) {
	const radix = 2.0
	n := a.Rows()
	sqrdx := radix * radix
	for done := false; !done; {
		done = true
		for i := 0; i < n; i++ {
			r, c := 0.0, 0.0
			for j := 0; j < n; j++ {
				if j != i {
					c += math.Abs(a.At(j, i))
					r += math.Abs(a.At(i, j))
				}
			}
			if c == 0 || r == 0 { //lint:allow floateq balancing skips exactly-zero rows/columns
				continue
			}
			g := r / radix
			f := 1.0
			s := c + r
			for c < g {
				f *= radix
				c *= sqrdx
			}
			g = r * radix
			for c > g {
				f /= radix
				c /= sqrdx
			}
			if (c+r)/f < 0.95*s {
				done = false
				g = 1 / f
				for j := 0; j < n; j++ {
					a.Set(i, j, a.At(i, j)*g)
				}
				for j := 0; j < n; j++ {
					a.Set(j, i, a.At(j, i)*f)
				}
			}
		}
	}
}

// hessenberg reduces a to upper Hessenberg form in-place by Gaussian
// elimination with partial pivoting (similarity transformations).
func hessenberg(a *Matrix) {
	n := a.Rows()
	for m := 1; m < n-1; m++ {
		// Pivot: largest |a[i][m-1]| for i ≥ m.
		x := 0.0
		im := m
		for i := m; i < n; i++ {
			if math.Abs(a.At(i, m-1)) > math.Abs(x) {
				x = a.At(i, m-1)
				im = i
			}
		}
		if im != m {
			for j := m - 1; j < n; j++ {
				t := a.At(im, j)
				a.Set(im, j, a.At(m, j))
				a.Set(m, j, t)
			}
			for i := 0; i < n; i++ {
				t := a.At(i, im)
				a.Set(i, im, a.At(i, m))
				a.Set(i, m, t)
			}
		}
		if x == 0 { //lint:allow floateq elimination skips an exactly-zero pivot column
			continue
		}
		for i := m + 1; i < n; i++ {
			y := a.At(i, m-1)
			if y == 0 { //lint:allow floateq exactly-zero entry needs no elimination
				continue
			}
			y /= x
			a.Set(i, m-1, 0)
			for j := m; j < n; j++ {
				a.Set(i, j, a.At(i, j)-y*a.At(m, j))
			}
			for j := 0; j < n; j++ {
				a.Set(j, m, a.At(j, m)+y*a.At(j, i))
			}
		}
	}
	// Zero the spurious sub-sub-diagonal entries left by elimination.
	for i := 2; i < n; i++ {
		for j := 0; j < i-1; j++ {
			a.Set(i, j, 0)
		}
	}
}

// hqr finds all eigenvalues of an upper Hessenberg matrix by the Francis
// double-shift QR algorithm (after Numerical Recipes' hqr).  The matrix is
// destroyed.
func hqr(a *Matrix) ([]complex128, error) {
	n := a.Rows()
	ev := make([]complex128, 0, n)
	anorm := 0.0
	for i := 0; i < n; i++ {
		for j := max(i-1, 0); j < n; j++ {
			anorm += math.Abs(a.At(i, j))
		}
	}
	if anorm == 0 { //lint:allow floateq the exactly-zero matrix has all-zero eigenvalues
		for i := 0; i < n; i++ {
			ev = append(ev, 0)
		}
		return ev, nil
	}
	nn := n - 1
	t := 0.0
	var x, y, z, w, v, u, s, r, q, p float64
	for nn >= 0 {
		its := 0
		var l int
		for {
			// Look for a single small subdiagonal element.
			for l = nn; l >= 1; l-- {
				s = math.Abs(a.At(l-1, l-1)) + math.Abs(a.At(l, l))
				if s == 0 { //lint:allow floateq scale fallback for an exactly-zero diagonal pair
					s = anorm
				}
				if math.Abs(a.At(l, l-1))+s == s { //lint:allow floateq classic machine-epsilon deflation test (NR hqr)
					a.Set(l, l-1, 0)
					break
				}
			}
			x = a.At(nn, nn)
			if l == nn {
				// One root found.
				ev = append(ev, complex(x+t, 0))
				nn--
				break
			}
			y = a.At(nn-1, nn-1)
			w = a.At(nn, nn-1) * a.At(nn-1, nn)
			if l == nn-1 {
				// Two roots found.
				p = 0.5 * (y - x)
				q = p*p + w
				z = math.Sqrt(math.Abs(q))
				x += t
				if q >= 0 {
					// Real pair.
					if p >= 0 {
						z = p + z
					} else {
						z = p - z
					}
					ev = append(ev, complex(x+z, 0))
					if z != 0 { //lint:allow floateq division guard: any nonzero z is usable
						ev = append(ev, complex(x-w/z, 0))
					} else {
						ev = append(ev, complex(x, 0))
					}
				} else {
					// Complex pair.
					ev = append(ev, complex(x+p, z), complex(x+p, -z))
				}
				nn -= 2
				break
			}
			// No roots yet; continue iteration.
			if its == 60 {
				return nil, errors.New("numeric: too many QR iterations")
			}
			if its == 10 || its == 20 {
				// Exceptional shift.
				t += x
				for i := 0; i <= nn; i++ {
					a.Set(i, i, a.At(i, i)-x)
				}
				s = math.Abs(a.At(nn, nn-1)) + math.Abs(a.At(nn-1, nn-2))
				y = 0.75 * s
				x = y
				w = -0.4375 * s * s
			}
			its++
			// Form shift and look for two consecutive small subdiagonals.
			var m int
			for m = nn - 2; m >= l; m-- {
				z = a.At(m, m)
				r = x - z
				s = y - z
				p = (r*s-w)/a.At(m+1, m) + a.At(m, m+1)
				q = a.At(m+1, m+1) - z - r - s
				r = a.At(m+2, m+1)
				s = math.Abs(p) + math.Abs(q) + math.Abs(r)
				p /= s
				q /= s
				r /= s
				if m == l {
					break
				}
				u = math.Abs(a.At(m, m-1)) * (math.Abs(q) + math.Abs(r))
				v = math.Abs(p) * (math.Abs(a.At(m-1, m-1)) + math.Abs(z) + math.Abs(a.At(m+1, m+1)))
				if u+v == v { //lint:allow floateq classic machine-epsilon smallness test (NR hqr)
					break
				}
			}
			for i := m + 2; i <= nn; i++ {
				a.Set(i, i-2, 0)
				if i != m+2 {
					a.Set(i, i-3, 0)
				}
			}
			// Double QR step on rows l..nn and columns m..nn.
			for k := m; k <= nn-1; k++ {
				if k != m {
					p = a.At(k, k-1)
					q = a.At(k+1, k-1)
					r = 0
					if k != nn-1 {
						r = a.At(k+2, k-1)
					}
					x = math.Abs(p) + math.Abs(q) + math.Abs(r)
					if x != 0 { //lint:allow floateq division guard: any nonzero scale is usable
						p /= x
						q /= x
						r /= x
					}
				}
				s = math.Copysign(math.Sqrt(p*p+q*q+r*r), p)
				if s == 0 { //lint:allow floateq Householder reflector vanishes exactly; skip
					continue
				}
				if k == m {
					if l != m {
						a.Set(k, k-1, -a.At(k, k-1))
					}
				} else {
					a.Set(k, k-1, -s*x)
				}
				p += s
				x = p / s
				y = q / s
				z = r / s
				q /= p
				r /= p
				// Row modification.
				for j := k; j <= nn; j++ {
					p = a.At(k, j) + q*a.At(k+1, j)
					if k != nn-1 {
						p += r * a.At(k+2, j)
						a.Set(k+2, j, a.At(k+2, j)-p*z)
					}
					a.Set(k+1, j, a.At(k+1, j)-p*y)
					a.Set(k, j, a.At(k, j)-p*x)
				}
				// Column modification.
				mmin := nn
				if k+3 < nn {
					mmin = k + 3
				}
				for i := l; i <= mmin; i++ {
					p = x*a.At(i, k) + y*a.At(i, k+1)
					if k != nn-1 {
						p += z * a.At(i, k+2)
						a.Set(i, k+2, a.At(i, k+2)-p*r)
					}
					a.Set(i, k+1, a.At(i, k+1)-p*q)
					a.Set(i, k, a.At(i, k)-p)
				}
			}
		}
	}
	return ev, nil
}

// IsNilpotent reports whether the square matrix a is nilpotent within the
// numeric tolerance tol: a^n must have max-norm ≤ tol·(1+‖a‖∞ⁿ scale).
func IsNilpotent(a *Matrix, tol float64) bool {
	if !a.IsSquare() {
		return false
	}
	n := a.Rows()
	p := a.Clone()
	scale := math.Max(1, a.MaxAbs())
	bound := tol
	for k := 1; k < n; k++ {
		p = p.Mul(a)
		bound *= scale
	}
	return p.MaxAbs() <= bound+tol
}
