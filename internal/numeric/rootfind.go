// Package numeric is the from-scratch numerical substrate for greednet:
// Brent root finding, finite differences, dense LU solves, and a
// real-matrix eigenvalue solver.  Only the Go standard library is used.
package numeric

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoBracket is returned when a root finder is given an interval whose
// endpoint function values do not straddle zero.
var ErrNoBracket = errors.New("numeric: interval does not bracket a root")

// ErrMaxIter is returned when an iterative method exhausts its iteration
// budget before meeting its tolerance.
var ErrMaxIter = errors.New("numeric: maximum iterations exceeded")

// Brent finds a root of f in the bracketing interval [a, b] using Brent's
// method (inverse quadratic interpolation guarded by bisection).  It
// converges superlinearly for smooth f and never leaves the bracket.
func Brent(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 { //lint:allow floateq exact root at the endpoint needs no iteration
		return a, nil
	}
	if fb == 0 { //lint:allow floateq exact root at the endpoint needs no iteration
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	if math.Abs(fa) < math.Abs(fb) {
		a, b = b, a
		fa, fb = fb, fa
	}
	c, fc := a, fa
	mflag := true
	var d float64
	for i := 0; i < 200; i++ {
		if fb == 0 || math.Abs(b-a) <= tol { //lint:allow floateq exact root terminates Brent's method
			return b, nil
		}
		var s float64
		if fa != fc && fb != fc { //lint:allow floateq guards the inverse-quadratic denominators against exact zero
			// Inverse quadratic interpolation.
			s = a*fb*fc/((fa-fb)*(fa-fc)) +
				b*fa*fc/((fb-fa)*(fb-fc)) +
				c*fa*fb/((fc-fa)*(fc-fb))
		} else {
			// Secant step.
			s = b - fb*(b-a)/(fb-fa)
		}
		lo, hi := (3*a+b)/4, b
		if lo > hi {
			lo, hi = hi, lo
		}
		cond := s < lo || s > hi ||
			(mflag && math.Abs(s-b) >= math.Abs(b-c)/2) ||
			(!mflag && math.Abs(s-b) >= math.Abs(c-d)/2) ||
			(mflag && math.Abs(b-c) < tol) ||
			(!mflag && math.Abs(c-d) < tol)
		if cond {
			s = a + (b-a)/2
			mflag = true
		} else {
			mflag = false
		}
		fs := f(s)
		d = c
		c, fc = b, fb
		if math.Signbit(fa) != math.Signbit(fs) {
			b, fb = s, fs
		} else {
			a, fa = s, fs
		}
		if math.Abs(fa) < math.Abs(fb) {
			a, b = b, a
			fa, fb = fb, fa
		}
	}
	return b, ErrMaxIter
}
