// Package queue is half of the golden fixture: a stdlib-only module with
// one deliberate violation per dataflow analyzer, so the greedlint
// listing can be diffed byte-for-byte against golden.txt.
//
// The formula helpers live in this file, separate from the call sites in
// queue.go, because feasguard exempts same-file callees.
package queue

import "math"

type Rate = float64

type Congestion = float64

// G is the M/M/1 congestion formula.
func G(x Rate) Congestion {
	if x >= 1 {
		return Congestion(math.Inf(1))
	}
	return Congestion(x / (1 - x))
}

// Sum is the total arrival rate.
func Sum(r []Rate) Rate {
	var s Rate
	for _, v := range r {
		s += v
	}
	return s
}

// InDomain reports whether the rate vector lies in the feasible region.
func InDomain(r []Rate) bool {
	var s Rate
	for _, v := range r {
		if v <= 0 {
			return false
		}
		s += v
	}
	return s < 1
}
