// Package allocfree exercises the interprocedural zero-alloc analyzer:
// annotated roots, transitive reachability, the guarded-grow exemption,
// the audited allow, boxing, closures, and the unknown-callee default.
package allocfree

import (
	"math"
	"strconv"
)

// HotClean is the contract in its intended shape: guarded grow, in-place
// writes, and an allocation-free transitive callee.
//
//lint:hotpath
func HotClean(dst, rates []float64) []float64 {
	if cap(dst) < len(rates) {
		dst = make([]float64, len(rates)) // guarded grow: exempt
	}
	dst = dst[:len(rates)]
	for i := range rates {
		dst[i] = double(rates[i])
	}
	return dst
}

func double(x float64) float64 { return 2 * x }

// HotMath may call the allocation-free stdlib allowlist.
//
//lint:hotpath
func HotMath(x float64) float64 { return math.Sqrt(x) }

// HotDirect allocates in its own body.
//
//lint:hotpath
func HotDirect(n int) []float64 {
	out := make([]float64, n) // want "allocfree"
	return out
}

// HotTransitive reaches an allocation two hops down.
//
//lint:hotpath
func HotTransitive(xs []float64) float64 { return middle(xs) }

func middle(xs []float64) float64 { return grows(xs) }

func grows(xs []float64) float64 {
	var tmp []float64
	tmp = append(tmp, xs...) // want "allocfree"
	return tmp[0]
}

// ColdAlloc is not reachable from any root: allocating here is fine.
func ColdAlloc(n int) []float64 { return make([]float64, n) }

// Lookalike carries a longer directive that merely starts with the
// hot-path token: it is no root, so its make is fine.
//
//lint:hotpathological
func Lookalike(n int) []float64 { return make([]float64, n) }

// HotClosure captures a local — the closure needs a heap environment.
//
//lint:hotpath
func HotClosure(xs []float64) float64 {
	s := 0.0
	add := func(x float64) { s += x } // want "allocfree"
	for _, x := range xs {
		add(x)
	}
	return s
}

// HotBox boxes a float into an interface word.
//
//lint:hotpath
func HotBox(x float64) interface{} {
	return x // want "allocfree"
}

// HotMap writes a map key, which may grow the table.
//
//lint:hotpath
func HotMap(m map[string]int, k string) {
	m[k] = 1 // want "allocfree"
}

type stepper interface{ step(x float64) float64 }

// HotIface dispatches through an interface: a contract boundary, not an
// edge — the implementation carries its own annotation where it lives.
//
//lint:hotpath
func HotIface(s stepper, x float64) float64 { return s.step(x) }

// HotExternal calls outside the module with no facts available: the
// analyzer must assume the worst.
//
//lint:hotpath
func HotExternal(x float64) string {
	return strconv.FormatFloat(x, 'g', -1, 64) // want "allocfree"
}

// HotAllowed documents an audited cold-path fallback.
//
//lint:hotpath
func HotAllowed(p *float64) *float64 {
	if p == nil {
		p = new(float64) //lint:allow allocfree nil-arg convenience fallback, cold by contract
	}
	return p
}
