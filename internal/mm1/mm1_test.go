package mm1

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestG(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0},
		{0.5, 1},
		{0.8, 4},
		{0.9, 9},
	}
	for _, c := range cases {
		if got := G(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("G(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if !math.IsInf(G(1), 1) || !math.IsInf(G(1.5), 1) {
		t.Error("G should be +Inf at and beyond saturation")
	}
}

func TestGDerivativesMatchFD(t *testing.T) {
	for _, x := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		h := 1e-6
		fd1 := (G(x+h) - G(x-h)) / (2 * h)
		if math.Abs(fd1-GPrime(x)) > 1e-4*GPrime(x) {
			t.Errorf("GPrime(%v) = %v, FD %v", x, GPrime(x), fd1)
		}
		fd2 := (GPrime(x+h) - GPrime(x-h)) / (2 * h)
		if math.Abs(fd2-GPrime2(x)) > 1e-4*GPrime2(x) {
			t.Errorf("GPrime2(%v) = %v, FD %v", x, GPrime2(x), fd2)
		}
	}
}

func TestGConvexityProperty(t *testing.T) {
	// g is strictly increasing and strictly convex on [0, 1).
	f := func(a, b uint16) bool {
		x := float64(a) / 65536 * 0.99
		y := float64(b) / 65536 * 0.99
		if x > y {
			x, y = y, x
		}
		if x == y {
			return true
		}
		mid := (x + y) / 2
		return G(x) < G(y) && G(mid) < (G(x)+G(y))/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInDomain(t *testing.T) {
	if !InDomain([]float64{0.2, 0.3}) {
		t.Error("0.5 total should be in domain")
	}
	if InDomain([]float64{0.5, 0.5}) {
		t.Error("total 1 is out of domain")
	}
	if InDomain([]float64{0.2, 0}) {
		t.Error("zero rate is out of domain")
	}
	if InDomain([]float64{-0.1, 0.3}) {
		t.Error("negative rate is out of domain")
	}
	if InDomain([]float64{math.NaN(), 0.1}) {
		t.Error("NaN is out of domain")
	}
}

func TestCheckFeasibleProportional(t *testing.T) {
	// The proportional allocation is feasible and interior.
	r := []float64{0.1, 0.2, 0.3}
	s := Sum(r)
	c := make([]float64, len(r))
	for i := range r {
		c[i] = r[i] / (1 - s)
	}
	rep := CheckFeasible(r, c, 1e-9)
	if !rep.Feasible || !rep.Interior {
		t.Errorf("proportional should be feasible interior: %+v", rep)
	}
}

func TestCheckFeasibleRejectsUndershoot(t *testing.T) {
	// Giving everyone less than the M/M/1 total is infeasible.
	r := []float64{0.2, 0.2}
	c := []float64{0.1, 0.1} // total 0.2 < g(0.4) ≈ 0.667
	rep := CheckFeasible(r, c, 1e-9)
	if rep.Feasible {
		t.Errorf("undershoot should be infeasible: %+v", rep)
	}
}

func TestCheckFeasibleRejectsSubsetViolation(t *testing.T) {
	// Total matches g(s) but one user gets less queue than an isolated
	// M/M/1 at its own rate would have — impossible for work-conserving
	// disciplines.
	r := []float64{0.4, 0.4}
	total := G(0.8) // = 4
	cLow := G(0.4) * 0.5
	c := []float64{cLow, total - cLow}
	rep := CheckFeasible(r, c, 1e-9)
	if rep.Feasible {
		t.Errorf("subset violation should be infeasible: %+v", rep)
	}
}

func TestCheckFeasibleBoundarySaturated(t *testing.T) {
	// Strict priority puts the high-priority user exactly at its isolated
	// M/M/1 queue: feasible but on the boundary, not interior.
	r := []float64{0.3, 0.4}
	c1 := G(0.3)
	c := []float64{c1, G(0.7) - c1}
	rep := CheckFeasible(r, c, 1e-9)
	if !rep.Feasible {
		t.Errorf("priority allocation should be feasible: %+v", rep)
	}
	if rep.Interior {
		t.Errorf("priority allocation should not be interior: %+v", rep)
	}
}

func TestCheckFeasibleDegenerateInputs(t *testing.T) {
	if CheckFeasible(nil, nil, 1e-9).Feasible {
		t.Error("empty input must be infeasible")
	}
	if CheckFeasible([]float64{0.1}, []float64{0.1, 0.2}, 1e-9).Feasible {
		t.Error("length mismatch must be infeasible")
	}
	if CheckFeasible([]float64{0.1}, []float64{math.Inf(1)}, 1e-9).Feasible {
		t.Error("infinite congestion must be infeasible")
	}
}

func TestSymmetricCongestion(t *testing.T) {
	// n users at rate r split g(nr) evenly.
	got := SymmetricCongestion(4, 0.2)
	want := G(0.8) / 4
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("SymmetricCongestion = %v, want %v", got, want)
	}
	if !math.IsNaN(SymmetricCongestion(0, 0.2)) {
		t.Error("n=0 should be NaN")
	}
}

func TestProtectionBound(t *testing.T) {
	if got := ProtectionBound(2, 0.25); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("ProtectionBound = %v, want 0.5", got)
	}
	if !math.IsInf(ProtectionBound(4, 0.25), 1) {
		t.Error("saturated bound should be +Inf")
	}
}

func TestZ(t *testing.T) {
	r := []float64{0.25, 0.25}
	if got := Z(r); math.Abs(got-(-4)) > 1e-12 {
		t.Errorf("Z = %v, want -4", got)
	}
	if !math.IsInf(Z([]float64{0.6, 0.6}), -1) {
		t.Error("overloaded Z should be -Inf")
	}
}

func TestFeasibleRandomConvexCombos(t *testing.T) {
	// Convex combinations of proportional and priority allocations remain
	// feasible (the feasible set is convex in c for fixed r).
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(4)
		r := make([]float64, n)
		total := 0.1 + 0.8*rng.Float64()
		sum := 0.0
		for i := range r {
			r[i] = rng.Float64() + 0.01
			sum += r[i]
		}
		for i := range r {
			r[i] *= total / sum
		}
		// Proportional allocation.
		cp := make([]float64, n)
		for i := range r {
			cp[i] = r[i] / (1 - total)
		}
		// Priority allocation in index order (ascending c/r not required
		// by CheckFeasible, which sorts internally).
		cq := make([]float64, n)
		acc := 0.0
		prev := 0.0
		for i := range r {
			acc += r[i]
			cq[i] = G(acc) - prev
			prev = G(acc)
		}
		lam := rng.Float64()
		c := make([]float64, n)
		for i := range r {
			c[i] = lam*cp[i] + (1-lam)*cq[i]
		}
		if rep := CheckFeasible(r, c, 1e-7); !rep.Feasible {
			t.Fatalf("trial %d: convex combo infeasible: %+v", trial, rep)
		}
	}
}
