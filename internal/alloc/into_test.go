package alloc

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"greednet/internal/core"
	"greednet/internal/mm1"
)

// legacyFairShareCongestion is the pre-workspace Fair Share evaluation,
// copied verbatim: fresh sort.SliceStable argsort plus fresh output vector
// per call.  The differential tests pin the fast paths bit-for-bit to it.
func legacyFairShareCongestion(r []float64) []float64 {
	n := len(r)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return r[idx[a]] < r[idx[b]] })
	prefix := 0.0
	prevG := 0.0
	c := 0.0
	for k := 1; k <= n; k++ {
		i := idx[k-1]
		xk := float64(n-k+1)*r[i] + prefix
		gk := mm1.G(xk)
		if math.IsInf(gk, 1) {
			for m := k; m <= n; m++ {
				out[idx[m-1]] = math.Inf(1)
			}
			return out
		}
		c += (gk - prevG) / float64(n-k+1)
		out[i] = c
		prevG = gk
		prefix += r[i]
	}
	return out
}

func legacyProportionalCongestion(r []float64) []float64 {
	s := mm1.Sum(r)
	out := make([]float64, len(r))
	if s >= 1 {
		for i := range out {
			out[i] = math.Inf(1)
		}
		return out
	}
	d := 1 - s
	for i, ri := range r {
		out[i] = ri / d
	}
	return out
}

// fuzzRates draws a rate vector exercising ties, near-saturation, and
// outright infeasible regimes — the fast paths must agree everywhere the
// Allocation contract is defined, not just inside D.
func fuzzRates(rng *rand.Rand) []float64 {
	n := 1 + rng.Intn(10)
	r := make([]float64, n)
	scale := []float64{0.3, 0.9, 1.0, 1.7}[rng.Intn(4)]
	for i := range r {
		if rng.Intn(3) == 0 {
			// Quantized: forces exact rate ties across users.
			r[i] = float64(1+rng.Intn(4)) / 16
		} else {
			r[i] = rng.Float64()
		}
		r[i] *= scale / float64(n)
	}
	return r
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func sameBitsVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// The workspace fast paths must be bit-identical to the legacy per-call
// implementations over fuzzed rate vectors, both through a reused warm
// workspace and through the nil-workspace slow-path delegation.
func TestCongestionIntoBitIdenticalToLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ws core.Workspace
	dst := make([]float64, 64)
	for trial := 0; trial <= 3000; trial++ {
		r := fuzzRates(rng)
		if trial == 3000 {
			// A fixed feasible 64-user profile, unsorted, with exact ties.
			r = make([]float64, 64)
			for i := range r {
				r[i] = (0.3 + 0.5*float64(i%7)/7) / 64
			}
		}
		want := legacyFairShareCongestion(r)
		if got := (FairShare{}).Congestion(r); !sameBitsVec(got, want) {
			t.Fatalf("FairShare.Congestion(%v) = %v, want %v", r, got, want)
		}
		if got := (FairShare{}).CongestionInto(&ws, dst[:len(r)], r); !sameBitsVec(got, want) {
			t.Fatalf("FairShare.CongestionInto(%v) = %v, want %v", r, got, want)
		}
		wantP := legacyProportionalCongestion(r)
		if got := (Proportional{}).CongestionInto(&ws, dst[:len(r)], r); !sameBitsVec(got, wantP) {
			t.Fatalf("Proportional.CongestionInto(%v) = %v, want %v", r, got, wantP)
		}
		// Blend: legacy combined the two legacy vectors pointwise.
		theta := rng.Float64()
		b := Blend{Theta: theta}
		wantB := make([]float64, len(r))
		for i := range wantB {
			wantB[i] = theta*want[i] + (1-theta)*wantP[i]
		}
		if got := b.CongestionInto(&ws, dst[:len(r)], r); !sameBitsVec(got, wantB) {
			t.Fatalf("Blend.CongestionInto(%v) = %v, want %v", r, got, wantB)
		}
	}
}

// OwnDerivsInto and the dispatch helpers must agree with their slow-path
// counterparts bit for bit.
func TestIntoDispatchersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var ws core.Workspace
	dst := make([]float64, 16)
	allocs := []core.Allocation{FairShare{}, Proportional{}, Square{}, Blend{Theta: 0.37}}
	for trial := 0; trial < 500; trial++ {
		r := fuzzRates(rng)
		i := rng.Intn(len(r))
		for _, a := range allocs {
			want := a.Congestion(r)
			if got := CongestionInto(a, &ws, dst[:len(r)], r); !sameBitsVec(got, want) {
				t.Fatalf("%s: CongestionInto = %v, want %v", a.Name(), got, want)
			}
			wantOf := a.CongestionOf(r, i)
			if got := CongestionOfInto(a, &ws, dst[:len(r)], r, i); !sameBits(got, wantOf) {
				t.Fatalf("%s: CongestionOfInto = %v, want %v", a.Name(), got, wantOf)
			}
			d1, d2 := OwnDerivs(a, r, i)
			g1, g2 := OwnDerivsInto(a, &ws, r, i)
			if !sameBits(g1, d1) || !sameBits(g2, d2) {
				t.Fatalf("%s: OwnDerivsInto = (%v,%v), want (%v,%v)", a.Name(), g1, g2, d1, d2)
			}
		}
	}
}

// JacobianInto must reproduce Jacobian bit for bit through a reused
// workspace.
func TestJacobianIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var ws core.Workspace
	for trial := 0; trial < 300; trial++ {
		r := fuzzRates(rng)
		n := len(r)
		dst := make([][]float64, n)
		for i := range dst {
			dst[i] = make([]float64, n)
			for j := range dst[i] {
				dst[i][j] = math.NaN() // stale garbage must be overwritten
			}
		}
		want := FairShare{}.Jacobian(r)
		got := FairShare{}.JacobianInto(&ws, dst, r)
		for i := range want {
			if !sameBitsVec(got[i], want[i]) {
				t.Fatalf("row %d: JacobianInto = %v, want %v", i, got[i], want[i])
			}
		}
	}
}

// The allocs/op regression gates: these are the properties BENCH_hotpath
// and CI enforce, pinned here so `go test` alone catches a regression.
func TestCongestionIntoZeroAllocs(t *testing.T) {
	r := []float64{0.11, 0.07, 0.07, 0.23, 0.02, 0.13, 0.05, 0.17}
	dst := make([]float64, len(r))
	var ws core.Workspace
	FairShare{}.CongestionInto(&ws, dst, r) // warm the workspace
	if got := testing.AllocsPerRun(200, func() {
		FairShare{}.CongestionInto(&ws, dst, r)
	}); got != 0 {
		t.Errorf("FairShare.CongestionInto allocs/op = %v, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		Proportional{}.CongestionInto(&ws, dst, r)
	}); got != 0 {
		t.Errorf("Proportional.CongestionInto allocs/op = %v, want 0", got)
	}
	Blend{Theta: 0.5}.CongestionInto(&ws, dst, r)
	if got := testing.AllocsPerRun(200, func() {
		Blend{Theta: 0.5}.CongestionInto(&ws, dst, r)
	}); got != 0 {
		t.Errorf("Blend.CongestionInto allocs/op = %v, want 0", got)
	}
}
