package numeric

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
)

func realsOf(ev []complex128) []float64 {
	out := make([]float64, len(ev))
	for i, l := range ev {
		out[i] = real(l)
	}
	sort.Float64s(out)
	return out
}

func TestEigenvaluesDiagonal(t *testing.T) {
	a := MatrixFromRows([][]float64{{3, 0, 0}, {0, -1, 0}, {0, 0, 7}})
	ev, err := Eigenvalues(a)
	if err != nil {
		t.Fatalf("Eigenvalues: %v", err)
	}
	got := realsOf(ev)
	want := []float64{-1, 3, 7}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("eig[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEigenvaluesSymmetric(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := MatrixFromRows([][]float64{{2, 1}, {1, 2}})
	ev, err := Eigenvalues(a)
	if err != nil {
		t.Fatalf("Eigenvalues: %v", err)
	}
	got := realsOf(ev)
	if math.Abs(got[0]-1) > 1e-9 || math.Abs(got[1]-3) > 1e-9 {
		t.Errorf("eigs = %v, want [1 3]", got)
	}
}

func TestEigenvaluesRotation(t *testing.T) {
	// Rotation by 90°: eigenvalues ±i.
	a := MatrixFromRows([][]float64{{0, -1}, {1, 0}})
	ev, err := Eigenvalues(a)
	if err != nil {
		t.Fatalf("Eigenvalues: %v", err)
	}
	for _, l := range ev {
		if math.Abs(cmplx.Abs(l)-1) > 1e-9 || math.Abs(real(l)) > 1e-9 {
			t.Errorf("eigenvalue %v, want ±i", l)
		}
	}
}

func TestEigenvaluesCompanion(t *testing.T) {
	// Companion matrix of p(x) = x³ − 6x² + 11x − 6 = (x−1)(x−2)(x−3).
	a := MatrixFromRows([][]float64{
		{6, -11, 6},
		{1, 0, 0},
		{0, 1, 0},
	})
	ev, err := Eigenvalues(a)
	if err != nil {
		t.Fatalf("Eigenvalues: %v", err)
	}
	got := realsOf(ev)
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Errorf("eig[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEigenvaluesTraceDet(t *testing.T) {
	// Σλ = tr(A) and Πλ = det(A) for random matrices.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(6)
		a := NewMatrix(n, n)
		tr := 0.0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			tr += a.At(i, i)
		}
		ev, err := Eigenvalues(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(ev) != n {
			t.Fatalf("trial %d: got %d eigenvalues, want %d", trial, len(ev), n)
		}
		sum := complex(0, 0)
		prod := complex(1, 0)
		for _, l := range ev {
			sum += l
			prod *= l
		}
		if math.Abs(real(sum)-tr) > 1e-6*(1+math.Abs(tr)) || math.Abs(imag(sum)) > 1e-6 {
			t.Errorf("trial %d: Σλ = %v, trace = %v", trial, sum, tr)
		}
		f, err := Factor(a)
		if err != nil {
			continue
		}
		d := det(f)
		if math.Abs(real(prod)-d) > 1e-5*(1+math.Abs(d)) {
			t.Errorf("trial %d: Πλ = %v, det = %v", trial, prod, d)
		}
	}
}

func TestEigenvaluesJminusI(t *testing.T) {
	// J − I (all-ones minus identity) has eigenvalues N−1 (once) and −1
	// (N−1 times): the structure behind the paper's 1−N instability claim.
	for _, n := range []int{2, 3, 5, 8} {
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					a.Set(i, j, 1)
				}
			}
		}
		ev, err := Eigenvalues(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got := realsOf(ev)
		if math.Abs(got[n-1]-float64(n-1)) > 1e-8 {
			t.Errorf("n=%d: max eig %v, want %d", n, got[n-1], n-1)
		}
		for i := 0; i < n-1; i++ {
			if math.Abs(got[i]+1) > 1e-8 {
				t.Errorf("n=%d: eig %v, want -1", n, got[i])
			}
		}
	}
}

func TestSpectralRadius(t *testing.T) {
	a := MatrixFromRows([][]float64{{0, 2}, {0.5, 0}})
	r, err := SpectralRadius(a)
	if err != nil {
		t.Fatalf("SpectralRadius: %v", err)
	}
	if math.Abs(r-1) > 1e-9 {
		t.Errorf("ρ = %v, want 1", r)
	}
}

func TestIsNilpotent(t *testing.T) {
	n := MatrixFromRows([][]float64{{0, 0, 0}, {5, 0, 0}, {2, -3, 0}})
	if !IsNilpotent(n, 1e-10) {
		t.Error("strictly lower triangular matrix should be nilpotent")
	}
	m := MatrixFromRows([][]float64{{0, 1}, {1, 0}})
	if IsNilpotent(m, 1e-10) {
		t.Error("involution should not be nilpotent")
	}
}

func TestEigenvaluesTrivialSizes(t *testing.T) {
	if ev, err := Eigenvalues(NewMatrix(0, 0)); err != nil || len(ev) != 0 {
		t.Errorf("0×0: %v %v", ev, err)
	}
	ev, err := Eigenvalues(MatrixFromRows([][]float64{{42}}))
	if err != nil || len(ev) != 1 || real(ev[0]) != 42 {
		t.Errorf("1×1: %v %v", ev, err)
	}
}
