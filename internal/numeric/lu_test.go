package numeric

import (
	"math"
	"math/rand"
	"testing"
)

func TestSolveKnown(t *testing.T) {
	a := MatrixFromRows([][]float64{{2, 1}, {1, 3}})
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// 2x + y = 5, x + 3y = 10 → x = 1, y = 3.
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("Solve = %v, want [1 3]", x)
	}
}

func TestSolveRandomResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(8)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonally dominant
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		r := mulVec(a, x)
		for i := range r {
			if math.Abs(r[i]-b[i]) > 1e-9 {
				t.Fatalf("trial %d residual[%d] = %v", trial, i, r[i]-b[i])
			}
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Error("Solve should reject a singular matrix")
	}
}

// det is det(A) from A's factorization: the product of U's diagonal,
// negated once per row swap that pivoting recorded.
func det(f *LU) float64 {
	d := 1.0
	for k, p := range f.pivot {
		if p != k {
			d = -d
		}
		d *= f.lu.At(k, k)
	}
	return d
}

func TestDet(t *testing.T) {
	a := MatrixFromRows([][]float64{{4, 3}, {6, 3}})
	f, err := Factor(a)
	if err != nil {
		t.Fatalf("Factor: %v", err)
	}
	if got := det(f); math.Abs(got-(-6)) > 1e-12 {
		t.Errorf("det = %v, want -6", got)
	}
}

func TestDetPermutationSign(t *testing.T) {
	// A matrix that forces a row swap during pivoting.
	a := MatrixFromRows([][]float64{{0, 1}, {1, 0}})
	f, err := Factor(a)
	if err != nil {
		t.Fatalf("Factor: %v", err)
	}
	if got := det(f); math.Abs(got-(-1)) > 1e-12 {
		t.Errorf("det = %v, want -1", got)
	}
}
