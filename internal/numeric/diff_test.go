package numeric

import (
	"math"
	"testing"
)

func TestDerivative(t *testing.T) {
	f := math.Sin
	if d := Derivative(f, 1, 0); math.Abs(d-math.Cos(1)) > 1e-8 {
		t.Errorf("d/dx sin(1) = %v, want cos(1)", d)
	}
}

func TestSecondDerivative(t *testing.T) {
	f := func(x float64) float64 { return x * x * x }
	if d := SecondDerivative(f, 2, 0); math.Abs(d-12) > 1e-4 {
		t.Errorf("f''(2) = %v, want 12", d)
	}
}

func TestJacobianFD(t *testing.T) {
	F := func(x []float64) []float64 {
		return []float64{x[0] * x[1], x[0] + 2*x[1], math.Sin(x[0])}
	}
	j := JacobianFD(F, []float64{1, 2}, 0)
	if j.Rows() != 3 || j.Cols() != 2 {
		t.Fatalf("Jacobian shape %dx%d", j.Rows(), j.Cols())
	}
	want := [][]float64{{2, 1}, {1, 2}, {math.Cos(1), 0}}
	for i := range want {
		for k := range want[i] {
			if math.Abs(j.At(i, k)-want[i][k]) > 1e-6 {
				t.Errorf("J[%d][%d] = %v, want %v", i, k, j.At(i, k), want[i][k])
			}
		}
	}
}
