package numeric

import (
	"testing"
)

// identity returns the n×n identity matrix.
func identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// mulVec returns m·x.
func mulVec(m *Matrix, x []float64) []float64 {
	out := make([]float64, m.Rows())
	for i := range out {
		for j, v := range x {
			out[i] += m.At(i, j) * v
		}
	}
	return out
}

func TestMatrixMul(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b := MatrixFromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("Mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatrixMulIdentity(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	if d := a.Mul(identity(3)).Sub(a).MaxAbs(); d != 0 {
		t.Errorf("A·I ≠ A, max diff %v", d)
	}
	if d := identity(3).Mul(a).Sub(a).MaxAbs(); d != 0 {
		t.Errorf("I·A ≠ A, max diff %v", d)
	}
}

func TestVecHelpers(t *testing.T) {
	if VecNormInf([]float64{1, -7, 3}) != 7 {
		t.Error("VecNormInf wrong")
	}
	if d := VecDist([]float64{1, 2}, []float64{1, 5}); d != 3 {
		t.Errorf("VecDist = %v, want 3", d)
	}
}

func TestMatrixSub(t *testing.T) {
	a := MatrixFromRows([][]float64{{5, 6}, {7, 9}})
	b := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	c := a.Sub(b)
	want := [][]float64{{4, 4}, {4, 5}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Errorf("Sub[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	if a.At(0, 0) != 5 {
		t.Error("Sub must not modify its receiver")
	}
}

func TestMatrixClone(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Error("Clone must deep-copy")
	}
}
