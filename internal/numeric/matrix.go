package numeric

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major real matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix allocates a zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("numeric: negative matrix dimension") //lint:allow panicfree dimension invariant: negative size is a programmer error (gonum convention)
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// MatrixFromRows builds a matrix from row slices, which must be rectangular.
func MatrixFromRows(rows [][]float64) *Matrix {
	r := len(rows)
	if r == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("numeric: ragged rows") //lint:allow panicfree shape invariant: ragged input is a programmer error (gonum convention)
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("numeric: Mul dimension mismatch %dx%d · %dx%d", m.rows, m.cols, b.rows, b.cols)) //lint:allow panicfree shape invariant: mismatched product dims are a programmer error (gonum convention)
	}
	out := NewMatrix(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 { //lint:allow floateq sparsity fast path skips exactly-zero entries
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			orow := out.data[i*out.cols : (i+1)*out.cols]
			for j, bv := range brow {
				orow[j] += a * bv
			}
		}
	}
	return out
}

// Sub returns m − b.
func (m *Matrix) Sub(b *Matrix) *Matrix {
	m.assertSameShape(b)
	out := m.Clone()
	for i := range out.data {
		out.data[i] -= b.data[i]
	}
	return out
}

// MaxAbs returns the largest absolute entry (the max norm).
func (m *Matrix) MaxAbs() float64 {
	mx := 0.0
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// IsSquare reports whether the matrix is square.
func (m *Matrix) IsSquare() bool { return m.rows == m.cols }

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%10.4g", m.At(i, j))
		}
		b.WriteString("]\n")
	}
	return b.String()
}

func (m *Matrix) assertSameShape(b *Matrix) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("numeric: shape mismatch %dx%d vs %dx%d", m.rows, m.cols, b.rows, b.cols)) //lint:allow panicfree shape invariant: mismatched operand shapes are a programmer error (gonum convention)
	}
}

// VecNormInf returns max |x_i|.
func VecNormInf(x []float64) float64 {
	mx := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// VecSub returns a − b as a new slice.
func VecSub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("numeric: VecSub length mismatch") //lint:allow panicfree shape invariant: mismatched vector lengths are a programmer error (gonum convention)
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// VecDist returns ‖a − b‖∞.
func VecDist(a, b []float64) float64 { return VecNormInf(VecSub(a, b)) }
