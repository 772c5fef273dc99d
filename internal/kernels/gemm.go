// Package kernels provides the functional implementations of the compute
// kernels the ReACH case study accelerates: dense matrix multiplication
// (shortlist retrieval), squared-Euclidean distance and partial top-K
// selection (shortlist retrieval and rerank), plus the convolution op count
// the feature-extraction stage is charged from.
//
// The retrieval kernels run on real data in the simulator's functional
// layer — retrieval results and recall are computed, not faked — while the
// timing layer charges the corresponding modelled op/byte counts to the
// accelerator performance model.
package kernels

import "fmt"

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("kernels: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromRows builds a matrix from row slices (all must share one length).
func FromRows(rows [][]float32) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("kernels: FromRows with empty input")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("kernels: ragged row %d: %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set stores element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a shared slice.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Transpose returns mᵀ as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// GeMM computes C = A × B. Inner loops are ordered i-k-j with a hoisted
// A(i,k) so the innermost loop streams both B and C rows sequentially —
// the same access pattern the tiled FPGA kernel uses.
func GeMM(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("kernels: GeMM shape mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range crow {
				crow[j] += aik * brow[j]
			}
		}
	}
	return c
}
