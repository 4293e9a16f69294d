// Package cmat implements dense complex-valued linear algebra used by the
// ROArray estimators and the MUSIC baselines: matrix arithmetic, Householder
// QR, Hermitian eigendecomposition, singular value decomposition, Cholesky
// factorization, and LU-based linear solves.
//
// The package is self-contained (standard library only) and tuned for the
// problem sizes that appear in the paper: steering dictionaries with ~90 rows,
// covariance matrices up to ~32x32, and snapshot blocks of a few dozen
// columns. Matrices are stored row-major.
package cmat

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Matrix is a dense complex matrix with row-major storage.
type Matrix struct {
	rows, cols int
	data       []complex128
}

// New returns a zero-initialized rows x cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("cmat: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]complex128, rows*cols)}
}

// Wrap returns a rows x cols matrix over the row-major storage data, which
// must hold exactly rows*cols entries. Nothing is copied: the matrix and data
// alias. It is returned by value so that a caller pooling its buffers (the
// sparse solvers' workspaces) can re-shape them per use without allocating.
func Wrap(rows, cols int, data []complex128) Matrix {
	if rows < 0 || cols < 0 || len(data) != rows*cols {
		panic(fmt.Sprintf("cmat: Wrap %dx%d over %d entries", rows, cols, len(data)))
	}
	return Matrix{rows: rows, cols: cols, data: data}
}

// Reset re-shapes m to rows x cols with every entry zero, reusing m's
// storage when it is large enough. A zero Matrix is ready to Reset; this is
// how pooled scratch (the fusion SVD's, the estimator's link workspace) is
// re-shaped per use without allocating.
func (m *Matrix) Reset(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("cmat: negative dimensions %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.data) < n {
		m.data = make([]complex128, n)
	} else {
		m.data = m.data[:n]
		clear(m.data)
	}
	m.rows, m.cols = rows, cols
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) complex128 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v complex128) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("cmat: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// RowView returns row i as a slice sharing the matrix's backing storage —
// writes through the view mutate the matrix. It exists for allocation-free
// inner loops (the sparse solvers' iteration kernels).
func (m *Matrix) RowView(i int) []complex128 {
	if i < 0 || i >= m.rows {
		panicRowView(i, m.rows, m.cols)
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// panicRowView keeps the formatting call out of RowView's body so RowView
// stays within the inlining budget — it is called once per row inside the
// solvers' iteration loops.
func panicRowView(i, rows, cols int) {
	panic(fmt.Sprintf("cmat: RowView row %d out of range for %dx%d matrix", i, rows, cols))
}

// Data returns the matrix's backing row-major storage — element (i,j) is
// Data()[i*Cols()+j], and writes mutate the matrix. Like RowView it exists
// for allocation-free hot loops (flat elementwise passes over whole
// matrices); everything else should go through At/Set.
func (m *Matrix) Data() []complex128 { return m.data }

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []complex128 {
	out := make([]complex128, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetCol copies v into column j.
func (m *Matrix) SetCol(j int, v []complex128) {
	if len(v) != m.rows {
		panic(fmt.Sprintf("cmat: SetCol length %d != rows %d", len(v), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = v[i]
	}
}

// H returns the conjugate (Hermitian) transpose of m.
func (m *Matrix) H() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = cmplx.Conj(m.data[i*m.cols+j])
		}
	}
	return t
}

// Sub returns a - b.
func Sub(a, b *Matrix) *Matrix {
	mustSameShape("Sub", a, b)
	out := New(a.rows, a.cols)
	for i := range a.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out
}

// Scale returns s * m.
func Scale(s complex128, m *Matrix) *Matrix {
	out := New(m.rows, m.cols)
	for i := range m.data {
		out.data[i] = s * m.data[i]
	}
	return out
}

func mustSameShape(op string, a, b *Matrix) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("cmat: %s shape mismatch %dx%d vs %dx%d", op, a.rows, a.cols, b.rows, b.cols))
	}
}

// Mul returns the matrix product a*b.
func Mul(a, b *Matrix) *Matrix {
	if a.cols != b.rows {
		panic(fmt.Sprintf("cmat: Mul shape mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.rows, b.cols)
	// ikj loop order keeps the inner loop contiguous over b and out.
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k := 0; k < a.cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j := range brow {
				orow[j] += aik * brow[j]
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m*v.
func (m *Matrix) MulVec(v []complex128) []complex128 {
	if len(v) != m.cols {
		panic(fmt.Sprintf("cmat: MulVec length %d != cols %d", len(v), m.cols))
	}
	out := make([]complex128, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s complex128
		for j, x := range row {
			s += x * v[j]
		}
		out[i] = s
	}
	return out
}

// MulVecH returns mᴴ * v without forming the Hermitian transpose.
func (m *Matrix) MulVecH(v []complex128) []complex128 {
	if len(v) != m.rows {
		panic(fmt.Sprintf("cmat: MulVecH length %d != rows %d", len(v), m.rows))
	}
	out := make([]complex128, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		vi := v[i]
		if vi == 0 {
			continue
		}
		for j, x := range row {
			out[j] += cmplx.Conj(x) * vi
		}
	}
	return out
}

// MulH returns aᴴ * b without forming the Hermitian transpose of a.
func MulH(a, b *Matrix) *Matrix {
	out := new(Matrix)
	MulHInto(a, b, out)
	return out
}

// MulHInto computes out = aᴴ * b, re-shaping out (see Reset) and reusing its
// storage. out must not alias a or b.
func MulHInto(a, b, out *Matrix) {
	if a.rows != b.rows {
		panic(fmt.Sprintf("cmat: MulH shape mismatch (%dx%d)ᴴ * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out.Reset(a.cols, b.cols)
	for k := 0; k < a.rows; k++ {
		arow := a.data[k*a.cols : (k+1)*a.cols]
		brow := b.data[k*b.cols : (k+1)*b.cols]
		for i, av := range arow {
			c := cmplx.Conj(av)
			if c == 0 {
				continue
			}
			orow := out.data[i*out.cols : (i+1)*out.cols]
			for j, bv := range brow {
				orow[j] += c * bv
			}
		}
	}
}

// FrobNorm returns the Frobenius norm of m.
func (m *Matrix) FrobNorm() float64 {
	var s float64
	for _, v := range m.data {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest element magnitude in m.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := cmplx.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// IsHermitian reports whether m equals its conjugate transpose within tol.
func (m *Matrix) IsHermitian(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i; j < m.cols; j++ {
			if cmplx.Abs(m.At(i, j)-cmplx.Conj(m.At(j, i))) > tol {
				return false
			}
		}
	}
	return true
}

// EqualApprox reports whether a and b have identical shapes and all elements
// agree within tol.
func EqualApprox(a, b *Matrix, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if cmplx.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders a compact human-readable view, for debugging and tests.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cmat.Matrix %dx%d\n", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			v := m.At(i, j)
			fmt.Fprintf(&b, " (%+.3f%+.3fi)", real(v), imag(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
