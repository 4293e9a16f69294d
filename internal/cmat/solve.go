package cmat

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input is not
// Hermitian positive definite.
var ErrNotPositiveDefinite = errors.New("cmat: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of a Hermitian positive
// definite matrix A = L Lᴴ.
type Cholesky struct {
	l *Matrix
}

// CholeskyDecompose factors a Hermitian positive definite matrix.
func CholeskyDecompose(a *Matrix) (*Cholesky, error) {
	n := a.Rows()
	if n != a.Cols() {
		return nil, fmt.Errorf("cmat: Cholesky needs a square matrix, got %dx%d", n, a.Cols())
	}
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * cmplx.Conj(l.At(j, k))
			}
			if i == j {
				d := real(s)
				if d <= 0 || imag(s) > 1e-9*(1+d) {
					return nil, ErrNotPositiveDefinite
				}
				l.Set(i, i, complex(realSqrt(d), 0))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return &Cholesky{l: l}, nil
}

func realSqrt(x float64) float64 {
	if x < 0 {
		return 0
	}
	return math.Sqrt(x)
}

// Solve solves A x = b using the factorization (forward then backward
// substitution).
func (c *Cholesky) Solve(b []complex128) []complex128 {
	n := c.l.Rows()
	if len(b) != n {
		panic(fmt.Sprintf("cmat: Cholesky solve length %d != %d", len(b), n))
	}
	// Forward: L y = b.
	y := make([]complex128, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= c.l.At(i, k) * y[k]
		}
		y[i] = s / c.l.At(i, i)
	}
	// Backward: Lᴴ x = y.
	x := make([]complex128, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= cmplx.Conj(c.l.At(k, i)) * x[k]
		}
		x[i] = s / c.l.At(i, i)
	}
	return x
}

// SolveBatchInto solves A X = B column by column into out, reusing the
// caller's scratch buffers (each at least n long) so iterative solvers can
// run the factorized system every iteration without allocating. Each column
// performs exactly the operation sequence of Solve, so the results are
// bit-identical to per-column Solve calls. B and out must both be n x k; out
// may not alias B.
func (c *Cholesky) SolveBatchInto(b, out *Matrix, fwd, bwd []complex128) {
	n := c.l.Rows()
	if b.rows != n || out.rows != n || b.cols != out.cols {
		panic(fmt.Sprintf("cmat: Cholesky batch solve shapes %dx%d -> %dx%d for order %d",
			b.rows, b.cols, out.rows, out.cols, n))
	}
	if len(fwd) < n || len(bwd) < n {
		panic(fmt.Sprintf("cmat: Cholesky batch scratch %d/%d for order %d", len(fwd), len(bwd), n))
	}
	k := b.cols
	ld := c.l.data
	for j := 0; j < k; j++ {
		// Forward: L y = b.
		for i := 0; i < n; i++ {
			s := b.data[i*k+j]
			lrow := ld[i*n : i*n+i]
			for t, lv := range lrow {
				s -= lv * fwd[t]
			}
			fwd[i] = s / ld[i*n+i]
		}
		// Backward: Lᴴ x = y.
		for i := n - 1; i >= 0; i-- {
			s := fwd[i]
			for t := i + 1; t < n; t++ {
				s -= cmplx.Conj(ld[t*n+i]) * bwd[t]
			}
			bwd[i] = s / ld[i*n+i]
		}
		for i := 0; i < n; i++ {
			out.data[i*k+j] = bwd[i]
		}
	}
}

// LU holds an LU factorization with partial pivoting: P A = L U.
type LU struct {
	lu   *Matrix
	perm []int
	sign int
}

// LUDecompose factors a square matrix with partial pivoting.
func LUDecompose(a *Matrix) (*LU, error) {
	n := a.Rows()
	if n != a.Cols() {
		return nil, fmt.Errorf("cmat: LU needs a square matrix, got %dx%d", n, a.Cols())
	}
	lu := a.Clone()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		// Pivot search.
		p, best := k, cmplx.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := cmplx.Abs(lu.At(i, k)); v > best {
				p, best = i, v
			}
		}
		if best < 1e-300 {
			return nil, ErrRankDeficient
		}
		if p != k {
			swapRows(lu, p, k)
			perm[p], perm[k] = perm[k], perm[p]
			sign = -sign
		}
		piv := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / piv
			lu.Set(i, k, f)
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Set(i, j, lu.At(i, j)-f*lu.At(k, j))
			}
		}
	}
	return &LU{lu: lu, perm: perm, sign: sign}, nil
}

func swapRows(m *Matrix, a, b int) {
	for j := 0; j < m.Cols(); j++ {
		va, vb := m.At(a, j), m.At(b, j)
		m.Set(a, j, vb)
		m.Set(b, j, va)
	}
}

// Solve solves A x = b.
func (f *LU) Solve(b []complex128) ([]complex128, error) {
	n := f.lu.Rows()
	if len(b) != n {
		return nil, fmt.Errorf("cmat: LU solve length %d != %d", len(b), n)
	}
	x := make([]complex128, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.perm[i]]
	}
	// Forward: L y = Pb (unit diagonal).
	for i := 0; i < n; i++ {
		for k := 0; k < i; k++ {
			x[i] -= f.lu.At(i, k) * x[k]
		}
	}
	// Backward: U x = y.
	for i := n - 1; i >= 0; i-- {
		for k := i + 1; k < n; k++ {
			x[i] -= f.lu.At(i, k) * x[k]
		}
		d := f.lu.At(i, i)
		if cmplx.Abs(d) < 1e-300 {
			return nil, ErrRankDeficient
		}
		x[i] /= d
	}
	return x, nil
}

// SolveLinear solves the square system A x = b in one call.
func SolveLinear(a *Matrix, b []complex128) ([]complex128, error) {
	f, err := LUDecompose(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
