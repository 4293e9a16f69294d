package cmat

import (
	"errors"
	"fmt"
	"math/cmplx"
)

// ErrRankDeficient is returned when a solve encounters a (numerically)
// singular triangular factor.
var ErrRankDeficient = errors.New("cmat: matrix is rank deficient")

// QRFactors holds a Householder QR factorization of an m x n matrix with
// m >= n: A = Q R with Q (m x m, implicit) unitary and R (n x n) upper
// triangular.
type QRFactors struct {
	m, n int
	// vs holds the Householder vectors, one per column, each of length m-k.
	vs [][]complex128
	// betas holds the scalar 2/||v||^2 per reflector (0 for identity steps).
	betas []float64
	// r is the upper-triangular factor (n x n).
	r *Matrix
}

// QR computes a Householder QR factorization of a. It requires
// a.Rows() >= a.Cols().
func QR(a *Matrix) (*QRFactors, error) {
	m, n := a.Rows(), a.Cols()
	if m < n {
		return nil, fmt.Errorf("cmat: QR needs rows >= cols, got %dx%d", m, n)
	}
	w := a.Clone()
	f := &QRFactors{
		m:     m,
		n:     n,
		vs:    make([][]complex128, n),
		betas: make([]float64, n),
	}
	for k := 0; k < n; k++ {
		// Build the reflector for column k from rows k..m-1.
		x := make([]complex128, m-k)
		for i := k; i < m; i++ {
			x[i-k] = w.At(i, k)
		}
		v, beta, alpha := householder(x)
		f.vs[k] = v
		f.betas[k] = beta
		// Apply the reflector to the trailing block of w.
		if beta != 0 {
			for j := k; j < n; j++ {
				var dot complex128
				for i := k; i < m; i++ {
					dot += cmplx.Conj(v[i-k]) * w.At(i, j)
				}
				scale := complex(beta, 0) * dot
				for i := k; i < m; i++ {
					w.Set(i, j, w.At(i, j)-scale*v[i-k])
				}
			}
		}
		// Reflectors can leave tiny residuals below the diagonal; pin the
		// pivot to the analytically known value.
		w.Set(k, k, alpha)
		for i := k + 1; i < m; i++ {
			w.Set(i, k, 0)
		}
	}
	f.r = New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			f.r.Set(i, j, w.At(i, j))
		}
	}
	return f, nil
}

// householder returns the reflector (v, beta) such that
// (I - beta v vᴴ) x = alpha e1, along with alpha.
func householder(x []complex128) (v []complex128, beta float64, alpha complex128) {
	norm := Norm2(x)
	if norm == 0 {
		v = make([]complex128, len(x))
		v[0] = 1
		return v, 0, 0
	}
	// Choose alpha with phase opposite x[0] so v = x - alpha e1 is large.
	phase := complex(1, 0)
	if x[0] != 0 {
		phase = x[0] / complex(cmplx.Abs(x[0]), 0)
	}
	alpha = -phase * complex(norm, 0)
	v = CloneVec(x)
	v[0] -= alpha
	vn2 := Norm2Sq(v)
	if vn2 == 0 {
		v[0] = 1
		return v, 0, alpha
	}
	return v, 2 / vn2, alpha
}

// QMulH applies Qᴴ to a vector of length m, returning Qᴴ b.
func (f *QRFactors) QMulH(b []complex128) []complex128 {
	if len(b) != f.m {
		panic(fmt.Sprintf("cmat: QMulH length %d != rows %d", len(b), f.m))
	}
	out := CloneVec(b)
	for k := 0; k < f.n; k++ {
		beta, v := f.betas[k], f.vs[k]
		if beta == 0 {
			continue
		}
		var dot complex128
		for i := k; i < f.m; i++ {
			dot += cmplx.Conj(v[i-k]) * out[i]
		}
		scale := complex(beta, 0) * dot
		for i := k; i < f.m; i++ {
			out[i] -= scale * v[i-k]
		}
	}
	return out
}

// SolveLS returns the least-squares solution x of min ||Ax - b||_2 using the
// factorization. b must have length m.
func (f *QRFactors) SolveLS(b []complex128) ([]complex128, error) {
	qtb := f.QMulH(b)
	return backSubstitute(f.r, qtb[:f.n])
}

// backSubstitute solves Rx = y for upper-triangular R.
func backSubstitute(r *Matrix, y []complex128) ([]complex128, error) {
	n := r.Rows()
	x := make([]complex128, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= r.At(i, j) * x[j]
		}
		d := r.At(i, i)
		if cmplx.Abs(d) < 1e-14 {
			return nil, ErrRankDeficient
		}
		x[i] = s / d
	}
	return x, nil
}

// SolveLeastSquares is a convenience wrapper computing the least-squares
// solution of min ||Ax - b|| in a single call.
func SolveLeastSquares(a *Matrix, b []complex128) ([]complex128, error) {
	f, err := QR(a)
	if err != nil {
		return nil, err
	}
	return f.SolveLS(b)
}
