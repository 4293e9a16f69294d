package cmat

import (
	"fmt"
	"math"
	"math/cmplx"
)

// SVD holds a thin singular value decomposition A = U diag(S) Vᴴ where A is
// m x n, U is m x r, V is n x r and S has the r = min(m, n) singular values
// in descending order.
type SVD struct {
	U *Matrix
	S []float64
	V *Matrix
}

// SVDWork computes thin SVDs via the eigendecomposition of the smaller Gram
// matrix, which is accurate for the well-conditioned, moderate-size problems
// in this repository (snapshot fusion) and avoids a full Golub-Kahan
// implementation. It is reusable working storage: once it has grown to a
// shape, decomposing a matrix up to that shape allocates nothing. The SVD
// that Decompose returns aliases the storage and stays valid until the next
// Decompose. An SVDWork must not be used by two goroutines at once.
type SVDWork struct {
	eig  EigWork
	g    Matrix // the Gram matrix
	at   Matrix // aᴴ, when a is wider than tall
	u, v Matrix
	s    []float64
	cand []complex128 // orthoFill's candidate vector
	svd  SVD
}

// Decompose computes a thin SVD of a into the work's storage.
func (w *SVDWork) Decompose(a *Matrix) (*SVD, error) {
	m, n := a.Rows(), a.Cols()
	if m == 0 || n == 0 {
		return nil, fmt.Errorf("cmat: SVD of empty %dx%d matrix", m, n)
	}
	if m < n {
		// Decompose the Hermitian transpose and swap factors.
		w.at.Reset(n, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				w.at.data[j*m+i] = cmplx.Conj(a.data[i*n+j])
			}
		}
		if _, err := w.Decompose(&w.at); err != nil {
			return nil, err
		}
		w.svd.U, w.svd.V = w.svd.V, w.svd.U
		return &w.svd, nil
	}
	// Eigendecompose AᴴA (n x n).
	MulHInto(a, a, &w.g)
	eig, err := w.eig.Decompose(&w.g)
	if err != nil {
		return nil, fmt.Errorf("svd gram eig: %w", err)
	}
	w.s = grow(w.s, n)
	s, u, v := w.s, &w.u, &w.v
	v.Reset(n, n)
	// Eigenvalues ascend; reverse for descending singular values.
	for k := 0; k < n; k++ {
		lam := eig.Values[n-1-k]
		if lam < 0 {
			lam = 0
		}
		s[k] = math.Sqrt(lam)
		for i := 0; i < n; i++ {
			v.data[i*n+k] = eig.Vectors.data[i*n+n-1-k]
		}
	}
	u.Reset(m, n)
	maxS := s[0]
	for k := 0; k < n; k++ {
		if s[k] > 1e-12*math.Max(maxS, 1) {
			// Column k of U is A v_k / s_k.
			inv := complex(1/s[k], 0)
			for i := 0; i < m; i++ {
				var acc complex128
				for j, x := range a.data[i*n : (i+1)*n] {
					acc += x * v.data[j*n+k]
				}
				u.data[i*n+k] = acc * inv
			}
		} else {
			// Null direction: fill with an orthonormal completion vector.
			w.orthoFill(k)
		}
	}
	w.svd = SVD{U: u, S: s, V: v}
	return &w.svd, nil
}

// orthoFill writes into column k of w.u a unit vector orthogonal to its first
// k columns, by Gram-Schmidt on canonical basis vectors.
func (w *SVDWork) orthoFill(k int) {
	u := &w.u
	m, cols := u.rows, u.cols
	w.cand = grow(w.cand, m)
	cand := w.cand
	for e := 0; e < m; e++ {
		clear(cand)
		cand[e] = 1
		for j := 0; j < k; j++ {
			// proj = <u_j, cand>, then cand -= proj u_j.
			var proj complex128
			for i := range cand {
				proj += cmplx.Conj(u.data[i*cols+j]) * cand[i]
			}
			alpha := -proj
			for i := range cand {
				cand[i] += alpha * u.data[i*cols+j]
			}
		}
		if nrm := Norm2(cand); nrm > 1e-6 {
			inv := complex(1/nrm, 0)
			for i, c := range cand {
				u.data[i*cols+k] = c * inv
			}
			return
		}
	}
	// Unreachable for k < m, but keep a safe fallback.
	for i := 0; i < m; i++ {
		u.data[i*cols+k] = 0
	}
	u.data[k] = 1
}

// TruncateLeftInto writes U_k * diag(S_k), the rank-k compression of A's
// column space used by the l1-SVD multi-snapshot fusion (Malioutov et al.),
// into out, re-shaping it (see Reset) and reusing its storage. k is clamped
// to the available number of singular values.
func (s *SVD) TruncateLeftInto(out *Matrix, k int) {
	if k > len(s.S) {
		k = len(s.S)
	}
	m, uc := s.U.Rows(), s.U.Cols()
	out.Reset(m, k)
	for j := 0; j < k; j++ {
		sj := complex(s.S[j], 0)
		for i := 0; i < m; i++ {
			out.data[i*k+j] = s.U.data[i*uc+j] * sj
		}
	}
}
