package cmat

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"
)

// Eigen holds the eigendecomposition of a Hermitian matrix: A = V diag(Values) Vᴴ.
// Values are sorted ascending; column i of Vectors is the eigenvector for
// Values[i].
type Eigen struct {
	Values  []float64
	Vectors *Matrix
}

// EigHermitian computes the eigendecomposition of a Hermitian matrix using
// the cyclic complex Jacobi method. The input is not modified. Matrices that
// are not Hermitian within a loose tolerance are rejected.
func EigHermitian(a *Matrix) (*Eigen, error) {
	return new(EigWork).Decompose(a)
}

// EigWork is reusable working storage for EigHermitian: once it has grown to
// a size, decomposing a matrix up to that size allocates nothing. The Eigen
// that Decompose returns aliases the storage and stays valid until the next
// Decompose. An EigWork must not be used by two goroutines at once.
type EigWork struct {
	w, v   Matrix // the rotated matrix and the accumulated rotations
	vecs   Matrix
	values []float64
	pairs  []eigPair
	eig    Eigen
}

// eigPair is one diagonal entry of the converged Jacobi matrix and its index.
type eigPair struct {
	val float64
	idx int
}

// Decompose is EigHermitian into the work's storage.
func (ew *EigWork) Decompose(a *Matrix) (*Eigen, error) {
	n := a.Rows()
	if n != a.Cols() {
		return nil, fmt.Errorf("cmat: EigHermitian needs a square matrix, got %dx%d", n, a.Cols())
	}
	ew.values = grow(ew.values, n)
	ew.vecs.Reset(n, n)
	ew.eig = Eigen{Values: ew.values, Vectors: &ew.vecs}
	scale := a.MaxAbs()
	if scale == 0 {
		clear(ew.values)
		setIdentity(&ew.vecs)
		return &ew.eig, nil
	}
	if !a.IsHermitian(1e-8 * math.Max(scale, 1)) {
		return nil, fmt.Errorf("cmat: EigHermitian input is not Hermitian")
	}

	w := &ew.w
	w.Reset(n, n)
	copy(w.data, a.data)
	// Symmetrize exactly so rounding in the input cannot accumulate.
	for i := 0; i < n; i++ {
		w.Set(i, i, complex(real(w.At(i, i)), 0))
		for j := i + 1; j < n; j++ {
			m := (w.At(i, j) + cmplx.Conj(w.At(j, i))) / 2
			w.Set(i, j, m)
			w.Set(j, i, cmplx.Conj(m))
		}
	}
	v := &ew.v
	v.Reset(n, n)
	setIdentity(v)

	const maxSweeps = 60
	tol := 1e-13 * scale
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(w)
		if off <= tol*float64(n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				jacobiRotate(w, v, p, q)
			}
		}
	}

	ew.pairs = grow(ew.pairs, n)
	pairs := ew.pairs
	for i := 0; i < n; i++ {
		pairs[i] = eigPair{val: real(w.At(i, i)), idx: i}
	}
	// pdqsort consults a comparison only as cmp(x, y) < 0, so this orders
	// exactly as sort.Slice with the less function x.val < y.val did, ties
	// and NaNs included.
	slices.SortFunc(pairs, func(x, y eigPair) int {
		if x.val < y.val {
			return -1
		}
		return 1
	})
	for k, pr := range pairs {
		ew.values[k] = pr.val
		for i := 0; i < n; i++ {
			ew.vecs.data[i*n+k] = v.data[i*n+pr.idx]
		}
	}
	return &ew.eig, nil
}

// setIdentity writes the identity into the square matrix m, which must be
// zero.
func setIdentity(m *Matrix) {
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+i] = 1
	}
}

// grow returns b resliced to length n, reallocated when its capacity is
// short. The contents are unspecified.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

func offDiagNorm(a *Matrix) float64 {
	n := a.Rows()
	var s float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			x := a.At(i, j)
			s += real(x)*real(x) + imag(x)*imag(x)
		}
	}
	return math.Sqrt(2 * s)
}

// jacobiRotate zeroes a[p][q] (and a[q][p]) with a complex Givens rotation,
// updating both the working matrix and the accumulated eigenvector matrix.
func jacobiRotate(a, v *Matrix, p, q int) {
	apq := a.At(p, q)
	mag := cmplx.Abs(apq)
	if mag == 0 {
		return
	}
	app := real(a.At(p, p))
	aqq := real(a.At(q, q))
	// Phase factor of the off-diagonal element.
	ph := apq / complex(mag, 0)

	tau := (aqq - app) / (2 * mag)
	var t float64
	if tau >= 0 {
		t = 1 / (tau + math.Sqrt(1+tau*tau))
	} else {
		t = -1 / (-tau + math.Sqrt(1+tau*tau))
	}
	c := 1 / math.Sqrt(1+t*t)
	s := t * c

	cs := complex(c, 0)
	spq := complex(s, 0) * ph              // multiplies the q-column contribution
	spqc := complex(s, 0) * cmplx.Conj(ph) // its conjugate

	n := a.Rows()
	// Right multiplication by U: columns p and q of every row.
	for i := 0; i < n; i++ {
		aip, aiq := a.At(i, p), a.At(i, q)
		a.Set(i, p, cs*aip-spqc*aiq)
		a.Set(i, q, spq*aip+cs*aiq)
	}
	// Left multiplication by Uᴴ: rows p and q of every column.
	for j := 0; j < n; j++ {
		apj, aqj := a.At(p, j), a.At(q, j)
		a.Set(p, j, cs*apj-spq*aqj)
		a.Set(q, j, spqc*apj+cs*aqj)
	}
	// Clean the pivot pair and pin the diagonal to real.
	a.Set(p, q, 0)
	a.Set(q, p, 0)
	a.Set(p, p, complex(real(a.At(p, p)), 0))
	a.Set(q, q, complex(real(a.At(q, q)), 0))

	// Accumulate eigenvectors: V = V * U.
	for i := 0; i < n; i++ {
		vip, viq := v.At(i, p), v.At(i, q)
		v.Set(i, p, cs*vip-spqc*viq)
		v.Set(i, q, spq*vip+cs*viq)
	}
}

// NoiseSubspace returns the eigenvectors associated with the n-k smallest
// eigenvalues as the columns of an n x (n-k) matrix. It is the E_n matrix
// used by MUSIC-style estimators with k signal sources.
func (e *Eigen) NoiseSubspace(k int) *Matrix {
	n := len(e.Values)
	if k < 0 || k >= n {
		panic(fmt.Sprintf("cmat: NoiseSubspace signal count %d out of range for %d eigenvalues", k, n))
	}
	en := New(n, n-k)
	for j := 0; j < n-k; j++ {
		en.SetCol(j, e.Vectors.Col(j))
	}
	return en
}

// LargestSingular returns ‖a‖₂, the largest singular value of a: the square
// root of the top eigenvalue of the smaller of the Gram matrices aaᴴ and
// aᴴa. Both are Hermitian by construction, so the eigensolve cannot reject
// them.
func LargestSingular(a *Matrix) float64 {
	if a.rows == 0 || a.cols == 0 {
		return 0
	}
	var g *Matrix
	if a.rows < a.cols {
		g = Mul(a, a.H())
	} else {
		g = MulH(a, a)
	}
	e, err := EigHermitian(g)
	if err != nil {
		panic("cmat: Gram matrix rejected: " + err.Error())
	}
	return math.Sqrt(math.Max(e.Values[len(e.Values)-1], 0))
}
