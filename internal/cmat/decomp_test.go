package cmat

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestQRReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, dims := range [][2]int{{4, 4}, {8, 3}, {20, 7}, {1, 1}} {
		m, n := dims[0], dims[1]
		a := randMatrix(rng, m, n)
		f, err := QR(a)
		if err != nil {
			t.Fatal(err)
		}
		// Check A x = Q R x for a probe vector: apply R then Q.
		x := randVec(rng, n)
		rx := f.R().MulVec(x)
		qrx := make([]complex128, m)
		copy(qrx, rx)
		qrx = f.QMul(qrx)
		ax := a.MulVec(x)
		for i := range ax {
			if cmplx.Abs(ax[i]-qrx[i]) > 1e-9 {
				t.Fatalf("dims %v: QR reconstruction error at %d: %v vs %v", dims, i, ax[i], qrx[i])
			}
		}
	}
}

func TestQRRejectsWideMatrix(t *testing.T) {
	if _, err := QR(New(2, 3)); err == nil {
		t.Fatal("QR of wide matrix should error")
	}
}

func TestQHQIsIdentityAction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randMatrix(rng, 9, 5)
	f, err := QR(a)
	if err != nil {
		t.Fatal(err)
	}
	b := randVec(rng, 9)
	round := f.QMul(f.QMulH(b))
	for i := range b {
		if cmplx.Abs(b[i]-round[i]) > 1e-9 {
			t.Fatalf("Q Qᴴ b != b at %d", i)
		}
	}
}

func TestSolveLeastSquaresExact(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randMatrix(rng, 10, 4)
	xTrue := randVec(rng, 4)
	b := a.MulVec(xTrue)
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(x[i]-xTrue[i]) > 1e-8 {
			t.Fatalf("LS solution off at %d: %v vs %v", i, x[i], xTrue[i])
		}
	}
}

func TestSolveLeastSquaresResidualOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randMatrix(rng, 12, 5)
	b := randVec(rng, 12)
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	r := SubVec(b, a.MulVec(x))
	// Aᴴ r must vanish at the least-squares optimum.
	g := a.MulVecH(r)
	if Norm2(g) > 1e-8 {
		t.Fatalf("normal equations residual %v, want ~0", Norm2(g))
	}
}

func TestEigHermitianDiagonal(t *testing.T) {
	a, _ := FromRows([][]complex128{{3, 0}, {0, -1}})
	e, err := EigHermitian(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Values[0]+1) > 1e-12 || math.Abs(e.Values[1]-3) > 1e-12 {
		t.Fatalf("eigenvalues %v, want [-1 3]", e.Values)
	}
}

func TestEigHermitianKnown2x2(t *testing.T) {
	// [[2, i], [-i, 2]] has eigenvalues 1 and 3.
	a, _ := FromRows([][]complex128{{2, 1i}, {-1i, 2}})
	e, err := EigHermitian(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Values[0]-1) > 1e-10 || math.Abs(e.Values[1]-3) > 1e-10 {
		t.Fatalf("eigenvalues %v, want [1 3]", e.Values)
	}
}

func TestEigHermitianReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{1, 2, 3, 5, 10, 30} {
		a := randHermitian(rng, n)
		e, err := EigHermitian(a)
		if err != nil {
			t.Fatal(err)
		}
		// A = V D Vᴴ.
		d := New(n, n)
		for i := 0; i < n; i++ {
			d.Set(i, i, complex(e.Values[i], 0))
		}
		rec := Mul(Mul(e.Vectors, d), e.Vectors.H())
		if !EqualApprox(rec, a, 1e-8*math.Max(a.MaxAbs(), 1)) {
			t.Fatalf("n=%d: V D Vᴴ != A", n)
		}
		// Eigenvector orthonormality.
		g := MulH(e.Vectors, e.Vectors)
		if !EqualApprox(g, Identity(n), 1e-9) {
			t.Fatalf("n=%d: Vᴴ V != I", n)
		}
		// Ascending order.
		if !sort.Float64sAreSorted(e.Values) {
			t.Fatalf("n=%d: eigenvalues not ascending: %v", n, e.Values)
		}
	}
}

func TestEigHermitianTraceInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		a := randHermitian(rng, n)
		e, err := EigHermitian(a)
		if err != nil {
			return false
		}
		var tr, sum float64
		for i := 0; i < n; i++ {
			tr += real(a.At(i, i))
			sum += e.Values[i]
		}
		return math.Abs(tr-sum) < 1e-8*math.Max(math.Abs(tr), 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEigHermitianRejectsNonHermitian(t *testing.T) {
	a, _ := FromRows([][]complex128{{1, 2}, {3, 4}})
	if _, err := EigHermitian(a); err == nil {
		t.Fatal("non-Hermitian input should error")
	}
	if _, err := EigHermitian(New(2, 3)); err == nil {
		t.Fatal("non-square input should error")
	}
}

func TestNoiseSubspaceShape(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := randHermitian(rng, 6)
	e, err := EigHermitian(a)
	if err != nil {
		t.Fatal(err)
	}
	en := e.NoiseSubspace(2)
	if en.Rows() != 6 || en.Cols() != 4 {
		t.Fatalf("NoiseSubspace shape %dx%d, want 6x4", en.Rows(), en.Cols())
	}
}

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, dims := range [][2]int{{6, 3}, {3, 6}, {5, 5}, {90, 4}, {1, 3}} {
		a := randMatrix(rng, dims[0], dims[1])
		sv, err := SVDecompose(a)
		if err != nil {
			t.Fatal(err)
		}
		r := len(sv.S)
		d := New(r, r)
		for i := 0; i < r; i++ {
			d.Set(i, i, complex(sv.S[i], 0))
		}
		rec := Mul(Mul(sv.U, d), sv.V.H())
		if !EqualApprox(rec, a, 1e-7*math.Max(a.MaxAbs(), 1)) {
			t.Fatalf("dims %v: U S Vᴴ != A", dims)
		}
		if !sort.IsSorted(sort.Reverse(sort.Float64Slice(sv.S))) {
			t.Fatalf("dims %v: singular values not descending: %v", dims, sv.S)
		}
		for _, s := range sv.S {
			if s < 0 {
				t.Fatalf("negative singular value %v", s)
			}
		}
	}
}

func TestSVDLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// Rank-2 matrix: outer product of two pairs.
	u := randMatrix(rng, 8, 2)
	v := randMatrix(rng, 5, 2)
	a := Mul(u, v.H())
	sv, err := SVDecompose(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := sv.Rank(1e-9); got != 2 {
		t.Fatalf("Rank = %d, want 2 (S=%v)", got, sv.S)
	}
}

func TestSVDTruncateLeft(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	a := randMatrix(rng, 7, 4)
	sv, err := SVDecompose(a)
	if err != nil {
		t.Fatal(err)
	}
	tl := sv.TruncateLeft(2)
	if tl.Rows() != 7 || tl.Cols() != 2 {
		t.Fatalf("TruncateLeft shape %dx%d, want 7x2", tl.Rows(), tl.Cols())
	}
	// Column norms equal the singular values (U has unit columns).
	for j := 0; j < 2; j++ {
		if math.Abs(Norm2(tl.Col(j))-sv.S[j]) > 1e-8 {
			t.Fatalf("column %d norm %v, want %v", j, Norm2(tl.Col(j)), sv.S[j])
		}
	}
	// Clamp beyond available values.
	if got := sv.TruncateLeft(99); got.Cols() != 4 {
		t.Fatalf("TruncateLeft clamp = %d cols, want 4", got.Cols())
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{1, 3, 10, 40} {
		b := randMatrix(rng, n, n)
		// A = BᴴB + I is Hermitian positive definite.
		a := Add(MulH(b, b), Identity(n))
		ch, err := CholeskyDecompose(a)
		if err != nil {
			t.Fatal(err)
		}
		l := ch.L()
		if !EqualApprox(Mul(l, l.H()), a, 1e-8*math.Max(a.MaxAbs(), 1)) {
			t.Fatalf("n=%d: L Lᴴ != A", n)
		}
		rhs := randVec(rng, n)
		x := ch.Solve(rhs)
		if Norm2(SubVec(a.MulVec(x), rhs)) > 1e-7*Norm2(rhs) {
			t.Fatalf("n=%d: Cholesky solve residual too large", n)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a, _ := FromRows([][]complex128{{1, 0}, {0, -2}})
	if _, err := CholeskyDecompose(a); err == nil {
		t.Fatal("indefinite matrix should fail Cholesky")
	}
}

func TestLUSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 2, 5, 20} {
		a := randMatrix(rng, n, n)
		xTrue := randVec(rng, n)
		b := a.MulVec(xTrue)
		x, err := SolveLinear(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if cmplx.Abs(x[i]-xTrue[i]) > 1e-7 {
				t.Fatalf("n=%d: LU solution off at %d", n, i)
			}
		}
	}
}

func TestLUSingular(t *testing.T) {
	a, _ := FromRows([][]complex128{{1, 2}, {2, 4}})
	if _, err := SolveLinear(a, []complex128{1, 1}); err == nil {
		t.Fatal("singular system should error")
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randMatrix(rng, 6, 6)
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualApprox(Mul(a, inv), Identity(6), 1e-8) {
		t.Fatal("A A^{-1} != I")
	}
}

func TestPowerIterationLargestSingular(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randMatrix(rng, 15, 8)
	sv, err := SVDecompose(a)
	if err != nil {
		t.Fatal(err)
	}
	got := PowerIterationLargestSingular(a, 100)
	if math.Abs(got-sv.S[0]) > 1e-6*sv.S[0] {
		t.Fatalf("power iteration sigma %v, SVD sigma %v", got, sv.S[0])
	}
}

// Property: singular values are invariant under Hermitian transpose.
func TestPropSVDTransposeInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randMatrix(rng, 2+rng.Intn(5), 2+rng.Intn(5))
		s1, err1 := SVDecompose(a)
		s2, err2 := SVDecompose(a.H())
		if err1 != nil || err2 != nil {
			return false
		}
		if len(s1.S) != len(s2.S) {
			return false
		}
		for i := range s1.S {
			if math.Abs(s1.S[i]-s2.S[i]) > 1e-7*math.Max(s1.S[0], 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSVDWorkReuseBitIdentical: one SVDWork decomposing a sequence of
// shapes — shrinking and growing, tall and wide, rank-deficient (which
// takes the orthonormal-completion path) and all-zero — returns for each
// exactly the bits of a fresh SVDecompose, so nothing left in its storage
// by one decomposition reaches the next. TruncateLeftInto into one reused
// matrix matches TruncateLeft the same way, and a warm decomposition of a
// shape already seen allocates nothing.
func TestSVDWorkReuseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	lowRank := Mul(randMatrix(rng, 9, 1), randMatrix(rng, 3, 1).H())
	inputs := []*Matrix{
		randMatrix(rng, 24, 5), randMatrix(rng, 24, 2), lowRank, randMatrix(rng, 3, 7),
		New(4, 2), randMatrix(rng, 24, 5), randMatrix(rng, 6, 6),
	}
	same := func(what string, got, want *Matrix) {
		t.Helper()
		if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
			t.Fatalf("%s shape %dx%d, want %dx%d", what, got.Rows(), got.Cols(), want.Rows(), want.Cols())
		}
		for i, v := range want.Data() {
			g := got.Data()[i]
			if math.Float64bits(real(g)) != math.Float64bits(real(v)) || math.Float64bits(imag(g)) != math.Float64bits(imag(v)) {
				t.Fatalf("%s entry %d = %v, want %v (bitwise)", what, i, g, v)
			}
		}
	}
	var w SVDWork
	var trunc Matrix
	for n, a := range inputs {
		want, err := SVDecompose(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.Decompose(a)
		if err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("input %d U", n), got.U, want.U)
		same(fmt.Sprintf("input %d V", n), got.V, want.V)
		for i, s := range want.S {
			if math.Float64bits(got.S[i]) != math.Float64bits(s) {
				t.Fatalf("input %d S[%d] = %v, want %v (bitwise)", n, i, got.S[i], s)
			}
		}
		got.TruncateLeftInto(&trunc, 2)
		same(fmt.Sprintf("input %d TruncateLeft", n), &trunc, want.TruncateLeft(2))
	}
	a := inputs[0]
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := w.Decompose(a); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Fatalf("warm SVDWork.Decompose: %.0f allocations, want 0", allocs)
	}
}
