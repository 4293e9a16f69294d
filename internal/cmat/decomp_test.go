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
		// Check Qᴴ A x = [R x; 0] for a probe vector.
		x := randVec(rng, n)
		rx := f.r.MulVec(x)
		qhax := f.QMulH(a.MulVec(x))
		for i := range qhax {
			var want complex128
			if i < n {
				want = rx[i]
			}
			if cmplx.Abs(qhax[i]-want) > 1e-9 {
				t.Fatalf("dims %v: QR reconstruction error at %d: %v vs %v", dims, i, qhax[i], want)
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
	// Qᴴ preserves every vector's norm exactly when Q is unitary.
	for probe := 0; probe < 4; probe++ {
		b := randVec(rng, 9)
		if d := math.Abs(Norm2(f.QMulH(b)) - Norm2(b)); d > 1e-9*Norm2(b) {
			t.Fatalf("probe %d: ||Qᴴ b|| - ||b|| = %g", probe, d)
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
	a, _ := fromRows([][]complex128{{3, 0}, {0, -1}})
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
	a, _ := fromRows([][]complex128{{2, 1i}, {-1i, 2}})
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
		if !EqualApprox(g, identity(n), 1e-9) {
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
	a, _ := fromRows([][]complex128{{1, 2}, {3, 4}})
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

// svd decomposes a with fresh working storage.
func svd(a *Matrix) (*SVD, error) { return new(SVDWork).Decompose(a) }

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, dims := range [][2]int{{6, 3}, {3, 6}, {5, 5}, {90, 4}, {1, 3}} {
		a := randMatrix(rng, dims[0], dims[1])
		sv, err := svd(a)
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
	sv, err := svd(a)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sv.S {
		if (i < 2) != (s > 1e-9*sv.S[0]) {
			t.Fatalf("S = %v, want exactly 2 above 1e-9 of the largest", sv.S)
		}
	}
}

func TestSVDTruncateLeft(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	a := randMatrix(rng, 7, 4)
	sv, err := svd(a)
	if err != nil {
		t.Fatal(err)
	}
	tl := new(Matrix)
	sv.TruncateLeftInto(tl, 2)
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
	if sv.TruncateLeftInto(tl, 99); tl.Cols() != 4 {
		t.Fatalf("TruncateLeft clamp = %d cols, want 4", tl.Cols())
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{1, 3, 10, 40} {
		b := randMatrix(rng, n, n)
		// A = BᴴB + I is Hermitian positive definite.
		a := MulH(b, b)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+1)
		}
		ch, err := CholeskyDecompose(a)
		if err != nil {
			t.Fatal(err)
		}
		l := ch.l
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
	a, _ := fromRows([][]complex128{{1, 0}, {0, -2}})
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
	a, _ := fromRows([][]complex128{{1, 2}, {2, 4}})
	if _, err := SolveLinear(a, []complex128{1, 1}); err == nil {
		t.Fatal("singular system should error")
	}
}

func TestLargestSingular(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, a := range []*Matrix{randMatrix(rng, 15, 8), randMatrix(rng, 8, 15)} {
		sv, err := svd(a)
		if err != nil {
			t.Fatal(err)
		}
		if got := LargestSingular(a); math.Abs(got-sv.S[0]) > 1e-12*sv.S[0] {
			t.Fatalf("%dx%d: LargestSingular %v, SVD sigma %v", a.Rows(), a.Cols(), got, sv.S[0])
		}
	}
	if got := LargestSingular(New(3, 4)); got != 0 {
		t.Fatalf("zero matrix: LargestSingular %v, want 0", got)
	}
}

// TestLargestSingularNearDegenerate checks ‖A‖₂ on a 30 x 72 Kronecker
// product of unit-modulus phase ramps (the sparse package's
// kronFactors(10, 8, 3, 9)), whose top singular values nearly coincide. A
// 60-step power iteration came out 0.18% short there (10.9851 against
// 11.0051), which made FISTA's step longer than its convergence bound
// allows. The value must match both the top eigenvalue of the larger Gram
// matrix AᴴA and the product of the factors' norms, since the singular
// values of G ⊗ S are the pairwise products of theirs.
func TestLargestSingularNearDegenerate(t *testing.T) {
	g, s := New(10, 8), New(3, 9)
	for l := 0; l < 10; l++ {
		for k := 0; k < 8; k++ {
			g.Set(l, k, cmplx.Rect(1, 2*math.Pi*math.Mod(float64(l*(k+1))*0.083, 1)))
		}
	}
	for m := 0; m < 3; m++ {
		for i := 0; i < 9; i++ {
			s.Set(m, i, cmplx.Rect(1, 2*math.Pi*math.Mod(float64(m*(i+2))*0.199, 1)))
		}
	}
	a := Kron(g, s)
	eig, err := EigHermitian(MulH(a, a))
	if err != nil {
		t.Fatal(err)
	}
	exact := math.Sqrt(eig.Values[len(eig.Values)-1])
	got := LargestSingular(a)
	for _, ref := range []float64{exact, LargestSingular(g) * LargestSingular(s)} {
		if math.Abs(got-ref) > 1e-12*ref {
			t.Fatalf("LargestSingular %.15g, want %.15g (exact %.15g)", got, ref, exact)
		}
	}
}

// Property: singular values are invariant under Hermitian transpose.
func TestPropSVDTransposeInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randMatrix(rng, 2+rng.Intn(5), 2+rng.Intn(5))
		s1, err1 := svd(a)
		s2, err2 := svd(a.H())
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
// exactly the bits of a fresh SVDWork, so nothing left in its storage
// by one decomposition reaches the next. TruncateLeftInto into one reused
// matrix matches one into a fresh matrix the same way, and a warm decomposition of a
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
		want, err := svd(a)
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
		fresh := new(Matrix)
		want.TruncateLeftInto(fresh, 2)
		same(fmt.Sprintf("input %d TruncateLeft", n), &trunc, fresh)
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
