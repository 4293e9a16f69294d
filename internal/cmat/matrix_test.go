package cmat

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
	}
	return m
}

func randHermitian(rng *rand.Rand, n int) *Matrix {
	a := randMatrix(rng, n, n)
	h := a.H()
	for i := range h.data {
		h.data[i] += a.data[i]
	}
	return Scale(0.5, h)
}

// fromRows builds a matrix from a slice of equal-length rows. The data is
// copied.
func fromRows(rows [][]complex128) (*Matrix, error) {
	if len(rows) == 0 {
		return New(0, 0), nil
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("cmat: ragged row %d: got %d columns, want %d", i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// identity returns the n x n identity matrix.
func identity(n int) *Matrix {
	m := New(n, n)
	setIdentity(m)
	return m
}

func randVec(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("got %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 3+4i)
	if got := m.At(1, 2); got != 3+4i {
		t.Fatalf("At(1,2) = %v, want 3+4i", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("zero value not preserved: %v", got)
	}
}

func TestFromRows(t *testing.T) {
	m, err := fromRows([][]complex128{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v, want 3", m.At(1, 0))
	}
	if _, err := fromRows([][]complex128{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged rows should error")
	}
}

func TestIdentityMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMatrix(rng, 4, 4)
	if got := Mul(identity(4), a); !EqualApprox(got, a, 1e-12) {
		t.Fatal("I*A != A")
	}
	if got := Mul(a, identity(4)); !EqualApprox(got, a, 1e-12) {
		t.Fatal("A*I != A")
	}
}

func TestMulAgainstManual(t *testing.T) {
	a, _ := fromRows([][]complex128{{1, 2i}, {3, 4}})
	b, _ := fromRows([][]complex128{{5, 6}, {7i, 8}})
	got := Mul(a, b)
	want, _ := fromRows([][]complex128{
		{5 + 2i*7i, 6 + 16i},
		{15 + 28i, 18 + 32},
	})
	if !EqualApprox(got, want, 1e-12) {
		t.Fatalf("Mul mismatch:\n%v\nwant\n%v", got, want)
	}
}

func TestHermitianTranspose(t *testing.T) {
	a, _ := fromRows([][]complex128{{1 + 1i, 2}, {3, 4 - 2i}})
	h := a.H()
	if h.At(0, 0) != 1-1i || h.At(1, 0) != 2 || h.At(0, 1) != 3 || h.At(1, 1) != 4+2i {
		t.Fatalf("H incorrect: %v", h)
	}
}

func TestMulHMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMatrix(rng, 5, 3)
	b := randMatrix(rng, 5, 4)
	got := MulH(a, b)
	want := Mul(a.H(), b)
	if !EqualApprox(got, want, 1e-10) {
		t.Fatal("MulH != H()*B")
	}
}

func TestMulVecHMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMatrix(rng, 6, 4)
	v := randVec(rng, 6)
	got := a.MulVecH(v)
	want := a.H().MulVec(v)
	for i := range got {
		if cmplx.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("MulVecH[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRowColRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMatrix(rng, 3, 5)
	c := a.Col(1)
	c[0] = 99 // must not alias
	if a.At(0, 1) == 99 {
		t.Fatal("Col aliases internal storage")
	}
	a2 := New(3, 5)
	for i := 0; i < 3; i++ {
		copy(a2.RowView(i), a.RowView(i))
	}
	for j := 0; j < 5; j++ {
		a2.SetCol(j, a.Col(j))
	}
	if !EqualApprox(a, a2, 0) {
		t.Fatal("Row/Col round trip mismatch")
	}
}

func TestFrobNorm(t *testing.T) {
	a, _ := fromRows([][]complex128{{3, 0}, {0, 4i}})
	if got := a.FrobNorm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("FrobNorm = %v, want 5", got)
	}
}

func TestIsHermitian(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := randHermitian(rng, 4)
	if !h.IsHermitian(1e-12) {
		t.Fatal("randHermitian not detected as Hermitian")
	}
	h.Set(0, 1, h.At(0, 1)+1)
	if h.IsHermitian(1e-6) {
		t.Fatal("perturbed matrix still detected as Hermitian")
	}
	if randMatrix(rng, 2, 3).IsHermitian(1) {
		t.Fatal("non-square matrix reported Hermitian")
	}
}

// Property: (AB)ᴴ = Bᴴ Aᴴ.
func TestPropHermitianOfProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randMatrix(rng, 3+rng.Intn(3), 2+rng.Intn(3))
		b := randMatrix(rng, a.Cols(), 2+rng.Intn(3))
		lhs := Mul(a, b).H()
		rhs := Mul(b.H(), a.H())
		return EqualApprox(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorOps(t *testing.T) {
	a := []complex128{1, 2i}
	b := []complex128{3, 4}
	if got := SubVec(a, b); got[0] != -2 || got[1] != -4+2i {
		t.Fatalf("SubVec = %v", got)
	}
	y := CloneVec(b)
	y[0] = 0 // must not alias
	if b[0] != 3 {
		t.Fatalf("CloneVec aliases its input")
	}
	if got := Norm2Sq([]complex128{3, 4i}); math.Abs(got-25) > 1e-12 {
		t.Fatalf("Norm2Sq = %v, want 25", got)
	}
}

func TestOuterAdd(t *testing.T) {
	dst := New(2, 2)
	OuterAdd(dst, []complex128{1, 2i}, []complex128{1i, 3})
	// x yᴴ = [1,2i]ᵀ [-1i, 3]
	want, _ := fromRows([][]complex128{{-1i, 3}, {2, 6i}})
	if !EqualApprox(dst, want, 1e-12) {
		t.Fatalf("OuterAdd = %v want %v", dst, want)
	}
}

func TestPanicsOnShapeMisuse(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestStringRendering(t *testing.T) {
	s := New(1, 1).String()
	if s == "" {
		t.Fatal("String returned empty")
	}
}
