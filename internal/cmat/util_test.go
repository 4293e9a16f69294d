package cmat

import (
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKronSmall(t *testing.T) {
	a, _ := fromRows([][]complex128{{1, 2}})
	b, _ := fromRows([][]complex128{{0, 3}, {4, 0}})
	k := Kron(a, b)
	want, _ := fromRows([][]complex128{
		{0, 3, 0, 6},
		{4, 0, 8, 0},
	})
	if !EqualApprox(k, want, 1e-12) {
		t.Fatalf("Kron = %v, want %v", k, want)
	}
}

// Property: the mixed-product rule (A⊗B)(C⊗D) = (AC)⊗(BD).
func TestPropKronMixedProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randMatrix(rng, 2, 3)
		b := randMatrix(rng, 2, 2)
		c := randMatrix(rng, 3, 2)
		d := randMatrix(rng, 2, 3)
		lhs := Mul(Kron(a, b), Kron(c, d))
		rhs := Kron(Mul(a, c), Mul(b, d))
		return EqualApprox(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestKronVec(t *testing.T) {
	got := KronVec([]complex128{1, 2i}, []complex128{3, 4})
	want := []complex128{3, 4, 6i, 8i}
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("KronVec = %v, want %v", got, want)
		}
	}
}
