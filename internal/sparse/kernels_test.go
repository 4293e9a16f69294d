package sparse

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"roarray/internal/cmat"
)

// kernelMat builds a deterministic dense complex matrix with a few exact
// zeros sprinkled in, so the zero-skip branches of the kernels are exercised.
func kernelMat(rows, cols, salt int) *cmat.Matrix {
	m := cmat.New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if (i*cols+j+salt)%11 == 0 {
				continue // leave an exact zero
			}
			ph := 2 * math.Pi * math.Mod(float64((i+2)*(j+5)+salt)*0.173, 1)
			sc := 0.3 + math.Mod(float64(i*j+salt)*0.071, 1)
			m.Set(i, j, complex(sc*math.Cos(ph), sc*math.Sin(ph)))
		}
	}
	return m
}

func requireBitEqual(t *testing.T, name string, got, want *cmat.Matrix) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: shape %dx%d != %dx%d", name, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i := 0; i < got.Rows(); i++ {
		for j := 0; j < got.Cols(); j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("%s: element (%d,%d) = %v, want %v (must be bitwise identical)",
					name, i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// TestKernelsBitIdentical pins the contract of kernels.go: each fused batched
// kernel reproduces, bit for bit, the cmat primitive the solver loops used to
// call — so switching the loops onto the kernels changes no solver output.
func TestKernelsBitIdentical(t *testing.T) {
	const m, n, k = 17, 29, 3
	a := kernelMat(m, n, 1)
	v := kernelMat(n, k, 2)
	wm := kernelMat(m, k, 3)

	t.Run("mulBatchInto_vs_MulVec", func(t *testing.T) {
		got := cmat.New(m, k)
		mulBatchInto(a, v, got)
		want := cmat.New(m, k)
		for j := 0; j < k; j++ {
			want.SetCol(j, a.MulVec(v.Col(j)))
		}
		requireBitEqual(t, "mulBatchInto", got, want)
	})

	t.Run("mulHBatchInto_vs_MulVecH", func(t *testing.T) {
		got := cmat.New(n, k)
		mulHBatchInto(a, wm, got)
		want := cmat.New(n, k)
		for j := 0; j < k; j++ {
			want.SetCol(j, a.MulVecH(wm.Col(j)))
		}
		requireBitEqual(t, "mulHBatchInto", got, want)
	})

	t.Run("mulInto_vs_Mul", func(t *testing.T) {
		got := cmat.New(m, k)
		mulInto(a, v, got)
		requireBitEqual(t, "mulInto", got, cmat.Mul(a, v))
	})

	t.Run("mulHInto_vs_MulH", func(t *testing.T) {
		got := cmat.New(n, k)
		mulHInto(a, wm, got)
		requireBitEqual(t, "mulHInto", got, cmat.MulH(a, wm))
	})

	t.Run("subInto_vs_Sub", func(t *testing.T) {
		b := kernelMat(m, n, 4)
		got := cmat.New(m, n)
		subInto(a, b, got)
		requireBitEqual(t, "subInto", got, cmat.Sub(a, b))
	})

	t.Run("subFrobNorm_vs_Sub_FrobNorm", func(t *testing.T) {
		b := kernelMat(m, n, 5)
		got := subFrobNorm(a, b)
		want := cmat.Sub(a, b).FrobNorm()
		if got != want {
			t.Fatalf("subFrobNorm = %v, want %v (must be bitwise identical)", got, want)
		}
	})

	t.Run("SolveBatchInto_vs_Solve", func(t *testing.T) {
		g := cmat.Mul(a, a.H())
		for i := 0; i < m; i++ {
			g.Set(i, i, g.At(i, i)+complex(float64(n), 0))
		}
		chol, err := cmat.CholeskyDecompose(g)
		if err != nil {
			t.Fatal(err)
		}
		got := cmat.New(m, k)
		chol.SolveBatchInto(wm, got, make([]complex128, m), make([]complex128, m))
		want := cmat.New(m, k)
		for j := 0; j < k; j++ {
			want.SetCol(j, chol.Solve(wm.Col(j)))
		}
		requireBitEqual(t, "SolveBatchInto", got, want)
	})
}

// kronFactors builds a small Kronecker pair shaped like the joint steering
// dictionary's delay and array factors (unit-modulus phase ramps) plus the
// dense product they tile.
func kronFactors(ll, tt, mm, cc int) (g, s, dense *cmat.Matrix) {
	g = cmat.New(ll, tt)
	for l := 0; l < ll; l++ {
		for t := 0; t < tt; t++ {
			ph := 2 * math.Pi * math.Mod(float64(l*(t+1))*0.083, 1)
			g.Set(l, t, cmplx.Rect(1, ph))
		}
	}
	s = cmat.New(mm, cc)
	for m := 0; m < mm; m++ {
		for i := 0; i < cc; i++ {
			ph := 2 * math.Pi * math.Mod(float64(m*(i+2))*0.199, 1)
			s.Set(m, i, cmplx.Rect(1, ph))
		}
	}
	dense = cmat.New(ll*mm, tt*cc)
	for l := 0; l < ll; l++ {
		for m := 0; m < mm; m++ {
			for t := 0; t < tt; t++ {
				for i := 0; i < cc; i++ {
					dense.Set(l*mm+m, t*cc+i, g.At(l, t)*s.At(m, i))
				}
			}
		}
	}
	return g, s, dense
}

// TestKronOpsMatchDense checks the factored matvecs against the dense kernels
// within floating-point tolerance (they associate sums differently, so exact
// equality is not expected — that is why the Kronecker path is opt-in).
func TestKronOpsMatchDense(t *testing.T) {
	g, s, dense := kronFactors(6, 5, 3, 7)
	ops := newKronOps(g, s)
	scratch := make([]complex128, ops.scratchLen(1))
	m, n, k := dense.Rows(), dense.Cols(), 2

	v := kernelMat(n, k, 6)
	gotAv := cmat.New(m, k)
	ops.mulInto(v, gotAv, scratch)
	if want := cmat.Mul(dense, v); !cmat.EqualApprox(gotAv, want, 1e-10) {
		t.Fatalf("kron mulInto deviates from dense product by %v", cmat.Sub(gotAv, want).MaxAbs())
	}

	w := kernelMat(m, k, 7)
	gotAtw := cmat.New(n, k)
	ops.mulHInto(w, gotAtw, scratch)
	if want := cmat.MulH(dense, w); !cmat.EqualApprox(gotAtw, want, 1e-10) {
		t.Fatalf("kron mulHInto deviates from dense product by %v", cmat.Sub(gotAtw, want).MaxAbs())
	}
}

// TestWithKroneckerValidation checks that NewKronSolver accepts finite
// factors, for both methods, and rejects a nil factor, an empty one and one
// with a non-finite entry.
func TestWithKroneckerValidation(t *testing.T) {
	g, s, _ := kronFactors(6, 5, 3, 7)
	for _, method := range []Method{MethodADMM, MethodFISTA} {
		if _, err := NewKronSolver(g, s, WithMethod(method)); err != nil {
			t.Fatalf("%v: finite factors rejected: %v", method, err)
		}
	}
	nonFinite := func(f *cmat.Matrix, v complex128) *cmat.Matrix {
		bad := f.Clone()
		bad.Set(1, 1, v)
		return bad
	}
	for _, tc := range []struct {
		name string
		g, s *cmat.Matrix
	}{
		{"nil_row_factor", nil, s},
		{"nil_column_factor", g, nil},
		{"empty_row_factor", cmat.New(0, 5), s},
		{"empty_column_factor", g, cmat.New(3, 0)},
		{"nan_row_entry", nonFinite(g, complex(math.NaN(), 0)), s},
		{"inf_column_entry", g, nonFinite(s, complex(0, math.Inf(-1)))},
	} {
		if _, err := NewKronSolver(tc.g, tc.s); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestKronDefaultRhoMatchesDense: the default ADMM rho a Kronecker solver
// takes from its factors has the bits of the one a dense solver takes from
// cmat.Kron of the same factors, at the serving and paper shapes and at
// shapes with one-row and one-column factors.
func TestKronDefaultRhoMatchesDense(t *testing.T) {
	for ci, sh := range [][4]int{{8, 8, 3, 19}, {30, 20, 3, 46}, {1, 5, 4, 1}, {6, 1, 1, 7}} {
		g, s := randKronFactors(int64(900+ci), sh[0], sh[1], sh[2], sh[3])
		kron, err := NewKronSolver(g, s)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := NewSolver(cmat.Kron(g, s))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(kron.opts.rho) != math.Float64bits(dense.opts.rho) {
			t.Errorf("shape %v: rho from the factors %.17g, from the dense dictionary %.17g", sh, kron.opts.rho, dense.opts.rho)
		}
	}
}

// solverFor builds the solver for the dictionary a: through the Kronecker
// factors when g and s are given (a = g ⊗ s), densely when g is nil.
func solverFor(a, g, s *cmat.Matrix, opts ...Option) (*Solver, error) {
	if g != nil {
		return NewKronSolver(g, s, opts...)
	}
	return NewSolver(a, opts...)
}

// TestKronSolverMatchesDense runs the same group-LASSO problem through a
// plain solver and a Kronecker one and requires matching spectra: same
// argmax atom and row magnitudes agreeing to well below peak-detection
// resolution. The two FISTA solvers estimate ||A||_2 differently (power
// iteration on A, or on each factor), and this dictionary's near-degenerate
// top singular values leave both 60-iteration estimates short of the exact
// value, so the dense reference takes the Kronecker solver's step and the
// two differ only in their kernels. The factor estimate must be at least as
// close to the exact value as the dense one.
func TestKronSolverMatchesDense(t *testing.T) {
	g, s, dense := kronFactors(10, 8, 3, 9)
	n := dense.Cols()
	x := cmat.New(n, 2)
	x.Set(n/4, 0, complex(1, 0.3))
	x.Set(n/4, 1, complex(0.9, 0.1))
	x.Set(2*n/3, 0, complex(0.5, -0.2))
	y := cmat.Mul(dense, x)

	for _, method := range []Method{MethodADMM, MethodFISTA} {
		plain, err := NewSolver(dense, WithMethod(method), WithMaxIters(150))
		if err != nil {
			t.Fatal(err)
		}
		kron, err := NewKronSolver(g, s, WithMethod(method), WithMaxIters(150))
		if err != nil {
			t.Fatal(err)
		}
		if method == MethodFISTA {
			eig, err := cmat.EigHermitian(cmat.Mul(dense.H(), dense))
			if err != nil {
				t.Fatal(err)
			}
			exact := slices.Max(eig.Values)
			if math.Abs(kron.lip-exact) > math.Abs(plain.lip-exact) {
				t.Fatalf("Lipschitz constant from the factors %.12g, from A %.12g, exact %.12g", kron.lip, plain.lip, exact)
			}
			plain.lip = kron.lip
		}
		resPlain, err := plain.SolveMulti(y, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		resKron, err := kron.SolveMulti(y, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		var worst float64
		argPlain, argKron := 0, 0
		for i := range resPlain.RowMags {
			if d := math.Abs(resPlain.RowMags[i] - resKron.RowMags[i]); d > worst {
				worst = d
			}
			if resPlain.RowMags[i] > resPlain.RowMags[argPlain] {
				argPlain = i
			}
			if resKron.RowMags[i] > resKron.RowMags[argKron] {
				argKron = i
			}
		}
		if argPlain != argKron {
			t.Fatalf("%v: argmax differs: dense %d vs kron %d", method, argPlain, argKron)
		}
		if worst > 1e-6 {
			t.Fatalf("%v: spectra deviate by %v", method, worst)
		}
	}
}

// randKronFactors returns Gaussian complex factors of the given shapes,
// deterministic in seed.
func randKronFactors(seed int64, ll, tt, mm, cc int) (g, s *cmat.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	g, s = cmat.New(ll, tt), cmat.New(mm, cc)
	for _, f := range []*cmat.Matrix{g, s} {
		d := f.Data()
		for i := range d {
			d[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	return g, s
}

// TestKronWoodburyMatchesDense checks the block-diagonal ridge operator
// Aᴴ(rho I + AAᴴ)⁻¹A v of woodburyInto against the dense route (matvec,
// Cholesky solve of rho I + AAᴴ, adjoint matvec) on random factor pairs —
// including a single antenna, repeated AoA columns, and column factors
// whose Gram S Sᴴ is rank deficient, so its zero eigenvalues (which the
// eigensolver may return a rounding error below zero) must be clamped.
func TestKronWoodburyMatchesDense(t *testing.T) {
	repeated := func(seed int64) (*cmat.Matrix, *cmat.Matrix) {
		g, s := randKronFactors(seed, 6, 5, 3, 7)
		for m := 0; m < 3; m++ {
			s.Set(m, 4, s.At(m, 1))
			s.Set(m, 6, s.At(m, 1))
		}
		return g, s
	}
	rankOne := func(seed int64) (*cmat.Matrix, *cmat.Matrix) {
		// Every antenna row is a multiple of the first: S Sᴴ has rank 1.
		g, s := randKronFactors(seed, 5, 6, 4, 6)
		for m := 1; m < 4; m++ {
			c := complex(float64(m), -0.5*float64(m))
			for i := 0; i < 6; i++ {
				s.Set(m, i, c*s.At(0, i))
			}
		}
		return g, s
	}
	cases := []struct {
		name    string
		factors func(seed int64) (*cmat.Matrix, *cmat.Matrix)
	}{
		{"random", func(seed int64) (*cmat.Matrix, *cmat.Matrix) { return randKronFactors(seed, 6, 5, 3, 7) }},
		{"tall_delay", func(seed int64) (*cmat.Matrix, *cmat.Matrix) { return randKronFactors(seed, 9, 4, 2, 5) }},
		{"single_antenna", func(seed int64) (*cmat.Matrix, *cmat.Matrix) { return randKronFactors(seed, 7, 6, 1, 8) }},
		{"repeated_aoa_columns", repeated},
		{"rank_one_gram", rankOne},
		{"more_antennas_than_angles", func(seed int64) (*cmat.Matrix, *cmat.Matrix) { return randKronFactors(seed, 4, 5, 5, 3) }},
	}
	for ci, tc := range cases {
		g, s := tc.factors(int64(100 + ci))
		dense := cmat.Kron(g, s)
		m, n := dense.Rows(), dense.Cols()
		for _, rho := range []float64{1e-2, 1, 37.5} {
			sv, err := NewKronSolver(g, s, WithRho(rho))
			if err != nil {
				t.Fatalf("%s rho=%v: %v", tc.name, rho, err)
			}
			gram := cmat.Mul(dense, dense.H())
			for i := 0; i < m; i++ {
				gram.Set(i, i, gram.At(i, i)+complex(rho, 0))
			}
			chol, err := cmat.CholeskyDecompose(gram)
			if err != nil {
				t.Fatalf("%s rho=%v: dense factor: %v", tc.name, rho, err)
			}
			for k := 1; k <= 3; k++ {
				v := kernelMat(n, k, ci+k)
				av, w, want := cmat.New(m, k), cmat.New(m, k), cmat.New(n, k)
				mulBatchInto(dense, v, av)
				chol.SolveBatchInto(av, w, make([]complex128, m), make([]complex128, m))
				mulHBatchInto(dense, w, want)

				got := cmat.New(n, k)
				sv.kron.woodburyInto(v, got, make([]complex128, sv.kron.scratchLen(k)))
				if rel := cmat.Sub(got, want).FrobNorm() / want.FrobNorm(); rel > 1e-10 {
					t.Errorf("%s rho=%v k=%d: factored ridge operator off by relative %.3g", tc.name, rho, k, rel)
				}
			}
		}
	}
}
