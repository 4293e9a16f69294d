package sparse

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"roarray/internal/cmat"
)

// makeSparseProblem builds a random m x n dictionary with unit-norm columns,
// a k-sparse complex ground truth, and the corresponding noisy measurement.
func makeSparseProblem(rng *rand.Rand, m, n, k int, noise float64) (a *cmat.Matrix, xTrue []complex128, y []complex128, support []int) {
	a = cmat.New(m, n)
	for j := 0; j < n; j++ {
		col := make([]complex128, m)
		for i := range col {
			col[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		nrm := cmat.Norm2(col)
		for i := range col {
			col[i] /= complex(nrm, 0)
		}
		a.SetCol(j, col)
	}
	xTrue = make([]complex128, n)
	perm := rng.Perm(n)
	support = perm[:k]
	sort.Ints(support)
	for _, j := range support {
		mag := 1 + rng.Float64()
		ph := 2 * math.Pi * rng.Float64()
		xTrue[j] = complex(mag*math.Cos(ph), mag*math.Sin(ph))
	}
	y = a.MulVec(xTrue)
	for i := range y {
		y[i] += complex(rng.NormFloat64(), rng.NormFloat64()) * complex(noise, 0)
	}
	return a, xTrue, y, support
}

func topIndices(mags []float64, k int) []int {
	idx := make([]int, len(mags))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return mags[idx[a]] > mags[idx[b]] })
	out := append([]int(nil), idx[:k]...)
	sort.Ints(out)
	return out
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSoftThreshold(t *testing.T) {
	if got := SoftThreshold(3+4i, 5); got != 0 {
		t.Fatalf("SoftThreshold at the boundary = %v, want 0", got)
	}
	got := SoftThreshold(3+4i, 2.5)
	// Magnitude 5 shrinks to 2.5, phase preserved.
	if math.Abs(cmplx.Abs(got)-2.5) > 1e-12 {
		t.Fatalf("magnitude = %v, want 2.5", cmplx.Abs(got))
	}
	if math.Abs(cmplx.Phase(got)-cmplx.Phase(3+4i)) > 1e-12 {
		t.Fatal("phase not preserved")
	}
	if got := SoftThreshold(0, 1); got != 0 {
		t.Fatalf("SoftThreshold(0) = %v", got)
	}
}

// Property: soft thresholding is non-expansive: |S(a)-S(b)| <= |a-b|.
func TestPropSoftThresholdNonExpansive(t *testing.T) {
	f := func(ar, ai, br, bi, traw float64) bool {
		tt := math.Abs(traw)
		if math.IsNaN(tt) || math.IsInf(tt, 0) {
			return true
		}
		a, b := complex(ar, ai), complex(br, bi)
		if cmplx.IsNaN(a) || cmplx.IsNaN(b) || cmplx.IsInf(a) || cmplx.IsInf(b) {
			return true
		}
		// Skip magnitudes where the norm computation itself overflows.
		if cmplx.Abs(a) > 1e150 || cmplx.Abs(b) > 1e150 || tt > 1e150 {
			return true
		}
		return cmplx.Abs(SoftThreshold(a, tt)-SoftThreshold(b, tt)) <= cmplx.Abs(a-b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupSoftThreshold(t *testing.T) {
	row := []complex128{3, 4i}
	dst := make([]complex128, 2)
	GroupSoftThreshold(dst, row, 2.5)
	if math.Abs(rowNorm(dst)-2.5) > 1e-12 {
		t.Fatalf("group norm after threshold = %v, want 2.5", rowNorm(dst))
	}
	GroupSoftThreshold(dst, row, 10)
	if dst[0] != 0 || dst[1] != 0 {
		t.Fatal("row should be zeroed when threshold exceeds norm")
	}
}

func TestADMMRecoversSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	a, _, y, support := makeSparseProblem(rng, 40, 160, 4, 0.01)
	s, err := NewSolver(a, WithMethod(MethodADMM), WithMaxIters(600))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(y, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got := topIndices(res.RowMags, 4); !sameInts(got, support) {
		t.Fatalf("ADMM support %v, want %v", got, support)
	}
	if !res.Converged {
		t.Fatal("ADMM did not converge")
	}
}

func TestFISTARecoversSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	a, _, y, support := makeSparseProblem(rng, 40, 160, 4, 0.01)
	s, err := NewSolver(a, WithMethod(MethodFISTA), WithMaxIters(3000), WithTolerance(1e-9, 1e-8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(y, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got := topIndices(res.RowMags, 4); !sameInts(got, support) {
		t.Fatalf("FISTA support %v, want %v", got, support)
	}
}

// ADMM and FISTA minimize the same convex objective, so their optima must
// agree closely.
func TestADMMAndFISTAAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	a, _, y, _ := makeSparseProblem(rng, 30, 100, 4, 0.02)
	kappa := 0.08

	admm, err := NewSolver(a, WithMethod(MethodADMM), WithMaxIters(1500), WithTolerance(1e-8, 1e-7))
	if err != nil {
		t.Fatal(err)
	}
	fista, err := NewSolver(a, WithMethod(MethodFISTA), WithMaxIters(6000), WithTolerance(1e-10, 1e-9))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := admm.Solve(y, kappa)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := fista.Solve(y, kappa)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.Objective-r2.Objective) > 1e-3*math.Max(r1.Objective, 1) {
		t.Fatalf("objectives disagree: ADMM %v vs FISTA %v", r1.Objective, r2.Objective)
	}
}

// The Woodbury shortcut inside ADMM must match a direct dense solve of the
// x-update system.
func TestWoodburyMatchesDenseSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	a, _, _, _ := makeSparseProblem(rng, 12, 30, 3, 0)
	rho := 0.7
	m, n := a.Rows(), a.Cols()

	g := cmat.Mul(a, a.H())
	for i := 0; i < m; i++ {
		g.Set(i, i, g.At(i, i)+complex(rho, 0))
	}
	chol, err := cmat.CholeskyDecompose(g)
	if err != nil {
		t.Fatal(err)
	}

	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	// Woodbury path.
	av := a.MulVec(v)
	w := chol.Solve(av)
	atw := a.MulVecH(w)
	woodbury := make([]complex128, n)
	for i := range v {
		woodbury[i] = (v[i] - atw[i]) / complex(rho, 0)
	}
	// Dense path: (AᴴA + rho I) x = v.
	dense := cmat.MulH(a, a)
	for i := 0; i < n; i++ {
		dense.Set(i, i, dense.At(i, i)+complex(rho, 0))
	}
	direct, err := cmat.SolveLinear(dense, v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if cmplx.Abs(woodbury[i]-direct[i]) > 1e-8 {
			t.Fatalf("Woodbury mismatch at %d: %v vs %v", i, woodbury[i], direct[i])
		}
	}
}

func TestGroupLassoJointSparsity(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	m, n, k, snaps := 30, 90, 3, 4
	a, _, _, _ := makeSparseProblem(rng, m, n, k, 0)
	// Shared support across snapshots, varying coefficients.
	support := []int{7, 40, 71}
	y := cmat.New(m, snaps)
	for j := 0; j < snaps; j++ {
		x := make([]complex128, n)
		for _, s := range support {
			x[s] = complex(1+rng.Float64(), rng.NormFloat64())
		}
		col := a.MulVec(x)
		for i := range col {
			col[i] += complex(rng.NormFloat64(), rng.NormFloat64()) * 0.01
		}
		y.SetCol(j, col)
	}
	s, err := NewSolver(a, WithMethod(MethodADMM), WithMaxIters(800))
	if err != nil {
		t.Fatal(err)
	}
	res, x, err := solveIterate(s, y, 0.1, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := topIndices(res.RowMags, 3); !sameInts(got, support) {
		t.Fatalf("group-lasso support %v, want %v", got, support)
	}
	if len(x) != snaps {
		t.Fatalf("X has %d columns, want %d", len(x), snaps)
	}
}

func TestIterationHookFires(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	a, _, y, _ := makeSparseProblem(rng, 20, 60, 3, 0.01)
	var iters []int
	s, err := NewSolver(a,
		WithMethod(MethodFISTA),
		WithMaxIters(25),
		WithTolerance(0, 0), // run all iterations
		WithIterationHook(func(it int, mags []float64) {
			iters = append(iters, it)
			if len(mags) != 60 {
				t.Errorf("hook mags length %d, want 60", len(mags))
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(y, 0.05); err != nil {
		t.Fatal(err)
	}
	if len(iters) != 25 || iters[0] != 1 || iters[24] != 25 {
		t.Fatalf("hook iterations %v", iters)
	}
}

// Property: increasing kappa never increases the l1 mass of the solution.
func TestPropKappaMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	a, _, y, _ := makeSparseProblem(rng, 25, 70, 4, 0.02)
	s, err := NewSolver(a, WithMethod(MethodADMM), WithMaxIters(800))
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, kappa := range []float64{0.01, 0.05, 0.2, 0.8, 3.0} {
		res, err := s.Solve(y, kappa)
		if err != nil {
			t.Fatal(err)
		}
		var l1 float64
		for _, mg := range res.RowMags {
			l1 += mg
		}
		if l1 > prev*1.02 { // small slack for solver tolerance
			t.Fatalf("l1 mass increased at kappa=%v: %v > %v", kappa, l1, prev)
		}
		prev = l1
	}
}

// With a huge kappa the solution must collapse to exactly zero.
func TestLargeKappaGivesZero(t *testing.T) {
	rng := rand.New(rand.NewSource(108))
	a, _, y, _ := makeSparseProblem(rng, 20, 50, 3, 0.01)
	s, err := NewSolver(a, WithMethod(MethodADMM))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(y, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	for i, mg := range res.RowMags {
		if mg != 0 {
			t.Fatalf("atom %d nonzero (%v) under huge kappa", i, mg)
		}
	}
}

func TestSolverValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	a, _, y, _ := makeSparseProblem(rng, 10, 20, 2, 0)
	if _, err := NewSolver(a, WithMaxIters(0)); err == nil {
		t.Fatal("zero max iters should error")
	}
	if _, err := NewSolver(a, WithRho(-1)); err == nil {
		t.Fatal("negative rho should error")
	}
	if _, err := NewSolver(a, WithMethod(Method(99))); err == nil {
		t.Fatal("unknown method should error")
	}
	s, err := NewSolver(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(y[:5], 0.1); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := s.Solve(y, -0.1); err == nil {
		t.Fatal("negative kappa should error")
	}
}

func TestMethodString(t *testing.T) {
	if MethodADMM.String() != "admm" || MethodFISTA.String() != "fista" {
		t.Fatal("method names wrong")
	}
	if Method(42).String() == "" {
		t.Fatal("unknown method should still render")
	}
}

func TestOMPExactRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	a, xTrue, y, support := makeSparseProblem(rng, 30, 80, 3, 0)
	res, err := OMP(a, y, 3, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]int(nil), res.Support...)
	sort.Ints(got)
	if !sameInts(got, support) {
		t.Fatalf("OMP support %v, want %v", got, support)
	}
	spec := res.Spectrum(80)
	for _, j := range support {
		if math.Abs(spec[j]-cmplx.Abs(xTrue[j])) > 1e-8 {
			t.Fatalf("OMP coefficient at %d: %v, want %v", j, spec[j], cmplx.Abs(xTrue[j]))
		}
	}
	if res.ResidualNorm > 1e-8 {
		t.Fatalf("OMP residual %v, want ~0", res.ResidualNorm)
	}
}

func TestOMPValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	a, _, y, _ := makeSparseProblem(rng, 10, 30, 2, 0)
	if _, err := OMP(a, y[:4], 2, 0); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := OMP(a, y, 0, 0); err == nil {
		t.Fatal("zero atoms should error")
	}
	if _, err := OMP(a, y, 99, 0); err == nil {
		t.Fatal("atom budget beyond rows should error")
	}
	res, err := OMP(a, make([]complex128, 10), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Support) != 0 {
		t.Fatal("zero measurement should select nothing")
	}
}

// TestSolverRejectsNonFinite: non-finite settings and inputs are errors, not
// NaN spectra. Before these checks each case below ran the loop to its cap
// and returned NaN magnitudes (or, for kappa = +Inf, an all-zero spectrum
// flagged converged) with a nil error.
func TestSolverRejectsNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	a, _, y, _ := makeSparseProblem(rng, 10, 20, 2, 0)
	nan, inf := math.NaN(), math.Inf(1)

	for _, method := range []Method{MethodADMM, MethodFISTA} {
		for _, tc := range []struct {
			name string
			opt  Option
		}{
			{"rho NaN", WithRho(nan)},
			{"rho +Inf", WithRho(inf)},
			{"rho -Inf", WithRho(-inf)},
			{"tolerance NaN", WithTolerance(nan, nan)},
			{"abs tolerance +Inf", WithTolerance(inf, 1e-5)},
			{"rel tolerance NaN", WithTolerance(1e-6, nan)},
			{"gap-stop tolerance NaN", WithGapStop(nan)},
			{"gap-stop tolerance +Inf", WithGapStop(inf)},
		} {
			if _, err := NewSolver(a, WithMethod(method), tc.opt); err == nil {
				t.Errorf("%v: NewSolver accepted %s", method, tc.name)
			}
		}
	}

	badY := func(v complex128) []complex128 {
		out := append([]complex128(nil), y...)
		out[3] = v
		return out
	}
	inputs := []struct {
		name  string
		y     []complex128
		kappa float64
	}{
		{"kappa NaN", y, nan},
		{"kappa +Inf", y, inf},
		{"kappa -Inf", y, -inf},
		{"y real NaN", badY(complex(nan, 0)), 0.1},
		{"y imag +Inf", badY(complex(0, inf)), 0.1},
	}
	for _, method := range []Method{MethodADMM, MethodFISTA} {
		s, err := NewSolver(a, WithMethod(method), WithMaxIters(50))
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range inputs {
			ym := cmat.New(len(in.y), 1)
			ym.SetCol(0, in.y)
			if _, err := s.Solve(in.y, in.kappa); err == nil {
				t.Errorf("%v: Solve accepted %s", method, in.name)
			}
			if _, err := s.SolveMulti(ym, in.kappa); err == nil {
				t.Errorf("%v: SolveMulti accepted %s", method, in.name)
			}
		}
	}
}

// TestSolverRejectsBadShape: a measurement block whose row count differs from
// the dictionary's, or that has no columns, is ErrDimensionMismatch on the
// dense and Kronecker paths of both iterative methods. Before the column
// check an m x 0 block returned after one iteration with Converged = true,
// Objective = 0 and a nil error.
func TestSolverRejectsBadShape(t *testing.T) {
	g, s := randKronFactors(112, 4, 3, 2, 5)
	dense := cmat.Kron(g, s)
	m := dense.Rows()
	shapes := []struct {
		name string
		y    *cmat.Matrix
	}{
		{"too_few_rows", kernelMat(m-1, 1, 1)},
		{"too_many_rows", kernelMat(m+1, 2, 2)},
		{"zero_columns", cmat.New(m, 0)},
		{"zero_rows_and_columns", cmat.New(0, 0)},
	}
	for _, method := range []Method{MethodADMM, MethodFISTA} {
		for _, kron := range []bool{false, true} {
			var sv *Solver
			var err error
			if kron {
				sv, err = NewKronSolver(g, s, WithMethod(method), WithMaxIters(20))
			} else {
				sv, err = NewSolver(dense, WithMethod(method), WithMaxIters(20))
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range shapes {
				if _, err := sv.SolveMulti(tc.y, 0.1); !errors.Is(err, ErrDimensionMismatch) {
					t.Errorf("%v kron=%v %s: SolveMulti error %v, want ErrDimensionMismatch", method, kron, tc.name, err)
				}
			}
		}
	}
}
