package sparse

import (
	"math/rand"
	"testing"

	"roarray/internal/cmat"
	"roarray/internal/obs"
)

// telemetryProblem builds a small random LASSO instance.
func telemetryProblem(t *testing.T) (*cmat.Matrix, []complex128) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	const m, n = 8, 24
	a := cmat.New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
	}
	y := make([]complex128, m)
	for i := range y {
		y[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return a, y
}

// TestResultSolverName: every solve path stamps the algorithm that produced
// the result, so telemetry consumers don't have to track Method separately.
func TestResultSolverName(t *testing.T) {
	a, y := telemetryProblem(t)
	for _, method := range []Method{MethodADMM, MethodFISTA} {
		s, err := NewSolver(a, WithMethod(method), WithMaxIters(50))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(y, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if res.Solver != method.String() {
			t.Fatalf("Result.Solver = %q, want %q", res.Solver, method.String())
		}
	}
}

// TestSolverMetrics: with a registry attached, each solve increments the
// solve counter and the iterations histogram, and a solve that exhausts a
// one-iteration cap is counted as non-converged with Converged == false.
func TestSolverMetrics(t *testing.T) {
	a, y := telemetryProblem(t)
	reg := obs.NewRegistry()

	// An effectively unbounded cap with loose tolerances converges.
	ok, err := NewSolver(a, WithMetrics(reg), WithMaxIters(2000), WithTolerance(1e-4, 1e-3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ok.Solve(y, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("expected convergence within 2000 iterations, got %+v", res.Iterations)
	}
	if got := reg.Counter("sparse.solve.total").Value(); got != 1 {
		t.Fatalf("solve total = %d, want 1", got)
	}
	if got := reg.Counter("sparse.solve.nonconverged_total").Value(); got != 0 {
		t.Fatalf("nonconverged = %d, want 0", got)
	}

	// A one-iteration cap with impossible tolerances cannot converge.
	bad, err := NewSolver(a, WithMetrics(reg), WithMaxIters(1), WithTolerance(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err = bad.Solve(y, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("one-iteration solve with zero tolerance cannot report convergence")
	}
	if got := reg.Counter("sparse.solve.nonconverged_total").Value(); got != 1 {
		t.Fatalf("nonconverged = %d, want 1", got)
	}
	if got := reg.Counter("sparse.solve.total").Value(); got != 2 {
		t.Fatalf("solve total = %d, want 2", got)
	}
	hist := reg.Histogram("sparse.solve.iterations").Snapshot()
	if hist.Count != 2 {
		t.Fatalf("iterations histogram count = %d, want 2", hist.Count)
	}

	// FISTA records through the same telemetry path.
	fista, err := NewSolver(a, WithMethod(MethodFISTA), WithMetrics(reg), WithMaxIters(300))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fista.Solve(y, 0.5); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sparse.solve.total").Value(); got != 3 {
		t.Fatalf("solve total = %d, want 3", got)
	}

	// A gap-stopped solve counts as converged and early-stopped, and every
	// solve's final gap lands in the gap histogram.
	nonconv := reg.Counter("sparse.solve.nonconverged_total").Value()
	gapped, err := NewSolver(a, WithMetrics(reg), WithMaxIters(2000), WithTolerance(0, 0), WithGapStop(0.02))
	if err != nil {
		t.Fatal(err)
	}
	res, err = gapped.Solve(y, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !res.EarlyStopped || res.Gap > 0.02 {
		t.Fatalf("gap-stopped solve: converged %v early %v gap %v", res.Converged, res.EarlyStopped, res.Gap)
	}
	if got := reg.Counter("sparse.solve.earlystop_total").Value(); got != 1 {
		t.Fatalf("early stops = %d, want 1", got)
	}
	if got := reg.Counter("sparse.solve.nonconverged_total").Value(); got != nonconv {
		t.Fatalf("nonconverged = %d, want %d", got, nonconv)
	}
	if gap := reg.Histogram("sparse.solve.gap").Snapshot(); gap.Count != 4 {
		t.Fatalf("gap histogram count = %d, want 4", gap.Count)
	}
}

// TestSolverNilMetrics: solvers without a registry must behave identically
// (same Result) and record nothing.
func TestSolverNilMetrics(t *testing.T) {
	a, y := telemetryProblem(t)
	plain, err := NewSolver(a, WithMaxIters(60))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	metered, err := NewSolver(a, WithMaxIters(60), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := plain.Solve(y, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := metered.Solve(y, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Iterations != r2.Iterations || r1.Objective != r2.Objective || r1.Gap != r2.Gap {
		t.Fatalf("metrics changed the solve: %+v vs %+v", r1.Iterations, r2.Iterations)
	}
	for i := range r1.RowMags {
		if r1.RowMags[i] != r2.RowMags[i] {
			t.Fatalf("metrics changed coefficients at %d", i)
		}
	}
}
