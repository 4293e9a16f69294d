package core

import (
	"context"
	"testing"

	"roarray/internal/obs"
)

func TestSolveInfoMerge(t *testing.T) {
	a := SolveInfo{Solver: "admm", Iterations: 40, Converged: true, Gap: 0.004}
	b := SolveInfo{Solver: "admm", Iterations: 60, Converged: true, Gap: 0.019}
	m := a.Merge(b)
	if m.Solver != "admm" || m.Iterations != 100 || !m.Converged || m.Gap != 0.019 {
		t.Fatalf("same-solver merge: %+v", m)
	}
	if m = m.Merge(a); m.Gap != 0.019 {
		t.Fatalf("a smaller gap must not replace the largest, got %v", m.Gap)
	}

	c := SolveInfo{Solver: "omp", Iterations: 3, Converged: true, Fallback: "omp"}
	m = m.Merge(c)
	if m.Solver != "mixed" {
		t.Fatalf("differing solvers should collapse to mixed, got %q", m.Solver)
	}
	if m.Fallback != "omp" {
		t.Fatalf("deepest fallback stage should win, got %q", m.Fallback)
	}

	d := SolveInfo{Solver: "mixed", Fallback: "", Converged: false}
	m = m.Merge(d)
	if m.Fallback != "omp" {
		t.Fatalf("a primary solve must not replace omp, got %q", m.Fallback)
	}
	if m.Converged {
		t.Fatal("a non-converged link should AND through merges")
	}

	// Merging into a zero value adopts the other side's solver.
	if z := (SolveInfo{}).Merge(a); z.Solver != "admm" {
		t.Fatalf("zero-merge solver %q, want admm", z.Solver)
	}
}

// TestLinkResultCarriesSolveInfo runs the real engine pipeline and checks
// every successful link reports which solver produced it, and that the
// result-level SearchStats match what the metrics counters saw.
func TestLinkResultCarriesSolveInfo(t *testing.T) {
	est := engineTestEstimator(t)
	eng, err := NewEngine(est, 2)
	if err != nil {
		t.Fatal(err)
	}
	req := engineTestRequests(t, 1, 2, 4242)[0]

	ctx := obs.WithRequestID(context.Background(), "solveinfo-test")
	res, err := eng.Localize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for i, lr := range res.Links {
		if lr.Err != nil {
			continue
		}
		if lr.Solve.Solver == "" {
			t.Fatalf("link %d succeeded but has empty Solve.Solver", i)
		}
		if lr.Solve.Iterations <= 0 {
			t.Fatalf("link %d reports %d iterations", i, lr.Solve.Iterations)
		}
	}
	if res.Search.Mode == "" || res.Search.Evaluated() <= 0 {
		t.Fatalf("result-level search stats not populated: %+v", res.Search)
	}
}

// TestWarmEngineCertifiesEveryLink: under the serving profile every joint
// solve of a localization run stops on its duality-gap certificate or the
// residual criterion well inside the 60-iteration cap, so every link reports
// Converged with a gap of at most 0.02, and the solver metrics agree: no
// non-converged solve, and every recorded gap within the 0.02 bucket.
func TestWarmEngineCertifiesEveryLink(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := engineTestEstimator(t).Config()
	cfg.Warm, cfg.Metrics = true, reg
	est, err := NewEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(est, 2)
	if err != nil {
		t.Fatal(err)
	}
	links := 0
	for r, req := range engineTestRequests(t, 4, 3, 5150) {
		res, err := eng.Localize(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		for i, lr := range res.Links {
			if lr.Solve.Solver == "" {
				t.Fatalf("request %d link %d never solved: %v", r, i, lr.Err)
			}
			if !lr.Solve.Converged || lr.Solve.Gap > 0.02 || lr.Solve.Iterations >= 60 {
				t.Fatalf("request %d link %d: %+v, want a certified solve inside the cap", r, i, lr.Solve)
			}
			links++
		}
	}
	if n := reg.Counter("sparse.solve.nonconverged_total").Value(); n != 0 {
		t.Fatalf("sparse.solve.nonconverged_total = %d, want 0", n)
	}
	gap := reg.Histogram("sparse.solve.gap").Snapshot()
	if gap.Count != int64(links) {
		t.Fatalf("sparse.solve.gap has %d observations, want %d", gap.Count, links)
	}
	if gap.Sum > 0.02*float64(links) {
		t.Fatalf("sparse.solve.gap sums to %v over %d solves", gap.Sum, links)
	}
}

// TestLocalizeExemplarsCarryRequestID runs a metered engine under a tagged
// context and checks the latency histograms retain the request ID as an
// exemplar — the join key roastat uses to go from "slow bucket" to "which
// request".
func TestLocalizeExemplarsCarryRequestID(t *testing.T) {
	reg := obs.NewRegistry()
	base := engineTestEstimator(t)
	cfg := base.Config()
	cfg.Metrics = reg
	est, err := NewEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(est, 1)
	if err != nil {
		t.Fatal(err)
	}
	req := engineTestRequests(t, 1, 2, 777)[0]

	ctx := obs.WithRequestID(context.Background(), "exemplar-req")
	if _, err := eng.Localize(ctx, req); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"engine.localize.seconds", "core.solve.seconds"} {
		snap, ok := reg.Snapshot()[name].(obs.HistogramSnapshot)
		if !ok {
			t.Fatalf("histogram %q missing from snapshot", name)
		}
		found := false
		for _, ex := range snap.Exemplars {
			if ex == "exemplar-req" {
				found = true
			}
		}
		if !found {
			t.Fatalf("%q has no exemplar for the tagged request: %v", name, snap.Exemplars)
		}
	}
}
