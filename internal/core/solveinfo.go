package core

import (
	"math"

	"roarray/internal/sparse"
)

// SolveInfo is the per-solve diagnostic summary threaded from the sparse
// solver up through the estimator into each LinkResult, so a served request
// can report which algorithm actually produced its answer — the primary
// solver or the OMP fallback — without any consumer having to re-derive it
// from counters.
type SolveInfo struct {
	// Solver names the algorithm that produced the accepted result
	// ("admm", "fista" when SolverOptions select it, "omp").
	Solver string
	// Iterations the accepted solve performed; Converged whether it met its
	// residual criterion or its duality-gap certificate before the
	// iteration cap.
	Iterations int
	Converged  bool
	// Gap is the accepted solve's relative duality gap (sparse.Result.Gap):
	// its objective is within Gap of the optimum, relative to itself. OMP
	// results carry no certificate and report 0.
	Gap float64
	// Fallback is the degradation stage the accepted result came from:
	// "" (primary solve) or "omp" (greedy fallback).
	Fallback string
}

// solveInfoFor condenses a solver result plus the fallback stage that
// produced it into the wire-facing summary.
func solveInfoFor(res sparse.Result, stage string) SolveInfo {
	return SolveInfo{
		Solver:     res.Solver,
		Iterations: res.Iterations,
		Converged:  res.Converged,
		Gap:        res.Gap,
		Fallback:   stage,
	}
}

// Merge folds another link's solve summary into this one, producing the
// request-level roll-up the serving layer logs: Solver collapses to "mixed"
// when links disagree, Fallback is "omp" if any link fell back, Converged
// ANDs together, Gap keeps the largest (the weakest certificate), and
// Iterations accumulates.
func (si SolveInfo) Merge(other SolveInfo) SolveInfo {
	out := si
	if out.Solver == "" {
		out.Solver = other.Solver
	} else if other.Solver != "" && other.Solver != out.Solver {
		out.Solver = "mixed"
	}
	out.Iterations += other.Iterations
	out.Converged = out.Converged && other.Converged
	out.Gap = math.Max(out.Gap, other.Gap)
	if out.Fallback == "" {
		out.Fallback = other.Fallback
	}
	return out
}
