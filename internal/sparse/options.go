// Package sparse implements the sparse-recovery machinery that ROArray uses
// in place of a generic SOCP solver: complex-valued LASSO solved by ADMM
// (with the m << n Woodbury factorization trick), the FISTA proximal
// gradient method, orthogonal matching pursuit, and the group-sparse
// (l2,1-norm) variants required by l1-SVD multi-snapshot fusion.
//
// All solvers minimize the paper's Eq. 11/18 objective
//
//	min_x  1/2 ||A x - y||_2^2 + kappa ||x||_1
//
// over complex x, where the complex modulus in the l1 term makes the problem
// a second-order cone program; complex soft-thresholding is its exact
// proximal operator, so ADMM/FISTA converge to the same global optimum the
// paper obtains with cvx.
package sparse

import (
	"errors"
	"fmt"

	"roarray/internal/cmat"
	"roarray/internal/obs"
)

// Method selects the optimization algorithm.
type Method int

// Supported solver methods.
const (
	MethodADMM Method = iota + 1
	MethodFISTA
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodADMM:
		return "admm"
	case MethodFISTA:
		return "fista"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// ErrDimensionMismatch is returned when the measurement vector does not match
// the dictionary's row count.
var ErrDimensionMismatch = errors.New("sparse: measurement length does not match dictionary rows")

// IterationHook observes solver progress. iter is 1-based; mags holds the
// current per-atom coefficient magnitudes aggregated across snapshots (for a
// single measurement vector this is simply |x_i|). mags is the solve's pooled
// scratch, valid only during the call: a hook that keeps it must copy it.
type IterationHook func(iter int, mags []float64)

type options struct {
	method   Method
	maxIters int
	absTol   float64
	relTol   float64
	rho      float64 // ADMM penalty; 0, unless a test sets it, selects the default
	hook     IterationHook
	metrics  *obs.Registry
	gapEps   float64

	// gapHook, set only by tests, observes every duality-gap evaluation of
	// a gap-stopped solve: the iterate the primal value was taken at, its
	// relative gap, and the best dual value so far.
	gapHook func(iter int, z *cmat.Matrix, gap, dualBest float64)
}

func defaultOptions() options {
	return options{
		method:   MethodADMM,
		maxIters: 400,
		absTol:   1e-6,
		relTol:   1e-5,
	}
}

// Option customizes a solver.
type Option func(*options)

// WithMethod selects the solver algorithm (default ADMM).
func WithMethod(m Method) Option { return func(o *options) { o.method = m } }

// WithMaxIters caps the iteration count (default 400).
func WithMaxIters(n int) Option { return func(o *options) { o.maxIters = n } }

// WithTolerance sets the absolute and relative convergence tolerances.
func WithTolerance(abs, rel float64) Option {
	return func(o *options) { o.absTol, o.relTol = abs, rel }
}

// WithIterationHook registers a progress observer, used e.g. to snapshot the
// AoA spectrum as it sharpens across iterations (paper Fig. 3).
func WithIterationHook(h IterationHook) Option { return func(o *options) { o.hook = h } }

// WithGapStop ends a solve once it is certified eps-optimal: once the
// relative duality gap (P - D)/P of the group LASSO is at most eps, where P
// is the objective of the current iterate and D the best dual value seen so
// far (see gapCert). Weak duality gives D <= P*, so a stopped solve's
// objective is within a factor 1/(1-eps) of the optimum — the kind of
// certificate the paper's cvx solves return. The residual criterion and the iteration cap
// stay in force. Evaluating P costs a product with the iterate's nonzero rows
// per iteration; core's serving profile (core.Config.Warm) declares eps =
// 0.02 on the joint solver. Disabled by default (eps <= 0), which leaves the
// iterates, and every bit of a solve's result, as without it. A stop through
// this rule reports Converged with Result.EarlyStopped set.
func WithGapStop(eps float64) Option { return func(o *options) { o.gapEps = eps } }

// WithMetrics records solver telemetry into reg: a "sparse.solve.total"
// counter, "sparse.solve.iterations" and "sparse.solve.gap" (the final
// relative duality gap) histograms, a "sparse.solve.nonconverged_total"
// counter incremented whenever a solve exhausts its iteration cap without
// meeting the residual criterion or the gap certificate, and a
// "sparse.solve.earlystop_total" counter of solves that stopped on the
// certificate. Metric handles are resolved once at construction, so the
// per-solve cost is a few atomic updates; a nil registry disables recording
// entirely.
func WithMetrics(reg *obs.Registry) Option { return func(o *options) { o.metrics = reg } }

// Result reports the outcome of a sparse solve.
type Result struct {
	// Solver names the algorithm that produced this result ("admm" or
	// "fista"), so telemetry consumers don't have to thread the
	// configured Method alongside every result.
	Solver string
	// RowMags holds per-atom magnitudes aggregated across snapshots
	// (the l2 norm of each coefficient row); this is the sparse spectrum.
	// The coefficients themselves are not returned: every consumer reads
	// only this spectrum.
	RowMags []float64
	// Iterations actually performed.
	Iterations int
	// Converged reports whether the solve met the residual criterion or,
	// under WithGapStop, the duality-gap certificate before hitting the
	// iteration cap.
	Converged bool
	// EarlyStopped reports that the solve ended on the duality-gap
	// certificate of WithGapStop rather than the residual criterion
	// (Converged is also set in that case).
	EarlyStopped bool
	// Objective is the final value of 1/2||AX-Y||_F^2 + kappa*sum row norms.
	Objective float64
	// Gap is the relative duality gap (Objective - D)/Objective of the
	// result, with D the best dual value of the solve (clamped at zero):
	// Objective exceeds the optimum by at most Gap*Objective. Every ADMM
	// and FISTA solve reports it, with or without WithGapStop.
	Gap float64
}
