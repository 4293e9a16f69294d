package sparse

import (
	"fmt"
	"math"

	"roarray/internal/cmat"
	"roarray/internal/obs"
)

// Solver solves (group-)LASSO problems against a fixed dictionary A. The
// expensive per-dictionary work (the Woodbury factorization for ADMM — dense,
// or block-diagonal over the Kronecker factors — and the Lipschitz constant
// for FISTA/ISTA) is done once at construction and reused
// across measurement vectors, which is how ROArray amortizes cost across
// packets that share a steering dictionary.
type Solver struct {
	a    *cmat.Matrix
	opts options
	tele *solverTelemetry // nil when no metrics registry is configured

	chol *cmat.Cholesky // dense ADMM: factor of (rho I + A Aᴴ), size m x m
	lip  float64        // FISTA/ISTA: ||A||_2^2
	kron *kronOps       // non-nil when WithKronecker declared factor structure
}

// solverTelemetry caches the metric handles a solver records into, resolved
// once at construction so the per-solve cost is a few atomic updates.
type solverTelemetry struct {
	solves       *obs.Counter
	nonconverged *obs.Counter
	earlyStops   *obs.Counter
	warmSolves   *obs.Counter
	warmRejected *obs.Counter
	iterations   *obs.Histogram
}

func newSolverTelemetry(reg *obs.Registry) *solverTelemetry {
	if reg == nil {
		return nil
	}
	return &solverTelemetry{
		solves:       reg.Counter("sparse.solve.total"),
		nonconverged: reg.Counter("sparse.solve.nonconverged_total"),
		earlyStops:   reg.Counter("sparse.solve.earlystop_total"),
		warmSolves:   reg.Counter("sparse.solve.warm_total"),
		warmRejected: reg.Counter("sparse.solve.warm_rejected_total"),
		iterations:   reg.Histogram("sparse.solve.iterations", 5, 10, 25, 50, 100, 200, 400, 800),
	}
}

// record notes one completed solve. Nil-safe: the disabled path is a single
// pointer check.
func (t *solverTelemetry) record(res *Result) {
	if t == nil {
		return
	}
	t.solves.Inc()
	t.iterations.Observe(float64(res.Iterations))
	if !res.Converged {
		t.nonconverged.Inc()
	}
	if res.EarlyStopped {
		t.earlyStops.Inc()
	}
	if res.Warm {
		t.warmSolves.Inc()
	}
	if res.WarmRejected {
		t.warmRejected.Inc()
	}
}

// NewSolver prepares a solver for the m x n dictionary a.
func NewSolver(a *cmat.Matrix, opts ...Option) (*Solver, error) {
	o := defaultOptions()
	for _, fn := range opts {
		fn(&o)
	}
	if o.maxIters <= 0 {
		return nil, fmt.Errorf("sparse: max iterations must be positive, got %d", o.maxIters)
	}
	// A non-finite setting does not fail loudly downstream: every iterate
	// turns NaN and the loop runs to its cap, returning a NaN spectrum.
	for _, p := range []struct {
		name string
		v    float64
	}{{"ADMM rho", o.rho}, {"absolute tolerance", o.absTol}, {"relative tolerance", o.relTol}, {"spectrum-stop tolerance", o.specTol}} {
		if !isFinite(p.v) {
			return nil, fmt.Errorf("sparse: %s must be finite, got %v", p.name, p.v)
		}
	}
	s := &Solver{a: a, opts: o, tele: newSolverTelemetry(o.metrics)}
	if (o.kronRow == nil) != (o.kronCol == nil) {
		return nil, fmt.Errorf("sparse: Kronecker structure needs both a row and a column factor")
	}
	if o.kronRow != nil {
		if err := validateKron(a, o.kronRow, o.kronCol, 1e-9); err != nil {
			return nil, err
		}
		s.kron = newKronOps(o.kronRow, o.kronCol)
	}
	switch o.method {
	case MethodADMM:
		if o.rho < 0 {
			return nil, fmt.Errorf("sparse: ADMM rho must be positive, got %v", o.rho)
		}
		if o.rho == 0 {
			// Scale-adaptive default: the mean squared column norm, i.e.
			// trace(AᴴA)/n. This is 1 for unit-norm dictionaries and M*L for
			// steering dictionaries, keeping the ADMM splitting balanced.
			fn := a.FrobNorm()
			o.rho = fn * fn / float64(a.Cols())
			if o.rho == 0 {
				return nil, fmt.Errorf("sparse: dictionary has zero norm")
			}
			s.opts.rho = o.rho
		}
		if s.kron != nil {
			if err := s.kron.factorWoodbury(o.kronRow, o.kronCol, o.rho); err != nil {
				return nil, err
			}
			break
		}
		m := a.Rows()
		// rho I + A Aᴴ is Hermitian positive definite for rho > 0.
		g := cmat.Mul(a, a.H())
		for i := 0; i < m; i++ {
			g.Set(i, i, g.At(i, i)+complex(o.rho, 0))
		}
		chol, err := cmat.CholeskyDecompose(g)
		if err != nil {
			return nil, fmt.Errorf("sparse: factor ADMM system: %w", err)
		}
		s.chol = chol
	case MethodFISTA, MethodISTA:
		sigma := cmat.PowerIterationLargestSingular(a, 60)
		if sigma == 0 {
			return nil, fmt.Errorf("sparse: dictionary has zero norm")
		}
		s.lip = sigma * sigma
	default:
		return nil, fmt.Errorf("sparse: unknown method %v", o.method)
	}
	// kronOps holds its own copies of the Kronecker factors; dropping the
	// caller's keeps them from staying resident twice.
	s.opts.kronRow, s.opts.kronCol = nil, nil
	return s, nil
}

// Dict returns the dictionary this solver was built for.
func (s *Solver) Dict() *cmat.Matrix { return s.a }

// DictMulH returns Aᴴ y, routed through the Kronecker factors when the
// solver has them (callers computing data-dependent regularization like
// kappa = ratio * max ||row(AᴴY)|| then share the solver's fast path).
// Without factors this is exactly cmat.MulH.
func (s *Solver) DictMulH(y *cmat.Matrix) *cmat.Matrix {
	if s.kron != nil {
		out := cmat.New(s.a.Cols(), y.Cols())
		s.kron.mulHInto(y, out, make([]complex128, s.kron.scratchLen(1)))
		return out
	}
	return cmat.MulH(s.a, y)
}

// MaxIters returns the configured iteration cap, the reference point for
// iterations-saved accounting on warm-started solves.
func (s *Solver) MaxIters() int { return s.opts.maxIters }

// Solve recovers a sparse coefficient vector for a single measurement y,
// minimizing 1/2||Ax-y||^2 + kappa||x||_1.
func (s *Solver) Solve(y []complex128, kappa float64) (*Result, error) {
	if len(y) != s.a.Rows() {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrDimensionMismatch, len(y), s.a.Rows())
	}
	ym := cmat.New(len(y), 1)
	ym.SetCol(0, y)
	return s.SolveMulti(ym, kappa)
}

// checkProblem rejects a measurement block or regularization weight the
// solvers cannot iterate on. A NaN or infinite entry does not fail loudly
// downstream: it turns every iterate NaN, the loop runs to its cap, and the
// result is a NaN spectrum (or, for kappa = +Inf, an all-zero one reported
// as converged). A block with no columns has all-zero norms, so it would
// "converge" after one iteration to an empty solution.
func (s *Solver) checkProblem(y *cmat.Matrix, kappa float64) error {
	if y.Rows() != s.a.Rows() {
		return fmt.Errorf("%w: got %d, want %d", ErrDimensionMismatch, y.Rows(), s.a.Rows())
	}
	if y.Cols() == 0 {
		return fmt.Errorf("%w: measurement block has no columns", ErrDimensionMismatch)
	}
	if kappa < 0 || !isFinite(kappa) {
		return fmt.Errorf("sparse: kappa must be nonnegative and finite, got %v", kappa)
	}
	for i, v := range y.Data() {
		if !isFinite(real(v)) || !isFinite(imag(v)) {
			return fmt.Errorf("sparse: measurement entry (%d,%d) = %v is not finite", i/y.Cols(), i%y.Cols(), v)
		}
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// SolveMulti recovers jointly sparse coefficients for multiple snapshots
// (columns of y), minimizing 1/2||AX-Y||_F^2 + kappa * sum_i ||X_i,:||_2 —
// the l2,1 group-sparse program of l1-SVD fusion. With a single column it
// reduces exactly to Solve.
func (s *Solver) SolveMulti(y *cmat.Matrix, kappa float64) (*Result, error) {
	if err := s.checkProblem(y, kappa); err != nil {
		return nil, err
	}
	switch s.opts.method {
	case MethodADMM:
		return s.solveADMM(y, kappa)
	default:
		return s.solveProximal(y, kappa, nil)
	}
}

func rowMagsInto(x *cmat.Matrix, dst []float64) {
	d := x.Data()
	k := x.Cols()
	for i := 0; i < x.Rows(); i++ {
		var n2 float64
		for _, v := range d[i*k : (i+1)*k] {
			n2 += real(v)*real(v) + imag(v)*imag(v)
		}
		dst[i] = math.Sqrt(n2)
	}
}

// objective evaluates 1/2||AX-Y||_F^2 + kappa*sum_i ||X_i||_2.
func (s *Solver) objective(x, y *cmat.Matrix, kappa float64) float64 {
	r := cmat.Sub(cmat.Mul(s.a, x), y)
	fit := r.FrobNorm()
	var l1 float64
	for i := 0; i < x.Rows(); i++ {
		l1 += rowNorm(x.Row(i))
	}
	return 0.5*fit*fit + kappa*l1
}

func (s *Solver) solveADMM(y *cmat.Matrix, kappa float64) (*Result, error) {
	// Plain LASSO is the weighted problem with uniform unit weights; the
	// full ADMM loop lives in solveADMMWeighted (reweighted.go).
	return s.solveADMMWeighted(y, kappa, nil, nil)
}

func (s *Solver) solveProximal(y *cmat.Matrix, kappa float64, ws *WarmState) (*Result, error) {
	n := s.a.Cols()
	m := s.a.Rows()
	k := y.Cols()
	step := 1 / s.lip
	t := kappa * step
	accelerated := s.opts.method == MethodFISTA

	// All iteration scratch is allocated here, never inside the loop, and
	// never stored on the Solver (Solvers are shared across goroutines).
	x := cmat.New(n, k) // current iterate
	xPrev := cmat.New(n, k)
	w := cmat.New(n, k)    // extrapolation point
	aw := cmat.New(m, k)   // A w, then the residual A w - Y in place
	grad := cmat.New(n, k) // Aᴴ(Aw - Y)
	rowBuf := make([]complex128, k)
	mags := make([]float64, n)
	theta := 1.0
	var kscratch []complex128
	if s.kron != nil {
		kscratch = make([]complex128, s.kron.scratchLen(1)) // matvecs only
	}

	// Warm start: resume from the previous primal iterate with the momentum
	// reset (restarting theta keeps FISTA's extrapolation stable from an
	// arbitrary seed). The seed is accepted only if it scores a lower
	// objective than the cold start at zero — a seed from an unrelated
	// measurement (a different location, a reshuffled batch) fails that test
	// and the solve runs cold rather than spending iterations escaping it.
	warm := ws.seedable(s.opts.method, n, k)
	warmRejected := false
	if warm {
		copyInto(x, ws.primary)
		yn := y.FrobNorm()
		if s.seedObjective(x, y, kappa, nil, aw, kscratch) >= 0.5*yn*yn {
			zeroMat(x)
			warm = false
			warmRejected = true
		}
		copyInto(w, x)
	}
	stop := newSpecStop(s.opts, n)

	xd, pd, wd, gd := x.Data(), xPrev.Data(), w.Data(), grad.Data()
	stepC := complex(step, 0)
	iters := 0
	converged := false
	early := false
	for it := 1; it <= s.opts.maxIters; it++ {
		iters = it
		// Gradient of the smooth part at w: Aᴴ(Aw - Y).
		if s.kron != nil {
			s.kron.mulInto(w, aw, kscratch)
			subInto(aw, y, aw)
			s.kron.mulHInto(aw, grad, kscratch)
		} else {
			mulInto(s.a, w, aw)
			subInto(aw, y, aw)
			mulHInto(s.a, aw, grad)
		}
		copy(pd, xd)
		for i := 0; i < n; i++ {
			wrow, grow := wd[i*k:(i+1)*k], gd[i*k:(i+1)*k]
			for j := range rowBuf {
				rowBuf[j] = wrow[j] - stepC*grow[j]
			}
			GroupSoftThreshold(xd[i*k:(i+1)*k], rowBuf, t)
		}

		if accelerated {
			thetaNext := (1 + math.Sqrt(1+4*theta*theta)) / 2
			beta := complex((theta-1)/thetaNext, 0)
			for idx := range wd {
				wd[idx] = xd[idx] + beta*(xd[idx]-pd[idx])
			}
			theta = thetaNext
		} else {
			copyInto(w, x)
		}

		// The spectrum stop folds in this iterate's magnitudes before the
		// hook sees the shared buffer.
		rowMagsInto(x, mags)
		stable := stop.stable(mags)
		if s.opts.hook != nil {
			s.opts.hook(it, mags)
		}

		diff := subFrobNorm(x, xPrev)
		ref := math.Max(x.FrobNorm(), 1e-12)
		tol := s.opts.absTol + s.opts.relTol*ref
		if diff <= tol {
			converged = true
			break
		}
		// Spectrum stability alone is not a sound stop: the iterate can
		// plateau with a frozen spectrum far from the optimum and jump later
		// (see specResidualSlack). Require the step size to be within a slack
		// factor of the full criterion before trusting it.
		if stable && diff <= specResidualSlack*tol {
			converged, early = true, true
			break
		}
	}

	ws.store(s.opts.method, n, k, x, nil)
	rowMagsInto(x, mags)
	obj := 0.0
	if s.kron != nil {
		obj = s.seedObjective(x, y, kappa, nil, aw, kscratch)
	} else {
		obj = s.objective(x, y, kappa)
	}
	res := &Result{
		Solver:       s.opts.method.String(),
		X:            matToColumns(x),
		RowMags:      mags,
		Iterations:   iters,
		Converged:    converged,
		EarlyStopped: early,
		Warm:         warm,
		WarmRejected: warmRejected,
		Objective:    obj,
	}
	s.tele.record(res)
	return res, nil
}

// seedObjective evaluates 1/2||AX-Y||_F^2 + kappa*sum_i w_i||X_i||_2 using
// the caller's m x k scratch (and the Kronecker factors when available). It
// backs the warm-seed acceptance test: a seed is only worth keeping if it
// beats the zero cold start's objective 1/2||Y||_F^2.
func (s *Solver) seedObjective(x, y *cmat.Matrix, kappa float64, weights []float64, ax *cmat.Matrix, kscratch []complex128) float64 {
	if s.kron != nil {
		s.kron.mulInto(x, ax, kscratch)
	} else {
		mulBatchInto(s.a, x, ax)
	}
	fit := subFrobNorm(ax, y)
	var l1 float64
	for i := 0; i < x.Rows(); i++ {
		wt := 1.0
		if weights != nil {
			wt = weights[i]
		}
		l1 += wt * rowNorm(x.RowView(i))
	}
	return 0.5*fit*fit + kappa*l1
}

func copyInto(dst, src *cmat.Matrix) {
	copy(dst.Data(), src.Data())
}

func zeroMat(m *cmat.Matrix) {
	d := m.Data()
	for i := range d {
		d[i] = 0
	}
}

func matToColumns(x *cmat.Matrix) [][]complex128 {
	out := make([][]complex128, x.Cols())
	for j := 0; j < x.Cols(); j++ {
		out[j] = x.Col(j)
	}
	return out
}
