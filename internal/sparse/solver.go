package sparse

import (
	"fmt"
	"math"
	"sync"

	"roarray/internal/cmat"
	"roarray/internal/obs"
)

// Solver solves (group-)LASSO problems against a fixed dictionary A. The
// expensive per-dictionary work (the Woodbury factorization for ADMM — dense,
// or block-diagonal over the Kronecker factors — and the Lipschitz constant
// for FISTA) is done once at construction and reused across measurement
// vectors, which is how ROArray amortizes cost across packets that share a
// steering dictionary.
//
// A Kronecker solver (NewKronSolver) never holds the dense dictionary: it is
// built from the factors, and its iterations run on them alone.
type Solver struct {
	a          *cmat.Matrix // dense dictionary; nil for a Kronecker solver
	rows, cols int          // the dictionary's shape
	opts       options
	tele       *solverTelemetry // nil when no metrics registry is configured

	chol *cmat.Cholesky // dense ADMM: factor of (rho I + A Aᴴ), size m x m
	lip  float64        // FISTA: ||A||_2^2
	kron *kronOps       // non-nil for a Kronecker solver

	// pool holds *workspace iteration state. Solvers are shared across
	// goroutines, so no solve's scratch is stored on the Solver itself:
	// each solve takes a workspace of its own for its duration.
	pool sync.Pool
}

// solverTelemetry caches the metric handles a solver records into, resolved
// once at construction so the per-solve cost is a few atomic updates.
type solverTelemetry struct {
	solves       *obs.Counter
	nonconverged *obs.Counter
	earlyStops   *obs.Counter
	iterations   *obs.Histogram
	gap          *obs.Histogram
}

func newSolverTelemetry(reg *obs.Registry) *solverTelemetry {
	if reg == nil {
		return nil
	}
	return &solverTelemetry{
		solves:       reg.Counter("sparse.solve.total"),
		nonconverged: reg.Counter("sparse.solve.nonconverged_total"),
		earlyStops:   reg.Counter("sparse.solve.earlystop_total"),
		iterations:   reg.Histogram("sparse.solve.iterations", 5, 10, 25, 50, 100, 200, 400, 800),
		gap:          reg.Histogram("sparse.solve.gap", 1e-4, 1e-3, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1),
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
	t.gap.Observe(res.Gap)
	if !res.Converged {
		t.nonconverged.Inc()
	}
	if res.EarlyStopped {
		t.earlyStops.Inc()
	}
}

// NewSolver prepares a solver for the m x n dictionary a.
func NewSolver(a *cmat.Matrix, opts ...Option) (*Solver, error) {
	return newSolver(&Solver{a: a, rows: a.Rows(), cols: a.Cols()}, opts)
}

// NewKronSolver prepares a solver for the dictionary A = G ⊗ S, entry
// ((l*M+m), (t*C+i)) = g[l][t] * s[m][i], from its L x T row factor g and
// M x C column factor s alone: the joint space-delay steering dictionary,
// whose atoms are outer products of a delay and an array response, has this
// form. Neither construction (see kronOps) nor the iterations ever form the
// dense L*M x T*C matrix. The factored products are numerically equivalent
// but not bit-identical to the dense kernels (sums associate differently).
func NewKronSolver(g, s *cmat.Matrix, opts ...Option) (*Solver, error) {
	for _, f := range []*cmat.Matrix{g, s} {
		if f == nil || len(f.Data()) == 0 {
			return nil, fmt.Errorf("sparse: Kronecker factors must be non-empty")
		}
		for _, v := range f.Data() {
			if !isFinite(real(v)) || !isFinite(imag(v)) {
				return nil, fmt.Errorf("sparse: Kronecker factor entry %v is not finite", v)
			}
		}
	}
	return newSolver(&Solver{
		rows: g.Rows() * s.Rows(), cols: g.Cols() * s.Cols(),
		kron: newKronOps(g, s),
	}, opts)
}

// newSolver applies opts to s, whose dictionary (dense or factored) and shape
// are set, and runs the configured method's construction-time work.
func newSolver(s *Solver, opts []Option) (*Solver, error) {
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
	}{{"absolute tolerance", o.absTol}, {"relative tolerance", o.relTol}, {"gap-stop tolerance", o.gapEps}} {
		if !isFinite(p.v) {
			return nil, fmt.Errorf("sparse: %s must be finite, got %v", p.name, p.v)
		}
	}
	s.tele = newSolverTelemetry(o.metrics)
	switch o.method {
	case MethodADMM:
		if o.rho == 0 {
			// Scale-adaptive default: the mean squared column norm, i.e.
			// trace(AᴴA)/n. This is 1 for unit-norm dictionaries and M*L for
			// steering dictionaries, keeping the ADMM splitting balanced
			// whether or not the dictionary columns are normalized.
			var fn float64
			if s.kron != nil {
				fn = s.kron.frobNorm()
			} else {
				fn = s.a.FrobNorm()
			}
			o.rho = fn * fn / float64(s.cols)
			if o.rho == 0 {
				return nil, fmt.Errorf("sparse: dictionary has zero norm")
			}
		}
		if s.kron != nil {
			if err := s.kron.factorWoodbury(o.rho); err != nil {
				return nil, err
			}
			break
		}
		// rho I + A Aᴴ is Hermitian positive definite for rho > 0.
		g := cmat.Mul(s.a, s.a.H())
		for i := 0; i < s.rows; i++ {
			g.Set(i, i, g.At(i, i)+complex(o.rho, 0))
		}
		chol, err := cmat.CholeskyDecompose(g)
		if err != nil {
			return nil, fmt.Errorf("sparse: factor ADMM system: %w", err)
		}
		s.chol = chol
	case MethodFISTA:
		var sigma float64
		if s.kron != nil {
			sigma = s.kron.sigma()
		} else {
			sigma = cmat.LargestSingular(s.a)
		}
		if sigma == 0 {
			return nil, fmt.Errorf("sparse: dictionary has zero norm")
		}
		s.lip = sigma * sigma
	default:
		return nil, fmt.Errorf("sparse: unknown method %v", o.method)
	}
	s.opts = o
	return s, nil
}

// Dict returns the dense dictionary a non-Kronecker solver iterates on, and
// nil for a Kronecker solver, which never holds it.
func (s *Solver) Dict() *cmat.Matrix { return s.a }

// Solve recovers a sparse coefficient vector for a single measurement y,
// minimizing 1/2||Ax-y||^2 + kappa||x||_1.
func (s *Solver) Solve(y []complex128, kappa float64) (*Result, error) {
	if len(y) != s.rows {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrDimensionMismatch, len(y), s.rows)
	}
	ym := cmat.New(len(y), 1)
	ym.SetCol(0, y)
	return s.SolveMulti(ym, kappa)
}

// checkMeasurement rejects a measurement block the solvers cannot iterate
// on. A NaN or infinite entry does not fail loudly downstream: it turns every
// iterate NaN, the loop runs to its cap, and the result is a NaN spectrum. A
// block with no columns has all-zero norms, so it would "converge" after one
// iteration to an empty solution.
func (s *Solver) checkMeasurement(y *cmat.Matrix) error {
	if y.Rows() != s.rows {
		return fmt.Errorf("%w: got %d, want %d", ErrDimensionMismatch, y.Rows(), s.rows)
	}
	if y.Cols() == 0 {
		return fmt.Errorf("%w: measurement block has no columns", ErrDimensionMismatch)
	}
	for i, v := range y.Data() {
		if !isFinite(real(v)) || !isFinite(imag(v)) {
			return fmt.Errorf("sparse: measurement entry (%d,%d) = %v is not finite", i/y.Cols(), i%y.Cols(), v)
		}
	}
	return nil
}

// checkKappa rejects a regularization weight the solvers cannot iterate on:
// a NaN weight turns every iterate NaN, and kappa = +Inf returns an all-zero
// spectrum reported as converged.
func checkKappa(kappa float64) error {
	if kappa < 0 || !isFinite(kappa) {
		return fmt.Errorf("sparse: kappa must be nonnegative and finite, got %v", kappa)
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// SolveMulti recovers jointly sparse coefficients for multiple snapshots
// (columns of y), minimizing 1/2||AX-Y||_F^2 + kappa * sum_i ||X_i,:||_2 —
// the l2,1 group-sparse program of l1-SVD fusion. With a single column it
// reduces exactly to Solve. The result's RowMags is freshly allocated.
func (s *Solver) SolveMulti(y *cmat.Matrix, kappa float64) (*Result, error) {
	if err := checkKappa(kappa); err != nil {
		return nil, err
	}
	res, err := s.solve(y, kappa, false, nil, nil)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// SolveMultiRatio is SolveMulti with the data-scaled sparsity weight
// kappa = ratio * max_i ||(AᴴY)_i||_2, the standard scale-free choice (above
// max_i ||(AᴴY)_i||_2 the solution is identically zero). It forms AᴴY once,
// for the weight and as the ADMM iteration's constant term, so the weight
// costs no extra product with the dictionary. The result is bit-identical to
// SolveMulti at that kappa.
//
// It is the serving entry point, so it allocates nothing once the solver's
// pool is warm: the Result comes back by value, and its RowMags is written
// into mags, whose storage is reused when its capacity covers the
// dictionary's columns (pass the previous RowMags back in).
func (s *Solver) SolveMultiRatio(y *cmat.Matrix, ratio float64, mags []float64) (Result, error) {
	if ratio < 0 || !isFinite(ratio) {
		return Result{}, fmt.Errorf("sparse: kappa ratio must be nonnegative and finite, got %v", ratio)
	}
	return s.solve(y, ratio, true, mags, nil)
}

// solve runs the configured method on y in a pooled workspace, with weight
// w as kappa itself or, when scaled, as the ratio of SolveMultiRatio. The
// row magnitudes are copied into mags (reusing its storage) and, when final
// is non-nil, it is handed the final iterate before the workspace goes back
// to the pool; tests read the coefficients through it.
func (s *Solver) solve(y *cmat.Matrix, w float64, scaled bool, mags []float64, final func(x *cmat.Matrix)) (Result, error) {
	if err := s.checkMeasurement(y); err != nil {
		return Result{}, err
	}
	ws := s.takeWorkspace(y.Cols())
	defer s.pool.Put(ws)
	admm := s.opts.method == MethodADMM
	if admm || scaled {
		s.mulHInto(y, &ws.aty, ws.kscratch)
	}
	kappa := w
	if scaled {
		kappa = w * maxRowNorm(&ws.aty)
		if err := checkKappa(kappa); err != nil {
			return Result{}, err
		}
	}
	var res Result
	if admm {
		res = s.solveADMM(ws, y, kappa)
	} else {
		res = s.solveFISTA(ws, y, kappa)
	}
	// Both methods leave their final iterate in ws.z.
	if final != nil {
		final(&ws.z)
	}
	res.RowMags = append(mags[:0], ws.mags...)
	return res, nil
}

// mulHInto computes out = Aᴴ y: through the Kronecker factors when the
// solver has them, otherwise with the exact loop of cmat.MulH.
func (s *Solver) mulHInto(y, out *cmat.Matrix, kscratch []complex128) {
	if s.kron != nil {
		s.kron.mulHInto(y, out, kscratch)
		return
	}
	mulHInto(s.a, y, out)
}

// maxRowNorm returns max_i ||g_i||_2 over the rows of g, summing each row's
// squared magnitudes in column order and taking one square root of the
// largest sum.
func maxRowNorm(g *cmat.Matrix) float64 {
	d, k := g.Data(), g.Cols()
	mx := 0.0
	for i := 0; i < g.Rows(); i++ {
		var n2 float64
		for _, v := range d[i*k : (i+1)*k] {
			n2 += real(v)*real(v) + imag(v)*imag(v)
		}
		if n2 > mx {
			mx = n2
		}
	}
	return math.Sqrt(mx)
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

// objective evaluates 1/2||AX-Y||_F^2 + kappa*sum_i ||X_i||_2, forming AX in
// the caller's m x k scratch ax through the Kronecker factors when the solver
// has them.
func (s *Solver) objective(x, y *cmat.Matrix, kappa float64, ax *cmat.Matrix, kscratch []complex128) float64 {
	if s.kron != nil {
		s.kron.mulInto(x, ax, kscratch)
	} else {
		mulInto(s.a, x, ax)
	}
	fit := subFrobNorm(ax, y)
	var l1 float64
	for i := 0; i < x.Rows(); i++ {
		l1 += rowNorm(x.RowView(i))
	}
	return 0.5*fit*fit + kappa*l1
}

// solveFISTA runs accelerated proximal gradient from a zero start. Its
// duality-gap certificate (gapCert) takes the dual point from the gradient
// step it already computes: the residual Aw - Y at the extrapolation point w
// and its correlation Aᴴ(Aw - Y), whose largest row norm scales the residual
// to dual feasibility. Under WithGapStop the objective of the new iterate is
// evaluated each iteration from a product with its nonzero rows, and the
// solve stops once the relative gap is at most eps.
func (s *Solver) solveFISTA(ws *workspace, y *cmat.Matrix, kappa float64) Result {
	n := s.cols
	k := y.Cols()
	step := 1 / s.lip
	t := kappa * step

	// The iteration state is the pooled workspace (see workspace): nothing
	// is allocated inside the loop or stored on the Solver.
	x := &ws.z     // current iterate, zero at the start
	xPrev := &ws.u // previous iterate
	w := &ws.v     // extrapolation point, zero at the start
	aw := &ws.av   // A w, then the residual A w - Y in place
	grad := &ws.atw
	rowBuf, mags, kscratch := ws.rowBuf, ws.mags, ws.kscratch
	theta := 1.0
	cert := newGapCert(kappa, ws.nz)

	xd, pd, wd, gd := x.Data(), xPrev.Data(), w.Data(), grad.Data()
	awd, yd := aw.Data(), y.Data()
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
		var ry, r2, g2 float64 // Re<Y - Aw, Y>, ||Aw - Y||², max_i ||grad_i||²
		for idx, r := range awd {
			ry -= real(r)*real(yd[idx]) + imag(r)*imag(yd[idx])
			r2 += real(r)*real(r) + imag(r)*imag(r)
		}
		copy(pd, xd)
		for i := 0; i < n; i++ {
			wrow, grow := wd[i*k:(i+1)*k], gd[i*k:(i+1)*k]
			var gg float64
			for j, gv := range grow {
				rowBuf[j] = wrow[j] - stepC*gv
				gg += real(gv)*real(gv) + imag(gv)*imag(gv)
			}
			g2 = math.Max(g2, gg)
			GroupSoftThreshold(xd[i*k:(i+1)*k], rowBuf, t)
		}
		cert.observe(ry, r2, math.Sqrt(g2))

		thetaNext := (1 + math.Sqrt(1+4*theta*theta)) / 2
		beta := complex((theta-1)/thetaNext, 0)
		for idx := range wd {
			wd[idx] = xd[idx] + beta*(xd[idx]-pd[idx])
		}
		theta = thetaNext

		rowMagsInto(x, mags)
		certified := s.certified(&cert, it, x, y, mags, kscratch)
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
		if certified {
			converged, early = true, true
			break
		}
	}

	return s.result(ws, x, y, kappa, iters, converged, early, &cert)
}

// result builds a solve's Result from its final iterate x, which lives in
// ws, with x's row magnitudes left in ws.mags for solve to copy out. The
// objective is formed in ws.av, and the certificate's grown nonzero-row list
// is handed back to ws for the next solve.
func (s *Solver) result(ws *workspace, x, y *cmat.Matrix, kappa float64, iters int, converged, early bool, cert *gapCert) Result {
	rowMagsInto(x, ws.mags)
	res := Result{
		Solver:       s.opts.method.String(),
		Iterations:   iters,
		Converged:    converged,
		EarlyStopped: early,
		Objective:    s.objective(x, y, kappa, &ws.av, ws.kscratch),
	}
	res.Gap = cert.gap(res.Objective)
	ws.nz = cert.nz[:0]
	s.tele.record(&res)
	return res
}
