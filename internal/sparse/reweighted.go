package sparse

import (
	"fmt"
	"math"

	"roarray/internal/cmat"
)

// SolveWeighted minimizes 1/2||Ax-y||^2 + kappa * sum_i w_i |x_i| — the
// weighted LASSO. Weights must be positive and have length equal to the
// dictionary's column count; nil selects uniform weights (plain LASSO).
// Only the ADMM method supports weights (the cached factorization is weight
// independent, so re-solving with new weights is cheap).
func (s *Solver) SolveWeighted(y []complex128, kappa float64, weights []float64) (*Result, error) {
	if s.opts.method != MethodADMM {
		return nil, fmt.Errorf("sparse: weighted solve requires ADMM, got %v", s.opts.method)
	}
	if len(y) != s.a.Rows() {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrDimensionMismatch, len(y), s.a.Rows())
	}
	ym := cmat.New(len(y), 1)
	ym.SetCol(0, y)
	if err := s.checkProblem(ym, kappa); err != nil {
		return nil, err
	}
	if weights != nil {
		if len(weights) != s.a.Cols() {
			return nil, fmt.Errorf("sparse: %d weights for %d atoms", len(weights), s.a.Cols())
		}
		for i, w := range weights {
			if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("sparse: weight %d = %v must be positive and finite", i, w)
			}
		}
	}
	return s.solveADMMWeighted(ym, kappa, weights, nil)
}

// ReweightedResult reports the outcome of iteratively reweighted l1.
type ReweightedResult struct {
	// Result is the final round's solution.
	*Result
	// Rounds actually performed.
	Rounds int
}

// SolveReweighted runs iteratively reweighted l1 minimization (Candes,
// Wakin & Boyd 2008): each round solves a weighted LASSO with weights
// w_i = 1/(|x_i| + eps) from the previous solution, approximating the l0
// objective more closely than a single l1 solve and yielding sharper, less
// biased spectra. rounds >= 1; eps > 0 stabilizes the reweighting (a good
// default is ~10% of the expected peak magnitude; pass 0 to derive it from
// the first round's largest coefficient).
func (s *Solver) SolveReweighted(y []complex128, kappa float64, rounds int, eps float64) (*ReweightedResult, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("sparse: reweighted rounds must be >= 1, got %d", rounds)
	}
	if eps < 0 {
		return nil, fmt.Errorf("sparse: negative reweighting eps %v", eps)
	}
	res, err := s.SolveWeighted(y, kappa, nil)
	if err != nil {
		return nil, err
	}
	if eps == 0 {
		mx := 0.0
		for _, m := range res.RowMags {
			if m > mx {
				mx = m
			}
		}
		if mx == 0 {
			return &ReweightedResult{Result: res, Rounds: 1}, nil
		}
		eps = 0.1 * mx
	}
	for round := 2; round <= rounds; round++ {
		weights := make([]float64, len(res.RowMags))
		for i, m := range res.RowMags {
			weights[i] = eps / (m + eps) // normalized so max weight is <= 1
		}
		next, err := s.SolveWeighted(y, kappa, weights)
		if err != nil {
			return nil, err
		}
		res = next
	}
	return &ReweightedResult{Result: res, Rounds: rounds}, nil
}

// solveADMMWeighted is solveADMM with per-atom soft-threshold scaling and
// optional warm starting from (and back into) ws.
//
// Each iteration is one ridge step x = (v - Aᴴ(rho I + AAᴴ)⁻¹A v)/rho (the
// Woodbury identity; dense, or block-diagonal over the Kronecker factors)
// followed by a single row-major sweep (admmSweep) that forms x, shrinks
// x+u into z, updates u, prepares the next v = Aᴴy + rho(z-u), and
// accumulates every norm the stopping rules need plus z's row magnitudes.
// Per element the sweep performs the same floating-point operations, in the
// same order, as separate passes for each of those steps would, and each
// norm sums its terms in the same row-major order, so fusing them changes no
// bits (TestADMMSweepMatchesMultiPass pins this against a multi-pass copy).
func (s *Solver) solveADMMWeighted(y *cmat.Matrix, kappa float64, weights []float64, ws *WarmState) (*Result, error) {
	n := s.a.Cols()
	m := s.a.Rows()
	k := y.Cols()
	rho := s.opts.rho

	// All iteration scratch is allocated here, never inside the loop, and
	// never stored on the Solver (Solvers are shared across goroutines). The
	// batched kernels traverse the dictionary once per iteration for all k
	// snapshot columns while reproducing the legacy per-column operation order
	// bit for bit; the Kronecker path (when the factors were declared) swaps
	// in the factored ridge step instead.
	z := cmat.New(n, k)
	u := cmat.New(n, k)
	v := cmat.New(n, k)
	av := cmat.New(m, k)
	atw := cmat.New(n, k)
	mags := make([]float64, n)
	var w *cmat.Matrix
	var fwd, bwd, kscratch []complex128
	if s.kron != nil {
		kscratch = make([]complex128, s.kron.scratchLen(k))
	} else {
		w = cmat.New(m, k)
		fwd = make([]complex128, m)
		bwd = make([]complex128, m)
	}

	aty := cmat.New(n, k)
	if s.kron != nil {
		s.kron.mulHInto(y, aty, kscratch)
	} else {
		mulHInto(s.a, y, aty)
	}

	weightAt := func(i int) float64 {
		if weights == nil {
			return 1
		}
		return weights[i]
	}

	// Warm start: seed the splitting variable z and scaled dual u from the
	// previous solve's final iterates (Boyd et al. §4.3). The first x-update
	// immediately reconciles x with the seeded pair, so an accurate seed puts
	// the solve within a few iterations of its stopping point. The seed is
	// accepted only if its objective beats the zero cold start's 1/2||Y||_F^2
	// — a seed left over from an unrelated measurement (different location,
	// shuffled batch order) fails that test, and spending iterations escaping
	// a bad seed is strictly worse than starting cold.
	warm := ws.seedable(MethodADMM, n, k)
	warmRejected := false
	if warm {
		copyInto(z, ws.primary)
		copyInto(u, ws.dual)
		yn := y.FrobNorm()
		if s.seedObjective(z, y, kappa, weights, av, kscratch) >= 0.5*yn*yn {
			zeroMat(z)
			zeroMat(u)
			warm = false
			warmRejected = true
		}
	}
	stop := newSpecStop(s.opts, n)

	sw := admmSweep{
		v: v.Data(), atw: atw.Data(), z: z.Data(), u: u.Data(), aty: aty.Data(),
		k: k, rho: complex(rho, 0), inv: complex(1/rho, 0),
		shrink: newRowShrink(kappa, rho, weights), mags: mags,
	}
	if k > 1 {
		sw.xrow, sw.rowBuf = make([]complex128, k), make([]complex128, k)
	}
	for idx := range sw.v {
		sw.v[idx] = sw.aty[idx] + sw.rho*(sw.z[idx]-sw.u[idx])
	}
	dim := math.Sqrt(float64(n * k))
	iters := 0
	converged := false
	early := false
	for it := 1; it <= s.opts.maxIters; it++ {
		iters = it
		if s.kron != nil {
			s.kron.woodburyInto(v, atw, kscratch)
		} else {
			mulBatchInto(s.a, v, av)
			s.chol.SolveBatchInto(av, w, fwd, bwd)
			mulHBatchInto(s.a, w, atw)
		}
		var nm sweepNorms
		if k == 1 {
			nm = sw.sweep1()
		} else {
			nm = sw.sweepK()
		}

		// The spectrum stop folds in this iterate's magnitudes before the
		// hook sees the shared buffer.
		stable := stop.stable(mags)
		if s.opts.hook != nil {
			s.opts.hook(it, mags)
		}

		priRes := math.Sqrt(nm.xz2)
		dualRes := rho * math.Sqrt(nm.dz2)
		priEps := s.opts.absTol*dim + s.opts.relTol*math.Max(math.Sqrt(nm.x2), math.Sqrt(nm.z2))
		dualEps := s.opts.absTol*dim + s.opts.relTol*rho*math.Sqrt(nm.u2)
		if priRes <= priEps && dualRes <= dualEps {
			converged = true
			break
		}
		// A stationary spectrum is only trusted when the residuals are within
		// a slack factor of the full criterion — ADMM can hold a frozen (and
		// wrong) spectrum for hundreds of iterations before a support jump,
		// and those plateau iterates carry residuals far above tolerance (see
		// specResidualSlack).
		if stable && priRes <= specResidualSlack*priEps && dualRes <= specResidualSlack*dualEps {
			converged, early = true, true
			break
		}
	}

	ws.store(MethodADMM, n, k, z, u)
	rowMagsInto(z, mags)
	var l1 float64
	for i := 0; i < n; i++ {
		l1 += weightAt(i) * rowNorm(z.RowView(i))
	}
	var fit float64
	if s.kron != nil {
		s.kron.mulInto(z, av, kscratch)
		fit = subFrobNorm(av, y)
	} else {
		r := cmat.Sub(cmat.Mul(s.a, z), y)
		fit = r.FrobNorm()
	}
	res := &Result{
		Solver:       s.opts.method.String(),
		X:            matToColumns(z),
		RowMags:      mags,
		Iterations:   iters,
		Converged:    converged,
		EarlyStopped: early,
		Warm:         warm,
		WarmRejected: warmRejected,
		Objective:    0.5*fit*fit + kappa*l1,
	}
	s.tele.record(res)
	return res, nil
}

// rowShrink holds the group soft threshold t_i = kappa*w_i/rho of every
// coefficient row and its sqrt-free zero bound (zeroBound), computed once
// per solve: a scalar pair for uniform weights, per-atom slices otherwise.
type rowShrink struct {
	t, bound   float64
	ts, bounds []float64 // nil for uniform weights
}

func newRowShrink(kappa, rho float64, weights []float64) rowShrink {
	if weights == nil {
		t := kappa * 1 / rho // the per-atom expression with w_i = 1
		return rowShrink{t: t, bound: zeroBound(t)}
	}
	r := rowShrink{ts: make([]float64, len(weights)), bounds: make([]float64, len(weights))}
	for i, w := range weights {
		r.ts[i] = kappa * w / rho
		r.bounds[i] = zeroBound(r.ts[i])
	}
	return r
}

func (r *rowShrink) at(i int) (t, bound float64) {
	if r.ts == nil {
		return r.t, r.bound
	}
	return r.ts[i], r.bounds[i]
}

// zeroBound returns a bound b such that a row whose squared norm n2 is below
// b satisfies sqrt(n2) <= t, so the sweep can shrink it to zero without
// taking the square root. b = fl(fl(t·t)·(1-2⁻⁵⁰)) is at most fl(t·t)
// (rounding is monotone), and a float below fl(t·t) is below the real t²
// (fl rounds to nearest), so n2 < b gives sqrt(n2) < t exactly, and
// rounding the square root cannot carry it past the representable t. The
// 2⁻⁵⁰ margin keeps b a relative 2⁻⁵⁰ clear of t²; below t = 2⁻⁵¹¹, where
// t·t leaves the normal range and that relative margin no longer holds,
// b = 0 disables the shortcut (squared norms are never negative). A t whose
// square overflows gives b = +Inf, which stays sound: the square root of
// any finite n2 is at most that t.
func zeroBound(t float64) float64 {
	if t >= 0x1p-511 {
		return t * t * (1 - 0x1p-50)
	}
	return 0
}

// zeroRow reports whether a row of squared norm n2 shrinks to zero under
// threshold t, i.e. sqrt(n2) <= t, taking the square root only when n2 is
// not below bound = zeroBound(t). A surviving row's norm is returned in n.
func zeroRow(n2, t, bound float64) (n float64, zero bool) {
	if n2 < bound {
		return 0, true
	}
	n = math.Sqrt(n2)
	return n, n <= t
}

// admmSweep is the per-iteration row sweep of solveADMMWeighted over its
// row-major n x k iterates. A row whose x+u has norm at most its threshold
// shrinks to exactly zero, and the sweep then takes the zero-z form of every
// term: no shrink multiply, no ‖z‖² or magnitude term (both add +0), and
// ‖z-z_prev‖², ‖x-z‖² and u+x-z summed from z_prev, x and u+x directly.
// Those forms are bit-equal to the general ones: for any a, a-(+0) = a
// exactly and (0-a)² = a². The next v keeps the subtraction 0-u, which can
// differ from -u in the sign of a zero.
type admmSweep struct {
	v, atw, z, u, aty []complex128
	k                 int
	rho, inv          complex128
	shrink            rowShrink
	mags              []float64
	xrow, rowBuf      []complex128 // k-long row scratch, k > 1 only
}

// sweepNorms are the squared norms one sweep accumulates: ‖x-z‖²,
// ‖z-z_prev‖², ‖x‖², ‖z‖² and ‖u‖².
type sweepNorms struct{ xz2, dz2, x2, z2, u2 float64 }

// sweep1 is the sweep for a single snapshot column, with one coefficient per
// row and no row scratch.
func (s *admmSweep) sweep1() (nm sweepNorms) {
	vd := s.v
	atw, zd, ud, aty, mags := s.atw[:len(vd)], s.z[:len(vd)], s.u[:len(vd)], s.aty[:len(vd)], s.mags[:len(vd)]
	rho, inv := s.rho, s.inv
	for i := range vd {
		t, bound := s.shrink.at(i)
		x := (vd[i] - atw[i]) * inv
		r := x + ud[i]
		n2 := real(r)*real(r) + imag(r)*imag(r)
		zo := zd[i]
		n, zero := zeroRow(n2, t, bound)
		if zero {
			xx := real(x)*real(x) + imag(x)*imag(x)
			un := ud[i] + x
			nm.dz2 += real(zo)*real(zo) + imag(zo)*imag(zo)
			nm.xz2 += xx
			nm.x2 += xx
			nm.u2 += real(un)*real(un) + imag(un)*imag(un)
			zd[i], ud[i] = 0, un
			vd[i] = aty[i] + rho*(0-un)
			mags[i] = 0
			continue
		}
		zn := complex(1-t/n, 0) * r
		d := zn - zo
		nm.dz2 += real(d)*real(d) + imag(d)*imag(d)
		un := ud[i] + x - zn
		d = x - zn
		nm.xz2 += real(d)*real(d) + imag(d)*imag(d)
		nm.x2 += real(x)*real(x) + imag(x)*imag(x)
		zz := real(zn)*real(zn) + imag(zn)*imag(zn)
		nm.z2 += zz
		nm.u2 += real(un)*real(un) + imag(un)*imag(un)
		zd[i], ud[i] = zn, un
		vd[i] = aty[i] + rho*(zn-un)
		mags[i] = math.Sqrt(zz)
	}
	return nm
}

// sweepK is the sweep for k > 1 snapshot columns: each row is formed into
// xrow and x+u into rowBuf, then group-shrunk as a whole.
func (s *admmSweep) sweepK() (nm sweepNorms) {
	k := s.k
	vd, atw, zd, ud, aty := s.v, s.atw, s.z, s.u, s.aty
	xrow, rowBuf := s.xrow[:k], s.rowBuf[:k]
	rho, inv := s.rho, s.inv
	for i := range s.mags {
		lo := i * k
		t, bound := s.shrink.at(i)
		var n2 float64
		for j := range xrow {
			x := (vd[lo+j] - atw[lo+j]) * inv
			r := x + ud[lo+j]
			xrow[j], rowBuf[j] = x, r
			n2 += real(r)*real(r) + imag(r)*imag(r)
		}
		n, zero := zeroRow(n2, t, bound)
		if zero {
			for j, x := range xrow {
				zo := zd[lo+j]
				xx := real(x)*real(x) + imag(x)*imag(x)
				un := ud[lo+j] + x
				nm.dz2 += real(zo)*real(zo) + imag(zo)*imag(zo)
				nm.xz2 += xx
				nm.x2 += xx
				nm.u2 += real(un)*real(un) + imag(un)*imag(un)
				zd[lo+j], ud[lo+j] = 0, un
				vd[lo+j] = aty[lo+j] + rho*(0-un)
			}
			s.mags[i] = 0
			continue
		}
		sc := complex(1-t/n, 0)
		var mag2 float64
		for j, x := range xrow {
			zn := sc * rowBuf[j]
			d := zn - zd[lo+j]
			nm.dz2 += real(d)*real(d) + imag(d)*imag(d)
			un := ud[lo+j] + x - zn
			d = x - zn
			nm.xz2 += real(d)*real(d) + imag(d)*imag(d)
			nm.x2 += real(x)*real(x) + imag(x)*imag(x)
			zz := real(zn)*real(zn) + imag(zn)*imag(zn)
			nm.z2 += zz
			nm.u2 += real(un)*real(un) + imag(un)*imag(un)
			mag2 += zz
			zd[lo+j], ud[lo+j] = zn, un
			vd[lo+j] = aty[lo+j] + rho*(zn-un)
		}
		s.mags[i] = math.Sqrt(mag2)
	}
	return nm
}
