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
// followed by a single row-major sweep that forms x, shrinks x+u into z,
// updates u, prepares the next v = Aᴴy + rho(z-u), and accumulates every
// norm the stopping rules need plus z's row magnitudes. Per element the
// sweep performs the same floating-point operations, in the same order, as
// separate passes for each of those steps would, and each norm sums its
// terms in the same row-major order, so fusing them changes no bits
// (TestADMMSweepMatchesMultiPass pins this against a multi-pass copy).
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
	xrow := make([]complex128, k)
	rowBuf := make([]complex128, k)
	mags := make([]float64, n)
	var w *cmat.Matrix
	var fwd, bwd, kscratch []complex128
	if s.kron != nil {
		kscratch = make([]complex128, s.kron.scratchLen())
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

	rhoC := complex(rho, 0)
	inv := complex(1/rho, 0)
	vd, atyD, zd, ud, atwD := v.Data(), aty.Data(), z.Data(), u.Data(), atw.Data()
	for idx := range vd {
		vd[idx] = atyD[idx] + rhoC*(zd[idx]-ud[idx])
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

		// xz2 = ||x-z||², dz2 = ||z-z_prev||², and the squared norms of x,
		// z and u, each summed in row-major order.
		var xz2, dz2, x2, z2, u2 float64
		for i := 0; i < n; i++ {
			lo := i * k
			for j := range xrow {
				xrow[j] = (vd[lo+j] - atwD[lo+j]) * inv
				rowBuf[j] = xrow[j] + ud[lo+j]
			}
			GroupSoftThreshold(rowBuf, rowBuf, kappa*weightAt(i)/rho)
			var mag2 float64
			for j, zn := range rowBuf {
				x := xrow[j]
				d := zn - zd[lo+j]
				dz2 += real(d)*real(d) + imag(d)*imag(d)
				un := ud[lo+j] + x - zn
				d = x - zn
				xz2 += real(d)*real(d) + imag(d)*imag(d)
				x2 += real(x)*real(x) + imag(x)*imag(x)
				z2 += real(zn)*real(zn) + imag(zn)*imag(zn)
				u2 += real(un)*real(un) + imag(un)*imag(un)
				mag2 += real(zn)*real(zn) + imag(zn)*imag(zn)
				zd[lo+j], ud[lo+j] = zn, un
				vd[lo+j] = atyD[lo+j] + rhoC*(zn-un)
			}
			mags[i] = math.Sqrt(mag2)
		}

		// The spectrum stop folds in this iterate's magnitudes before the
		// hook sees the shared buffer.
		stable := stop.stable(mags)
		if s.opts.hook != nil {
			s.opts.hook(it, mags)
		}

		priRes := math.Sqrt(xz2)
		dualRes := rho * math.Sqrt(dz2)
		priEps := s.opts.absTol*dim + s.opts.relTol*math.Max(math.Sqrt(x2), math.Sqrt(z2))
		dualEps := s.opts.absTol*dim + s.opts.relTol*rho*math.Sqrt(u2)
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
