package sparse

import (
	"math"

	"roarray/internal/cmat"
)

// WarmState carries solver iterate state between related solves on one
// dictionary, implementing the warm starts of Boyd et al.'s ADMM monograph
// (the paper's reference [18]): when consecutive measurement blocks are
// similar — the packets of one burst, or micro-batch neighbors on a serving
// path — seeding the splitting variables from the previous solution lets the
// solver meet its stopping criterion in a fraction of the cold iteration
// count.
//
// A WarmState is only a seed, never a constraint: an incompatible state
// (different method, atom count, or snapshot count) is ignored and the solve
// runs cold. After every solve through SolveMultiWarm the state is
// overwritten with the final iterates, so chaining calls with one WarmState
// threads the solver state through a packet sequence. The zero value is an
// empty (cold) state, ready to use.
//
// A WarmState is not safe for concurrent use; callers sharing one across
// goroutines must clone under their own lock (see core's per-dictionary warm
// caches).
type WarmState struct {
	method Method
	n, k   int
	// primary is the last primal iterate (ADMM's z, the proximal methods'
	// x); dual is ADMM's scaled dual u (nil for proximal methods).
	primary *cmat.Matrix
	dual    *cmat.Matrix
	valid   bool
}

// Valid reports whether the state holds a previous solution.
func (w *WarmState) Valid() bool { return w != nil && w.valid }

// Clone returns an independent deep copy of the state (nil stays nil).
func (w *WarmState) Clone() *WarmState {
	if w == nil {
		return nil
	}
	c := *w
	if w.primary != nil {
		c.primary = w.primary.Clone()
	}
	if w.dual != nil {
		c.dual = w.dual.Clone()
	}
	return &c
}

// seedable reports whether the state can seed a solve of the given shape.
func (w *WarmState) seedable(m Method, n, k int) bool {
	return w.Valid() && w.method == m && w.n == n && w.k == k
}

// store overwrites the state with the final iterates of a completed solve.
// The matrices are cloned so the solver's scratch stays private.
func (w *WarmState) store(m Method, n, k int, primary, dual *cmat.Matrix) {
	if w == nil {
		return
	}
	w.method, w.n, w.k = m, n, k
	w.primary = primary.Clone()
	if dual != nil {
		w.dual = dual.Clone()
	} else {
		w.dual = nil
	}
	w.valid = true
}

// SolveMultiWarm is SolveMulti seeded from (and updating) ws. A nil or
// incompatible ws runs the solve cold, bit-identical to SolveMulti; a
// compatible one seeds the iterates from the previous solution and sets
// Result.Warm. In either case, when ws is non-nil it holds the final solver
// state on return, ready to seed the next solve in a sequence.
func (s *Solver) SolveMultiWarm(y *cmat.Matrix, kappa float64, ws *WarmState) (*Result, error) {
	if err := s.checkProblem(y, kappa); err != nil {
		return nil, err
	}
	switch s.opts.method {
	case MethodADMM:
		return s.solveADMMWeighted(y, kappa, nil, ws)
	default:
		return s.solveProximal(y, kappa, ws)
	}
}

// specResidualSlack gates the spectrum-stability stop on the solver's real
// convergence measure. Spectrum stationarity alone is unsound: on joint
// AoA/ToA dictionaries ADMM can sit on a plateau with a frozen — and wrong —
// argmax for hundreds of iterations (per-iteration spectrum change decaying
// below any practical tol) before the support jumps to the true atom. Plateau
// iterates still carry primal/dual residuals orders of magnitude above the
// stopping tolerance, while a genuinely near-converged solve (e.g. one warm
// started from the previous packet of a burst) sits within a small factor of
// it. Requiring residuals <= slack * eps therefore separates the two regimes:
// large enough to let warm starts cash in their head start well before full
// residual convergence, small enough that plateau iterates never pass.
const specResidualSlack = 50.0

// specStop implements the spectrum-stability early stop enabled by
// WithSpectrumStop: iteration ends once the per-atom magnitude spectrum —
// the only part of the iterate downstream peak detection consumes — has been
// stationary (relative l2 change <= tol) for patience consecutive
// iterations. This is how warm starts translate into saved iterations on
// problems whose full primal/dual residuals converge far more slowly than
// the support does. A nil *specStop (the default) records nothing and never
// stops, leaving the legacy iteration path bit-identical.
type specStop struct {
	tol      float64
	patience int
	prev     []float64
	streak   int
	primed   bool
}

func newSpecStop(o options, n int) *specStop {
	if o.specTol <= 0 || o.specPatience <= 0 {
		return nil
	}
	return &specStop{
		tol:      o.specTol,
		patience: o.specPatience,
		prev:     make([]float64, n),
	}
}

// stable folds in the current iterate's row magnitudes (mags, which the
// caller computed and keeps owning) and reports whether the spectrum has now
// been stationary for patience consecutive iterations.
func (s *specStop) stable(mags []float64) bool {
	if s == nil {
		return false
	}
	if !s.primed {
		s.primed = true
		copy(s.prev, mags)
		return false
	}
	var dn, n2 float64
	for i, c := range mags {
		d := c - s.prev[i]
		dn += d * d
		n2 += c * c
	}
	copy(s.prev, mags)
	if dn <= s.tol*s.tol*math.Max(n2, 1e-24) {
		s.streak++
	} else {
		s.streak = 0
	}
	return s.streak >= s.patience
}
