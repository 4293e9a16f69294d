// Package core implements the paper's primary contribution: ROArray's
// sparse-recovery AoA estimation (Eq. 7-11), joint AoA/ToA estimation over a
// space-delay dictionary (Eq. 13-18), smallest-ToA direct path
// identification, l1-SVD multi-packet fusion (Sec. III-D), spectrum-driven
// phase autocalibration, and RSSI-weighted multi-AP localization (Eq. 19).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"roarray/internal/cmat"
	"roarray/internal/obs"
	"roarray/internal/sparse"
	"roarray/internal/spectra"
	"roarray/internal/wireless"
)

// ErrNoPeaks is returned when a spectrum contains no usable peaks.
var ErrNoPeaks = errors.New("core: spectrum has no peaks")

// Config parameterizes an Estimator.
type Config struct {
	Array wireless.Array
	OFDM  wireless.OFDM
	// ThetaGrid holds the AoA sampling grid in degrees; nil selects 2-degree
	// spacing over [0,180] (Ntheta = 91, within the paper's Ntheta = 90
	// working point).
	ThetaGrid []float64
	// TauGrid holds the ToA sampling grid in seconds; nil selects Ntau = 50
	// points over [0, tau_max] as in the paper's Sec. III-C example.
	TauGrid []float64
	// KappaRatio scales the sparsity weight kappa relative to kappa_max =
	// max_i |A_iᴴ y| (above which the solution is identically zero).
	// Zero selects 0.25.
	KappaRatio float64
	// MaxPaths bounds the number of dominant paths assumed for fusion
	// truncation; zero selects 5, the paper's sparsity working point.
	MaxPaths int
	// PeakThreshold is the relative power floor for direct-path candidate
	// peaks; zero selects 0.3.
	PeakThreshold float64
	// SolverOptions are passed to the underlying sparse solvers (method,
	// iteration caps, hooks, ...).
	SolverOptions []sparse.Option
	// Warm enables warm-started solving: per-dictionary caches seed each
	// solve from the most recent solution of the same shape (the previous
	// packet of a burst, or a micro-batch neighbor on the serving path), and
	// a spectrum-stability early stop (sparse.WithSpectrumStop, prepended to
	// SolverOptions so explicit options still win) converts the good seed
	// into saved iterations. Warm solves can end at different iterates than
	// cold ones (within solver tolerance), so the bit-reproducible
	// evaluation pipeline leaves this off; the serving path turns it on.
	Warm bool
	// Search tunes the Eq. 19 localization grid search (see SearchConfig).
	// The zero value selects the branch-and-bound strategy, which is
	// bit-identical to the flat scan by construction.
	Search SearchConfig
	// Fallback enables the solver fallback chain: when the primary solve
	// errors or exhausts its iteration budget without converging, the
	// estimator retries on a FISTA solver sharing the same dictionary and,
	// failing that, falls back to greedy OMP on the dominant snapshot —
	// trading optimality for a usable spectrum. The engaged solver is
	// recorded in Result.Solver and the core.solve.fallback_* counters.
	// Default false: fallback changes which result a non-converged solve
	// returns, so the bit-reproducible evaluation pipeline leaves it off.
	Fallback bool
	// Metrics, when non-nil, receives estimation telemetry: dictionary
	// build/cache-hit counters, solve latency histograms, and — via
	// sparse.WithMetrics, which is appended to SolverOptions automatically —
	// solver iteration counts and convergence failures. Nil (the default)
	// disables all recording; the hot path then pays only nil checks.
	Metrics *obs.Registry
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.ThetaGrid == nil {
		out.ThetaGrid = spectra.UniformGrid(0, 180, 91)
	}
	if out.TauGrid == nil {
		out.TauGrid = spectra.UniformGrid(0, out.OFDM.MaxToA(), 50)
	}
	if out.KappaRatio == 0 {
		out.KappaRatio = 0.25
	}
	if out.MaxPaths == 0 {
		out.MaxPaths = 5
	}
	if out.PeakThreshold == 0 {
		out.PeakThreshold = 0.3
	}
	return out
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if err := c.Array.Validate(); err != nil {
		return err
	}
	if err := c.OFDM.Validate(); err != nil {
		return err
	}
	if c.KappaRatio < 0 || c.KappaRatio >= 1 {
		return fmt.Errorf("core: kappa ratio %v outside [0,1)", c.KappaRatio)
	}
	if c.MaxPaths < 0 {
		return fmt.Errorf("core: negative max paths %d", c.MaxPaths)
	}
	if c.PeakThreshold < 0 || c.PeakThreshold > 1 {
		return fmt.Errorf("core: peak threshold %v outside [0,1]", c.PeakThreshold)
	}
	return nil
}

// Estimator runs ROArray's sparse-recovery estimation. Dictionaries and
// their solver factorizations are built once and cached, so repeated
// estimates (across packets, locations, and APs sharing a configuration)
// amortize the setup cost.
type Estimator struct {
	cfg Config
	met *estimatorMetrics // nil when cfg.Metrics is nil

	aoaOnce   sync.Once
	aoaSolver *sparse.Solver
	aoaErr    error

	jointOnce   sync.Once
	jointSolver *sparse.Solver
	jointErr    error

	// Fallback solvers (FISTA over the same dictionaries), built lazily the
	// first time the chain engages so fault-free runs never pay for them.
	aoaFBOnce   sync.Once
	aoaFB       *sparse.Solver
	aoaFBErr    error
	jointFBOnce sync.Once
	jointFB     *sparse.Solver
	jointFBErr  error

	// Per-dictionary warm-start caches (Config.Warm), keyed by snapshot
	// count: solves of the same shape against the same dictionary seed each
	// other. Each lives alongside the solver cache it accelerates.
	aoaWarm   warmSlot
	jointWarm warmSlot
}

// warmSlot is a concurrency-safe cache of the most recent solver state per
// measurement shape (snapshot count). take hands out an independent clone so
// the solver can mutate it lock-free; put installs the updated state with
// last-writer-wins semantics — under concurrency any recent state is an
// equally good seed, correctness never depends on which one survives.
type warmSlot struct {
	mu  sync.Mutex
	byK map[int]*sparse.WarmState
}

func (s *warmSlot) take(k int) *sparse.WarmState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ws := s.byK[k]; ws != nil {
		return ws.Clone()
	}
	return &sparse.WarmState{}
}

func (s *warmSlot) put(k int, ws *sparse.WarmState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byK == nil {
		s.byK = make(map[int]*sparse.WarmState)
	}
	s.byK[k] = ws
}

// estimatorMetrics caches the estimator's metric handles, resolved once at
// NewEstimator. Keeping handles (not names) on the hot path means a metered
// estimator pays map lookups only at construction, and a disabled one pays a
// single nil check per record site.
type estimatorMetrics struct {
	dictBuilds   *obs.Counter
	dictHits     *obs.Counter
	solveSeconds *obs.Histogram

	fallbackEngaged *obs.Counter // primary solve failed/non-converged, chain entered
	fallbackFISTA   *obs.Counter // FISTA retry converged and was used
	fallbackOMP     *obs.Counter // greedy OMP terminal fallback was used

	warmEngaged   *obs.Counter // solves seeded from a cached warm state
	warmIterSaved *obs.Counter // iterations saved vs the solver's cap
	warmRejected  *obs.Counter // seeds that lost to the cold start's objective
}

func newEstimatorMetrics(reg *obs.Registry) *estimatorMetrics {
	if reg == nil {
		return nil
	}
	return &estimatorMetrics{
		dictBuilds:      reg.Counter("core.dict.builds_total"),
		dictHits:        reg.Counter("core.dict.cache_hits_total"),
		solveSeconds:    reg.Histogram("core.solve.seconds", obs.ExpBuckets(0.0005, 2, 16)...),
		fallbackEngaged: reg.Counter("core.solve.fallback_engaged_total"),
		fallbackFISTA:   reg.Counter("core.solve.fallback_fista_total"),
		fallbackOMP:     reg.Counter("core.solve.fallback_omp_total"),
		warmEngaged:     reg.Counter("core.warmstart.engaged_total"),
		warmIterSaved:   reg.Counter("core.warmstart.iter_saved"),
		warmRejected:    reg.Counter("core.warmstart.rejected_total"),
	}
}

// NewEstimator validates cfg and returns an estimator. Grid and solver
// defaults are applied here.
func NewEstimator(cfg Config) (*Estimator, error) {
	full := cfg.withDefaults()
	if err := full.Validate(); err != nil {
		return nil, err
	}
	if len(full.ThetaGrid) == 0 || len(full.TauGrid) == 0 {
		return nil, fmt.Errorf("core: empty estimation grids")
	}
	if full.Warm {
		// Prepend the spectrum-stability stop so explicit caller options can
		// still override it. Without an early stop a warm seed changes which
		// iterate a capped solve ends at but not how long it runs; with it,
		// a seed near the solution ends the solve within a few iterations.
		opts := make([]sparse.Option, 0, len(full.SolverOptions)+1)
		opts = append(opts, sparse.WithSpectrumStop(warmSpecTol, warmSpecPatience))
		full.SolverOptions = append(opts, full.SolverOptions...)
	}
	if full.Metrics != nil {
		// Thread the registry into the sparse solvers without mutating the
		// caller's option slice.
		opts := make([]sparse.Option, 0, len(full.SolverOptions)+1)
		opts = append(opts, full.SolverOptions...)
		full.SolverOptions = append(opts, sparse.WithMetrics(full.Metrics))
	}
	return &Estimator{cfg: full, met: newEstimatorMetrics(full.Metrics)}, nil
}

// Warm-mode spectrum-stop defaults: the solve ends once the magnitude
// spectrum has moved by less than 0.01% (relative l2) for 3 consecutive
// iterations — far tighter than the grid quantization downstream peak
// detection imposes, and loose enough to convert warm seeds into large
// iteration savings.
const (
	warmSpecTol      = 1e-4
	warmSpecPatience = 3
)

// Config returns the effective (default-filled) configuration.
func (e *Estimator) Config() Config { return e.cfg }

// Warmup eagerly builds both cached solvers (AoA and joint space-delay
// dictionaries plus their factorizations). Normally they are built lazily on
// the first estimate; a venue cache calls Warmup at load time instead, so the
// whole dictionary cost is paid once inside the (deduplicated, metered) load
// and never on a request's critical path.
func (e *Estimator) Warmup() error {
	if _, err := e.getAoASolver(); err != nil {
		return fmt.Errorf("core: warmup AoA solver: %w", err)
	}
	if _, err := e.getJointSolver(); err != nil {
		return fmt.Errorf("core: warmup joint solver: %w", err)
	}
	return nil
}

// FootprintBytes estimates the resident size of the estimator's heavy state:
// the AoA dictionary (M x Ntheta) and its ADMM Cholesky factor (M x M), the
// joint space-delay dictionary (M*L x Ntheta*Ntau), and the joint solver's
// ridge-step factorization. That factorization is the dense (M*L)² Cholesky
// of rho I + A Aᴴ, except in warm mode, where the joint solver iterates on
// the Kronecker factor pair (L x Ntau delay, M x Ntheta AoA), keeps the
// conjugate of each factor for its adjoint matvec, and holds the
// block-diagonal form instead: M Ntau x Ntau blocks H_m and the rotated
// M x Ntheta AoA factor S' with its conjugate. Complex128 entries are 16
// bytes. The joint dictionary term dominates at paper dimensions (90 x 3 x
// 30 x 50 columns ~ 580 MB would be absurd; real venues run reduced grids),
// which is exactly why a venue cache must budget on these bytes rather than
// venue count.
func (e *Estimator) FootprintBytes() int64 {
	const c = 16 // bytes per complex128
	m := int64(e.cfg.Array.NumAntennas)
	l := int64(e.cfg.OFDM.NumSubcarriers)
	nth := int64(len(e.cfg.ThetaGrid))
	ntu := int64(len(e.cfg.TauGrid))
	ml := m * l
	b := m*nth*c + ml*nth*ntu*c // AoA + joint dictionaries
	b += m * m * c              // AoA ADMM Cholesky factor
	if e.cfg.Warm {
		b += 2 * (l*ntu*c + m*nth*c) // Kronecker delay/AoA factor pair + conjugates
		b += m*ntu*ntu*c + 2*m*nth*c // H_m blocks + rotated AoA factor S' + conjugate
	} else {
		b += ml * ml * c // joint ADMM Cholesky factor
	}
	return b
}

// BuildAoADictionary constructs the narrowband steering dictionary S~ of
// paper Eq. 6: one column s(theta_i) per grid angle, size M x Ntheta.
func BuildAoADictionary(arr wireless.Array, thetaGrid []float64) *cmat.Matrix {
	d := cmat.New(arr.NumAntennas, len(thetaGrid))
	for j, th := range thetaGrid {
		d.SetCol(j, arr.SteeringVector(th))
	}
	return d
}

// BuildJointDictionary constructs the space-delay dictionary S~_thetatau of
// paper Eq. 16: columns are s(theta_i, tau_t) ordered tau-major (all angles
// for tau_1, then all angles for tau_2, ...), size (M*L) x (Ntheta*Ntau).
func BuildJointDictionary(arr wireless.Array, ofdm wireless.OFDM, thetaGrid, tauGrid []float64) *cmat.Matrix {
	d := cmat.New(arr.NumAntennas*ofdm.NumSubcarriers, len(thetaGrid)*len(tauGrid))
	col := 0
	for _, tau := range tauGrid {
		for _, th := range thetaGrid {
			d.SetCol(col, wireless.JointSteeringVector(arr, ofdm, th, tau))
			col++
		}
	}
	return d
}

// BuildDelayDictionary constructs the delay factor of the joint dictionary:
// one column g(tau_t) = [1, Gamma, ..., Gamma^{L-1}]ᵀ per grid delay, size
// L x Ntau. Together with BuildAoADictionary it forms the Kronecker
// factorization of BuildJointDictionary — entry ((l*M+m), (t*Ntheta+i)) of
// the joint dictionary is g(tau_t)[l] * s(theta_i)[m] — which the sparse
// solver exploits via sparse.WithKronecker on the warm serving path.
func BuildDelayDictionary(ofdm wireless.OFDM, tauGrid []float64) *cmat.Matrix {
	d := cmat.New(ofdm.NumSubcarriers, len(tauGrid))
	col := make([]complex128, ofdm.NumSubcarriers)
	for t, tau := range tauGrid {
		gam := ofdm.PhaseFactor(tau)
		cur := complex(1, 0)
		for l := range col {
			col[l] = cur
			cur *= gam
		}
		d.SetCol(t, col)
	}
	return d
}

func (e *Estimator) getAoASolver() (*sparse.Solver, error) {
	built := false
	e.aoaOnce.Do(func() {
		built = true
		dict := BuildAoADictionary(e.cfg.Array, e.cfg.ThetaGrid)
		e.aoaSolver, e.aoaErr = sparse.NewSolver(dict, e.cfg.SolverOptions...)
	})
	e.recordDictAccess(built)
	return e.aoaSolver, e.aoaErr
}

func (e *Estimator) getJointSolver() (*sparse.Solver, error) {
	built := false
	e.jointOnce.Do(func() {
		built = true
		dict := BuildJointDictionary(e.cfg.Array, e.cfg.OFDM, e.cfg.ThetaGrid, e.cfg.TauGrid)
		opts := e.cfg.SolverOptions
		if e.cfg.Warm {
			// Warm mode declares the joint dictionary's Kronecker structure so
			// the solver iterates on the small delay and AoA factors (6,720
			// instead of 173,700 complex multiply-adds per x-update and
			// snapshot at the paper's dimensions). Appended
			// locally — never into cfg.SolverOptions, which the AoA solver
			// shares and whose dictionary has no such factorization.
			opts = append(opts[:len(opts):len(opts)],
				sparse.WithKronecker(
					BuildDelayDictionary(e.cfg.OFDM, e.cfg.TauGrid),
					BuildAoADictionary(e.cfg.Array, e.cfg.ThetaGrid)))
		}
		e.jointSolver, e.jointErr = sparse.NewSolver(dict, opts...)
	})
	e.recordDictAccess(built)
	return e.jointSolver, e.jointErr
}

// recordDictAccess counts a dictionary/factorization access: a build the
// first time a solver is touched, a cache hit on every reuse. The hit
// counter is how an operator sees the engine's amortization working — it
// should dwarf the build counter on a warm server.
func (e *Estimator) recordDictAccess(built bool) {
	if e.met == nil {
		return
	}
	if built {
		e.met.dictBuilds.Inc()
	} else {
		e.met.dictHits.Inc()
	}
}

// timedSolve runs the group-sparse solve under a span and a latency
// histogram. The time.Now pair is skipped entirely when metrics are
// disabled, keeping the nil-registry path free of clock reads. With
// Config.Fallback set, a failed or non-converged primary solve engages the
// fallback chain (fb builds the FISTA retry solver; OMP is the terminal
// stage); without it the primary outcome is returned untouched, preserving
// bit-identical legacy behavior. The returned stage names the fallback stage
// the accepted result came from ("" = primary); together with the result it
// feeds the SolveInfo that rides each LinkResult.
func (e *Estimator) timedSolve(ctx context.Context, solver *sparse.Solver, fb func() (*sparse.Solver, error), slot *warmSlot, y *cmat.Matrix, kappa float64) (*sparse.Result, string, error) {
	// Stage-boundary cancellation: a dead context skips the solve entirely.
	// (The solver's iteration loop itself is not interruptible; the worst
	// post-cancel overrun is one solve.)
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}
	_, sp := obs.StartSpan(ctx, "estimate.solve")
	var t0 time.Time
	if e.met != nil {
		t0 = time.Now()
	}
	var res *sparse.Result
	var err error
	if e.cfg.Warm && slot != nil {
		// Seed from (a clone of) the cached state for this shape and publish
		// the updated state back for the next solve on this dictionary.
		k := y.Cols()
		ws := slot.take(k)
		res, err = solver.SolveMultiWarm(y, kappa, ws)
		if err == nil {
			slot.put(k, ws)
		}
	} else {
		res, err = solver.SolveMulti(y, kappa)
	}
	if e.met != nil {
		// The latency exemplar ties this solve's bucket to the request that
		// exercised it — an empty id (untagged caller) records plainly.
		e.met.solveSeconds.ObserveExemplar(time.Since(t0).Seconds(), obs.RequestIDFrom(ctx))
		if err == nil {
			if res.Warm {
				e.met.warmEngaged.Inc()
				if saved := solver.MaxIters() - res.Iterations; saved > 0 {
					e.met.warmIterSaved.Add(int64(saved))
				}
			}
			if res.WarmRejected {
				e.met.warmRejected.Inc()
			}
		}
	}
	sp.End()
	if !e.cfg.Fallback || (err == nil && res.Converged) {
		return res, "", err
	}
	return e.fallbackSolve(ctx, solver, fb, y, kappa, res, err)
}

// fallbackSolve is the degradation chain behind Config.Fallback: retry the
// solve on a FISTA solver sharing the dictionary, and if that also fails to
// converge, take greedy OMP on the dominant snapshot column as the answer of
// last resort. When even OMP errors, the primary outcome is returned so the
// chain never makes things worse. The returned stage names where the
// accepted result came from ("fista", "omp", or "" for the primary outcome).
func (e *Estimator) fallbackSolve(ctx context.Context, primary *sparse.Solver, fb func() (*sparse.Solver, error), y *cmat.Matrix, kappa float64, primaryRes *sparse.Result, primaryErr error) (*sparse.Result, string, error) {
	_, sp := obs.StartSpan(ctx, "estimate.fallback")
	defer sp.End()
	if e.met != nil {
		e.met.fallbackEngaged.Inc()
	}
	if fb != nil {
		if retry, err := fb(); err == nil {
			if res, err := retry.SolveMulti(y, kappa); err == nil && res.Converged {
				if e.met != nil {
					e.met.fallbackFISTA.Inc()
				}
				return res, "fista", nil
			}
		}
	}
	if res, err := e.ompSolve(primary, y); err == nil {
		if e.met != nil {
			e.met.fallbackOMP.Inc()
		}
		return res, "omp", nil
	}
	return primaryRes, "", primaryErr
}

// ompSolve runs orthogonal matching pursuit on the strongest column of y
// (after l1-SVD fusion that is the dominant singular direction) and expands
// the support into a Result comparable with the convex solvers' RowMags.
func (e *Estimator) ompSolve(solver *sparse.Solver, y *cmat.Matrix) (*sparse.Result, error) {
	best, bestN := 0, -1.0
	for j := 0; j < y.Cols(); j++ {
		var n2 float64
		for _, v := range y.Col(j) {
			n2 += real(v)*real(v) + imag(v)*imag(v)
		}
		if n2 > bestN {
			best, bestN = j, n2
		}
	}
	dict := solver.Dict()
	atoms := e.cfg.MaxPaths
	if atoms > dict.Rows() {
		atoms = dict.Rows()
	}
	r, err := sparse.OMP(dict, y.Col(best), atoms, 1e-3)
	if err != nil {
		return nil, err
	}
	x := make([]complex128, dict.Cols())
	for i, j := range r.Support {
		if i < len(r.Coef) {
			x[j] = r.Coef[i]
		}
	}
	return &sparse.Result{
		Solver:     "omp",
		X:          [][]complex128{x},
		RowMags:    r.Spectrum(dict.Cols()),
		Iterations: len(r.Support),
		Converged:  true,
	}, nil
}

// aoaFallback lazily builds the FISTA retry solver over the AoA dictionary.
func (e *Estimator) aoaFallback(primary *sparse.Solver) func() (*sparse.Solver, error) {
	return func() (*sparse.Solver, error) {
		e.aoaFBOnce.Do(func() {
			e.aoaFB, e.aoaFBErr = sparse.NewSolver(primary.Dict(), e.fallbackOptions()...)
		})
		return e.aoaFB, e.aoaFBErr
	}
}

// jointFallback lazily builds the FISTA retry solver over the joint
// space-delay dictionary.
func (e *Estimator) jointFallback(primary *sparse.Solver) func() (*sparse.Solver, error) {
	return func() (*sparse.Solver, error) {
		e.jointFBOnce.Do(func() {
			e.jointFB, e.jointFBErr = sparse.NewSolver(primary.Dict(), e.fallbackOptions()...)
		})
		return e.jointFB, e.jointFBErr
	}
}

// fallbackOptions derives the retry solver's options: the caller's options
// with the method forced to FISTA (appended last, so it wins).
func (e *Estimator) fallbackOptions() []sparse.Option {
	opts := make([]sparse.Option, 0, len(e.cfg.SolverOptions)+1)
	opts = append(opts, e.cfg.SolverOptions...)
	return append(opts, sparse.WithMethod(sparse.MethodFISTA))
}

// kappaFor selects the sparsity weight for a measurement block:
// KappaRatio * max row norm of AᴴY, the standard scale-free choice. The
// correlation runs through the solver so Kronecker-structured dictionaries
// use their factored fast path.
func kappaFor(solver *sparse.Solver, y *cmat.Matrix, ratio float64) float64 {
	g := solver.DictMulH(y)
	mx := 0.0
	for i := 0; i < g.Rows(); i++ {
		var n2 float64
		for j := 0; j < g.Cols(); j++ {
			v := g.At(i, j)
			n2 += real(v)*real(v) + imag(v)*imag(v)
		}
		if n2 > mx {
			mx = n2
		}
	}
	return ratio * math.Sqrt(mx)
}

// EstimateAoA recovers the sparse AoA spectrum of paper Eq. 11 from one CSI
// measurement, treating the L subcarriers as snapshots that share a common
// angular support (group sparsity across subcarriers).
func (e *Estimator) EstimateAoA(csi *wireless.CSI) (*spectra.Spectrum1D, error) {
	return e.EstimateAoACtx(context.Background(), csi)
}

// EstimateAoACtx is EstimateAoA with stage tracing: when ctx carries an
// obs.Tracer it emits "estimate.aoa" with "estimate.dict" and
// "estimate.solve" children.
func (e *Estimator) EstimateAoACtx(ctx context.Context, csi *wireless.CSI) (*spectra.Spectrum1D, error) {
	if csi.NumAntennas != e.cfg.Array.NumAntennas {
		return nil, fmt.Errorf("core: CSI has %d antennas, config has %d", csi.NumAntennas, e.cfg.Array.NumAntennas)
	}
	ctx, sp := obs.StartSpan(ctx, "estimate.aoa")
	defer sp.End()
	_, spd := obs.StartSpan(ctx, "estimate.dict")
	solver, err := e.getAoASolver()
	spd.End()
	if err != nil {
		return nil, fmt.Errorf("core: build AoA solver: %w", err)
	}
	y := cmat.New(csi.NumAntennas, csi.NumSubcarriers)
	for m := 0; m < csi.NumAntennas; m++ {
		for l := 0; l < csi.NumSubcarriers; l++ {
			y.Set(m, l, csi.Data[m][l])
		}
	}
	kappa := kappaFor(solver, y, e.cfg.KappaRatio)
	res, _, err := e.timedSolve(ctx, solver, e.aoaFallback(solver), &e.aoaWarm, y, kappa)
	if err != nil {
		return nil, fmt.Errorf("core: AoA solve: %w", err)
	}
	spec, err := spectra.NewSpectrum1D(append([]float64(nil), e.cfg.ThetaGrid...), res.RowMags)
	if err != nil {
		return nil, err
	}
	return spec.Normalize(), nil
}

// EstimateJoint recovers the joint AoA/ToA spectrum of paper Eq. 18 from a
// single packet by solving over the stacked space-delay dictionary.
func (e *Estimator) EstimateJoint(csi *wireless.CSI) (*spectra.Spectrum2D, error) {
	spec, _, err := e.estimateJointBlock(context.Background(), []*wireless.CSI{csi}, 1)
	return spec, err
}

// EstimateJointCtx is EstimateJoint with stage tracing.
func (e *Estimator) EstimateJointCtx(ctx context.Context, csi *wireless.CSI) (*spectra.Spectrum2D, error) {
	spec, _, err := e.estimateJointBlock(ctx, []*wireless.CSI{csi}, 1)
	return spec, err
}

// EstimateJointFused coherently fuses a burst of packets (Sec. III-D): the
// stacked measurements form Y = [y_1 ... y_P], the SVD keeps the strongest
// min(MaxPaths, P) left singular directions, and the l2,1 group-sparse
// program is solved over the reduced block — the l1-SVD method of
// Malioutov et al. that both shrinks the problem and averages noise
// coherently.
func (e *Estimator) EstimateJointFused(packets []*wireless.CSI) (*spectra.Spectrum2D, error) {
	return e.EstimateJointFusedCtx(context.Background(), packets)
}

// EstimateJointFusedCtx is EstimateJointFused with stage tracing: when ctx
// carries an obs.Tracer it emits "estimate.sanitize" (delay alignment and
// interference screening), "estimate.dict", "estimate.fuse" (the l1-SVD
// compression), and "estimate.solve" spans.
func (e *Estimator) EstimateJointFusedCtx(ctx context.Context, packets []*wireless.CSI) (*spectra.Spectrum2D, error) {
	spec, _, err := e.EstimateJointFusedInfoCtx(ctx, packets)
	return spec, err
}

// EstimateJointFusedInfoCtx is EstimateJointFusedCtx returning, in addition,
// the SolveInfo describing which solver (and which fallback stage, if any)
// produced the accepted spectrum.
func (e *Estimator) EstimateJointFusedInfoCtx(ctx context.Context, packets []*wireless.CSI) (*spectra.Spectrum2D, SolveInfo, error) {
	if len(packets) == 0 {
		return nil, SolveInfo{}, fmt.Errorf("core: fusion needs at least one packet")
	}
	// Fusion is only coherent if the packets share a delay reference; the
	// per-packet detection delay is estimated by matched filtering and
	// compensated first (the paper's delay-estimation step), with
	// consensus-based outlier rejection against interfered packets.
	_, sps := obs.StartSpan(ctx, "estimate.sanitize")
	aligned := AlignAndFilter(packets, e.cfg.OFDM)
	sps.End()
	return e.estimateJointBlock(ctx, aligned, e.cfg.MaxPaths)
}

func (e *Estimator) estimateJointBlock(ctx context.Context, packets []*wireless.CSI, keep int) (*spectra.Spectrum2D, SolveInfo, error) {
	_, spd := obs.StartSpan(ctx, "estimate.dict")
	solver, err := e.getJointSolver()
	spd.End()
	if err != nil {
		return nil, SolveInfo{}, fmt.Errorf("core: build joint solver: %w", err)
	}
	ml := e.cfg.Array.NumAntennas * e.cfg.OFDM.NumSubcarriers
	y := cmat.New(ml, len(packets))
	for p, pkt := range packets {
		v := pkt.StackedVector()
		if len(v) != ml {
			return nil, SolveInfo{}, fmt.Errorf("core: packet %d has %d samples, want %d", p, len(v), ml)
		}
		y.SetCol(p, v)
	}
	if len(packets) > 1 {
		_, spf := obs.StartSpan(ctx, "estimate.fuse")
		sv, err := cmat.SVDecompose(y)
		if err != nil {
			spf.End()
			return nil, SolveInfo{}, fmt.Errorf("core: fusion SVD: %w", err)
		}
		keep = fusionRank(sv.S, keep, len(packets))
		y = sv.TruncateLeft(keep)
		spf.End()
	}
	kappa := kappaFor(solver, y, e.cfg.KappaRatio)
	res, stage, err := e.timedSolve(ctx, solver, e.jointFallback(solver), &e.jointWarm, y, kappa)
	if err != nil {
		return nil, SolveInfo{}, fmt.Errorf("core: joint solve: %w", err)
	}
	spec, err := e.reshapeJoint(res.RowMags)
	if err != nil {
		return nil, SolveInfo{}, err
	}
	return spec, solveInfoFor(res, stage), nil
}

// fusionRank decides how many left singular directions the l1-SVD fusion
// keeps. Directions dominated by noise dilute the group-sparse row norms
// and can make fusion worse than a single packet, so the rank is the number
// of singular values clearly above the noise tail (estimated from the
// smallest ones), clamped to [1, maxPaths] and to at most half the packets
// (below that the SVD has no tail to estimate noise from).
func fusionRank(sigma []float64, maxPaths, packets int) int {
	if len(sigma) == 0 {
		return 1
	}
	cap := maxPaths
	if half := (packets + 1) / 2; half < cap {
		cap = half
	}
	if cap < 1 {
		cap = 1
	}
	if cap > len(sigma) {
		cap = len(sigma)
	}
	// Noise floor: mean of the smallest third of the singular values.
	tail := len(sigma) / 3
	if tail < 1 {
		tail = 1
	}
	var floor float64
	for _, s := range sigma[len(sigma)-tail:] {
		floor += s
	}
	floor /= float64(tail)

	keep := 0
	for _, s := range sigma[:cap] {
		if s > 1.5*floor {
			keep++
		} else {
			break
		}
	}
	if keep < 1 {
		keep = 1
	}
	return keep
}

// reshapeJoint maps the flat coefficient magnitudes back onto the
// (theta, tau) grid using the tau-major column ordering of Eq. 16.
func (e *Estimator) reshapeJoint(mags []float64) (*spectra.Spectrum2D, error) {
	nth, ntu := len(e.cfg.ThetaGrid), len(e.cfg.TauGrid)
	if len(mags) != nth*ntu {
		return nil, fmt.Errorf("core: %d coefficients for %dx%d grid", len(mags), nth, ntu)
	}
	power := make([][]float64, nth)
	for i := range power {
		power[i] = make([]float64, ntu)
	}
	for t := 0; t < ntu; t++ {
		for i := 0; i < nth; i++ {
			power[i][t] = mags[t*nth+i]
		}
	}
	spec, err := spectra.NewSpectrum2D(
		append([]float64(nil), e.cfg.ThetaGrid...),
		append([]float64(nil), e.cfg.TauGrid...),
		power)
	if err != nil {
		return nil, err
	}
	return spec.Normalize(), nil
}

// DirectPath applies ROArray's rule (Sec. III-B): among spectrum peaks at or
// above the configured relative power threshold, the direct path is the one
// with the smallest ToA. The returned ToA is relative (it contains the
// unknown packet detection delay) — only its ordering is meaningful, which
// is all the rule needs.
func (e *Estimator) DirectPath(spec *spectra.Spectrum2D) (spectra.Peak, error) {
	// Aggregate adjacent-atom energy first: an off-grid path's l1 energy
	// splits across neighboring grid atoms, which would otherwise push a
	// real (direct) path below the power threshold while an exactly
	// on-grid reflection spikes.
	peaks := spec.Smooth3x3().Peaks(e.cfg.PeakThreshold)
	// A uniform linear array has no angular resolution at endfire
	// (d*cos(theta) is stationary at 0/180 degrees), so peaks hugging the
	// grid ends are artifacts; letting them into the candidate set would
	// let a noise spike hijack the smallest-ToA rule.
	filtered := peaks[:0]
	for _, p := range peaks {
		if p.ThetaDeg > 8 && p.ThetaDeg < 172 {
			filtered = append(filtered, p)
		}
	}
	peaks = filtered
	if len(peaks) == 0 {
		return spectra.Peak{}, ErrNoPeaks
	}
	if len(peaks) > e.cfg.MaxPaths {
		peaks = peaks[:e.cfg.MaxPaths]
	}
	// Tau values within half a grid step are indistinguishable; among such
	// ties the stronger peak is the more credible direct-path candidate.
	tol := tauStep(spec.Tau) / 2
	best := peaks[0]
	for _, p := range peaks[1:] {
		switch {
		case p.Tau < best.Tau-tol:
			best = p
		case p.Tau < best.Tau+tol && p.Power > best.Power:
			best = p
		}
	}
	return best, nil
}

// tauStep returns the (assumed uniform) spacing of the ToA grid.
func tauStep(tau []float64) float64 {
	if len(tau) < 2 {
		return 0
	}
	return (tau[len(tau)-1] - tau[0]) / float64(len(tau)-1)
}

// EstimateDirectAoA is the end-to-end single-link pipeline: joint (fused)
// spectrum, then smallest-ToA direct path. It accepts one or more packets.
func (e *Estimator) EstimateDirectAoA(packets []*wireless.CSI) (spectra.Peak, error) {
	return e.EstimateDirectAoACtx(context.Background(), packets)
}

// EstimateDirectAoACtx is EstimateDirectAoA with stage tracing: the fused
// estimation spans plus an "estimate.peak" span around direct-path
// selection.
func (e *Estimator) EstimateDirectAoACtx(ctx context.Context, packets []*wireless.CSI) (spectra.Peak, error) {
	peak, _, err := e.EstimateDirectAoAInfoCtx(ctx, packets)
	return peak, err
}

// EstimateDirectAoAInfoCtx is EstimateDirectAoACtx returning, in addition,
// the SolveInfo of the solve that produced the spectrum the peak was picked
// from — the per-link diagnostic the serving layer surfaces in its request
// log.
func (e *Estimator) EstimateDirectAoAInfoCtx(ctx context.Context, packets []*wireless.CSI) (spectra.Peak, SolveInfo, error) {
	spec, info, err := e.EstimateJointFusedInfoCtx(ctx, packets)
	if err != nil {
		return spectra.Peak{}, info, err
	}
	_, sp := obs.StartSpan(ctx, "estimate.peak")
	defer sp.End()
	peak, err := e.DirectPath(spec)
	return peak, info, err
}
