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
	// Warm selects the serving solve profile. Its one effect is the
	// duality-gap stop on the joint solver: a joint solve ends once its
	// certificate shows it within 2% of optimal (sparse.WithGapStop(0.02),
	// prepended to SolverOptions so explicit options still win). Every joint
	// solve, with or without Warm, iterates on the Kronecker factors of the
	// space-delay dictionary; the AoA solver is the same under both. Every
	// solve starts cold, so a request's answer does not depend on which
	// requests came before it. The gap stop ends joint solves at different
	// iterates, so the bit-reproducible evaluation pipeline leaves this
	// off; the serving path turns it on.
	Warm bool
	// Search tunes the Eq. 19 localization grid search (see SearchConfig).
	// The zero value selects the branch-and-bound strategy, which is
	// bit-identical to the flat scan by construction.
	Search SearchConfig
	// Fallback enables the solver fallback chain, ADMM → OMP: when the
	// primary solve errors or exhausts its iteration budget without
	// converging (meeting neither its residual criterion nor, under the
	// serving profile, its duality-gap certificate), the estimator takes
	// greedy OMP on the dominant snapshot instead — trading optimality for a
	// usable spectrum. The engaged solver is recorded in SolveInfo and the
	// core.solve.fallback_* counters.
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
	// jointDict is the dense space-delay dictionary, kept only under
	// Config.Fallback as the OMP stage's atoms: the joint solver itself
	// iterates on the Kronecker factors and drops the dense matrix once
	// built, so without Fallback nothing keeps it resident.
	jointDict *cmat.Matrix

	// delays is the matched-filter phasor table of the delay alignment that
	// precedes fusion (see delayTable), looked up from the OFDM config on the
	// first fused estimate.
	delaysOnce sync.Once
	delays     *delayTable

	// links holds *linkWorkspace scratch. Estimators are shared across
	// goroutines, so each link estimate takes a workspace of its own for its
	// duration; the pool fills on first use, not in Warmup.
	links sync.Pool
}

// linkWorkspace is the scratch of one link estimate, from the stacked CSI to
// the direct-path peak: the delay alignment, the measurement block Y, the
// fusion SVD and its truncation, the solve's row magnitudes, the joint
// spectrum, its 3x3 smoothing and the peak list. Every buffer only grows, so
// a warm estimate writes each intermediate into storage the previous one
// left behind and allocates nothing but its outputs.
type linkWorkspace struct {
	al     alignment
	y      cmat.Matrix // M*L x kept packets
	svd    cmat.SVDWork
	fused  cmat.Matrix // the l1-SVD compression of y
	mags   []float64
	spec   spectra.Spectrum2D
	smooth spectra.Spectrum2D
	peaks  []spectra.Peak
}

// takeLinkWorkspace takes a link workspace from the estimator's pool. Return
// it to e.links once nothing read from it is needed.
func (e *Estimator) takeLinkWorkspace() *linkWorkspace {
	if ws, ok := e.links.Get().(*linkWorkspace); ok {
		return ws
	}
	return new(linkWorkspace)
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
	fallbackOMP     *obs.Counter // greedy OMP fallback was used
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
		fallbackOMP:     reg.Counter("core.solve.fallback_omp_total"),
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
	if full.Metrics != nil {
		// Thread the registry into the sparse solvers without mutating the
		// caller's option slice.
		opts := make([]sparse.Option, 0, len(full.SolverOptions)+1)
		opts = append(opts, full.SolverOptions...)
		full.SolverOptions = append(opts, sparse.WithMetrics(full.Metrics))
	}
	return &Estimator{cfg: full, met: newEstimatorMetrics(full.Metrics)}, nil
}

// servingGapEps is the serving profile's duality-gap stop: a joint solve
// ends once its objective is certified within 2% of the optimum. Over
// serve-open requests that is ~15 iterations per solve, with lower
// localization error than running to the 60-iteration cap (EXPERIMENTS.md,
// "Gap stop").
const servingGapEps = 0.02

// jointOptions returns the joint solver's options: SolverOptions followed by
// the Kronecker factors of the space-delay dictionary, so the solver iterates
// on the small delay and AoA factors (6,720 instead of 173,700 complex
// multiply-adds per x-update and snapshot at the paper's dimensions). Under
// Config.Warm the serving profile's gap stop is prepended so explicit caller
// options can still override it. The AoA solver takes SolverOptions as they
// are; its dictionary has no such factorization.
func (e *Estimator) jointOptions() []sparse.Option {
	opts := make([]sparse.Option, 0, len(e.cfg.SolverOptions)+2)
	if e.cfg.Warm {
		opts = append(opts, sparse.WithGapStop(servingGapEps))
	}
	opts = append(opts, e.cfg.SolverOptions...)
	return append(opts, sparse.WithKronecker(
		BuildDelayDictionary(e.cfg.OFDM, e.cfg.TauGrid),
		BuildAoADictionary(e.cfg.Array, e.cfg.ThetaGrid)))
}

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
// the AoA dictionary (M x Ntheta) and its ADMM Cholesky factor (M x M), and
// the joint solver's Kronecker state: the factor pair (L x Ntau delay,
// M x Ntheta AoA) with the conjugate of each for the adjoint matvec, and the
// block-diagonal ridge step — M Ntau x Ntau blocks H_m and the rotated
// M x Ntheta AoA factor S' with its conjugate. The dense joint space-delay
// dictionary (M*L x Ntheta*Ntau) is counted only under Config.Fallback, the
// one configuration that keeps it (as the OMP stage's atoms); the joint
// solver drops it once built. When counted it dominates (6.55 of the paper
// preset's 6.74 MB, against 0.19 MB without it), which is why a venue cache
// budgets on these bytes rather than venue count. Complex128 entries are 16
// bytes.
func (e *Estimator) FootprintBytes() int64 {
	const c = 16 // bytes per complex128
	m := int64(e.cfg.Array.NumAntennas)
	l := int64(e.cfg.OFDM.NumSubcarriers)
	nth := int64(len(e.cfg.ThetaGrid))
	ntu := int64(len(e.cfg.TauGrid))
	b := m*nth*c + m*m*c         // AoA dictionary + its ADMM Cholesky factor
	b += 2 * (l*ntu*c + m*nth*c) // Kronecker delay/AoA factor pair + conjugates
	b += m*ntu*ntu*c + 2*m*nth*c // H_m blocks + rotated AoA factor S' + conjugate
	if e.cfg.Fallback {
		b += m * l * nth * ntu * c // dense joint dictionary (OMP fallback atoms)
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
// the joint dictionary is g(tau_t)[l] * s(theta_i)[m] — which every joint
// solve exploits via sparse.WithKronecker.
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
		e.jointSolver, e.jointErr = sparse.NewSolver(dict, e.jointOptions()...)
		if e.cfg.Fallback {
			e.jointDict = dict
		}
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
// histogram, with kappa at Config.KappaRatio of max_i ||(AᴴY)_i|| (see
// sparse.Solver.SolveMultiRatio), writing the row magnitudes into mags'
// storage. The time.Now pair is skipped entirely when metrics are disabled,
// keeping the nil-registry path free of clock reads. With Config.Fallback
// set, a failed or non-converged primary solve falls back to OMP over
// ompDict, the dense dictionary the solver was built for; without it the
// primary outcome is returned untouched, preserving bit-identical legacy
// behavior. The returned stage names the fallback stage the accepted result
// came from ("" = primary); together with the result it feeds the SolveInfo
// that rides each LinkResult.
func (e *Estimator) timedSolve(ctx context.Context, solver *sparse.Solver, ompDict, y *cmat.Matrix, mags []float64) (sparse.Result, string, error) {
	// Stage-boundary cancellation: a dead context skips the solve entirely.
	// (The solver's iteration loop itself is not interruptible; the worst
	// post-cancel overrun is one solve.)
	if err := ctx.Err(); err != nil {
		return sparse.Result{}, "", err
	}
	_, sp := obs.StartSpan(ctx, "estimate.solve")
	var t0 time.Time
	if e.met != nil {
		t0 = time.Now()
	}
	res, err := solver.SolveMultiRatio(y, e.cfg.KappaRatio, mags)
	if e.met != nil {
		// The latency exemplar ties this solve's bucket to the request that
		// exercised it — an empty id (untagged caller) records plainly.
		e.met.solveSeconds.ObserveExemplar(time.Since(t0).Seconds(), obs.RequestIDFrom(ctx))
	}
	sp.End()
	if !e.cfg.Fallback || (err == nil && res.Converged) {
		return res, "", err
	}
	return e.fallbackSolve(ctx, ompDict, y, res, err)
}

// fallbackSolve is the degradation chain behind Config.Fallback: take greedy
// OMP over dict on the dominant snapshot column in place of the failed
// primary solve. When OMP errors too, the primary outcome is returned so the
// chain never makes things worse. The returned stage names where the
// accepted result came from ("omp", or "" for the primary outcome).
func (e *Estimator) fallbackSolve(ctx context.Context, dict, y *cmat.Matrix, primaryRes sparse.Result, primaryErr error) (sparse.Result, string, error) {
	_, sp := obs.StartSpan(ctx, "estimate.fallback")
	defer sp.End()
	if e.met != nil {
		e.met.fallbackEngaged.Inc()
	}
	if res, err := e.ompSolve(dict, y); err == nil {
		if e.met != nil {
			e.met.fallbackOMP.Inc()
		}
		return res, "omp", nil
	}
	return primaryRes, "", primaryErr
}

// ompSolve runs orthogonal matching pursuit over dict on the strongest
// column of y (after l1-SVD fusion that is the dominant singular direction)
// and expands the support into a Result comparable with the convex solvers'
// RowMags.
func (e *Estimator) ompSolve(dict, y *cmat.Matrix) (sparse.Result, error) {
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
	atoms := e.cfg.MaxPaths
	if atoms > dict.Rows() {
		atoms = dict.Rows()
	}
	r, err := sparse.OMP(dict, y.Col(best), atoms, 1e-3)
	if err != nil {
		return sparse.Result{}, err
	}
	return sparse.Result{
		Solver:     "omp",
		RowMags:    r.Spectrum(dict.Cols()),
		Iterations: len(r.Support),
		Converged:  true,
	}, nil
}

// checkPackets rejects malformed measurements before any of them is read: a
// nil packet, ragged or short rows, an antenna count other than the
// configured array's, and — when subcarriers > 0 — a subcarrier count other
// than that. The error wraps ErrCSIDimension.
func (e *Estimator) checkPackets(packets []*wireless.CSI, subcarriers int) error {
	for p, pkt := range packets {
		if prob := dimensionProblem(pkt, e.cfg.Array.NumAntennas, subcarriers); prob != "" {
			return fmt.Errorf("%w: packet %d: %s", ErrCSIDimension, p, prob)
		}
	}
	return nil
}

// EstimateAoA recovers the sparse AoA spectrum of paper Eq. 11 from one CSI
// measurement, treating the L subcarriers as snapshots that share a common
// angular support (group sparsity across subcarriers). When ctx carries an
// obs.Tracer it emits "estimate.aoa" with "estimate.dict" and
// "estimate.solve" children. The SolveInfo names the solver and fallback
// stage that produced the spectrum.
func (e *Estimator) EstimateAoA(ctx context.Context, csi *wireless.CSI) (*spectra.Spectrum1D, SolveInfo, error) {
	if err := e.checkPackets([]*wireless.CSI{csi}, 0); err != nil {
		return nil, SolveInfo{}, err
	}
	ctx, sp := obs.StartSpan(ctx, "estimate.aoa")
	defer sp.End()
	_, spd := obs.StartSpan(ctx, "estimate.dict")
	solver, err := e.getAoASolver()
	spd.End()
	if err != nil {
		return nil, SolveInfo{}, fmt.Errorf("core: build AoA solver: %w", err)
	}
	y := cmat.New(csi.NumAntennas, csi.NumSubcarriers)
	for m := 0; m < csi.NumAntennas; m++ {
		for l := 0; l < csi.NumSubcarriers; l++ {
			y.Set(m, l, csi.Data[m][l])
		}
	}
	// A nil buffer gives the spectrum freshly allocated row magnitudes.
	res, stage, err := e.timedSolve(ctx, solver, solver.Dict(), y, nil)
	if err != nil {
		return nil, SolveInfo{}, fmt.Errorf("core: AoA solve: %w", err)
	}
	spec, err := spectra.NewSpectrum1D(append([]float64(nil), e.cfg.ThetaGrid...), res.RowMags)
	if err != nil {
		return nil, SolveInfo{}, err
	}
	return spec.Normalize(), solveInfoFor(res, stage), nil
}

// EstimateJoint recovers the joint AoA/ToA spectrum of paper Eq. 18 from a
// single packet by solving over the stacked space-delay dictionary, under
// the "estimate.dict" and "estimate.solve" spans when ctx carries a tracer.
// The spectrum is the caller's own copy.
func (e *Estimator) EstimateJoint(ctx context.Context, csi *wireless.CSI) (*spectra.Spectrum2D, SolveInfo, error) {
	packets := []*wireless.CSI{csi}
	if err := e.checkPackets(packets, e.cfg.OFDM.NumSubcarriers); err != nil {
		return nil, SolveInfo{}, err
	}
	ws := e.takeLinkWorkspace()
	defer e.links.Put(ws)
	// A lone packet is its own reference: it is stacked as is and no delay
	// is matched, so no filter table is needed.
	ws.al.align(packets, e.cfg.OFDM, nil, false)
	info, err := e.estimateJointBlock(ctx, ws, 1)
	if err != nil {
		return nil, SolveInfo{}, err
	}
	return ws.spec.Clone(), info, nil
}

// EstimateJointFusedInfoCtx coherently fuses a burst of packets (Sec.
// III-D): the stacked measurements form Y = [y_1 ... y_P], the SVD keeps the
// strongest min(MaxPaths, P) left singular directions, and the l2,1
// group-sparse program is solved over the reduced block — the l1-SVD method
// of Malioutov et al. that both shrinks the problem and averages noise
// coherently. When ctx carries an obs.Tracer it emits "estimate.sanitize"
// (delay alignment and interference screening), "estimate.dict",
// "estimate.fuse" (the l1-SVD compression), and "estimate.solve" spans. The
// SolveInfo describes which solver (and which fallback stage, if any)
// produced the accepted spectrum. The spectrum is the caller's own copy.
func (e *Estimator) EstimateJointFusedInfoCtx(ctx context.Context, packets []*wireless.CSI) (*spectra.Spectrum2D, SolveInfo, error) {
	ws := e.takeLinkWorkspace()
	defer e.links.Put(ws)
	info, err := e.estimateFused(ctx, ws, packets)
	if err != nil {
		return nil, SolveInfo{}, err
	}
	return ws.spec.Clone(), info, nil
}

// estimateFused is EstimateJointFusedInfoCtx into ws, leaving the joint
// spectrum in ws.spec.
func (e *Estimator) estimateFused(ctx context.Context, ws *linkWorkspace, packets []*wireless.CSI) (SolveInfo, error) {
	if len(packets) == 0 {
		return SolveInfo{}, fmt.Errorf("core: fusion needs at least one packet")
	}
	if err := e.checkPackets(packets, e.cfg.OFDM.NumSubcarriers); err != nil {
		return SolveInfo{}, err
	}
	// Fusion is only coherent if the packets share a delay reference; the
	// per-packet detection delay is estimated by matched filtering and
	// compensated first (the paper's delay-estimation step), with
	// consensus-based outlier rejection against interfered packets.
	_, sps := obs.StartSpan(ctx, "estimate.sanitize")
	ws.al.align(packets, e.cfg.OFDM, e.delayTable(), true)
	sps.End()
	return e.estimateJointBlock(ctx, ws, e.cfg.MaxPaths)
}

// delayTable returns the matched-filter phasor table for the estimator's
// OFDM config, shared process-wide (see sharedDelayTable).
func (e *Estimator) delayTable() *delayTable {
	e.delaysOnce.Do(func() {
		e.delays = sharedDelayTable(e.cfg.OFDM.SubcarrierSpacing, e.cfg.OFDM.NumSubcarriers)
	})
	return e.delays
}

// estimateJointBlock solves the joint space-delay program over the packets
// ws.al kept, l1-SVD fusing them to at most keep directions when there are
// several, and leaves the normalized spectrum in ws.spec.
func (e *Estimator) estimateJointBlock(ctx context.Context, ws *linkWorkspace, keep int) (SolveInfo, error) {
	_, spd := obs.StartSpan(ctx, "estimate.dict")
	solver, err := e.getJointSolver()
	spd.End()
	if err != nil {
		return SolveInfo{}, fmt.Errorf("core: build joint solver: %w", err)
	}
	// Callers have checked every packet's shape, so each stacked vector has
	// M*L entries; column c of Y is the c-th kept packet's.
	ml := e.cfg.Array.NumAntennas * e.cfg.OFDM.NumSubcarriers
	kept := ws.al.kept
	np := len(kept)
	ws.y.Reset(ml, np)
	yd := ws.y.Data()
	for c, j := range kept {
		for i, v := range ws.al.stack[j*ml : (j+1)*ml] {
			yd[i*np+c] = v
		}
	}
	y := &ws.y
	if np > 1 {
		_, spf := obs.StartSpan(ctx, "estimate.fuse")
		sv, err := ws.svd.Decompose(y)
		if err != nil {
			spf.End()
			return SolveInfo{}, fmt.Errorf("core: fusion SVD: %w", err)
		}
		keep = fusionRank(sv.S, keep, np)
		sv.TruncateLeftInto(&ws.fused, keep)
		y = &ws.fused
		spf.End()
	}
	res, stage, err := e.timedSolve(ctx, solver, e.jointDict, y, ws.mags)
	if err != nil {
		return SolveInfo{}, fmt.Errorf("core: joint solve: %w", err)
	}
	ws.mags = res.RowMags
	if err := e.reshapeJoint(&ws.spec, res.RowMags); err != nil {
		return SolveInfo{}, err
	}
	return solveInfoFor(res, stage), nil
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
// (theta, tau) grid using the tau-major column ordering of Eq. 16, into spec
// (which shares the estimator's grids), and normalizes it.
func (e *Estimator) reshapeJoint(spec *spectra.Spectrum2D, mags []float64) error {
	nth, ntu := len(e.cfg.ThetaGrid), len(e.cfg.TauGrid)
	if len(mags) != nth*ntu {
		return fmt.Errorf("core: %d coefficients for %dx%d grid", len(mags), nth, ntu)
	}
	spec.Reset(e.cfg.ThetaGrid, e.cfg.TauGrid)
	for t := 0; t < ntu; t++ {
		for i := 0; i < nth; i++ {
			spec.Power[i][t] = mags[t*nth+i]
		}
	}
	spec.Normalize()
	return nil
}

// DirectPath applies ROArray's rule (Sec. III-B): among spectrum peaks at or
// above the configured relative power threshold, the direct path is the one
// with the smallest ToA. The returned ToA is relative (it contains the
// unknown packet detection delay) — only its ordering is meaningful, which
// is all the rule needs.
func (e *Estimator) DirectPath(spec *spectra.Spectrum2D) (spectra.Peak, error) {
	ws := e.takeLinkWorkspace()
	defer e.links.Put(ws)
	return e.directPath(ws, spec)
}

// directPath is DirectPath with the smoothed spectrum and the peak list in
// ws.
func (e *Estimator) directPath(ws *linkWorkspace, spec *spectra.Spectrum2D) (spectra.Peak, error) {
	// Aggregate adjacent-atom energy first: an off-grid path's l1 energy
	// splits across neighboring grid atoms, which would otherwise push a
	// real (direct) path below the power threshold while an exactly
	// on-grid reflection spikes.
	spec.Smooth3x3Into(&ws.smooth)
	ws.peaks = ws.smooth.PeaksInto(ws.peaks, e.cfg.PeakThreshold)
	peaks := ws.peaks
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
// When ctx carries an obs.Tracer it emits the fused estimation spans plus an
// "estimate.peak" span around direct-path selection. The SolveInfo is that
// of the solve that produced the spectrum the peak was picked from — the
// per-link diagnostic the serving layer surfaces in its request log. Every
// intermediate lives in a pooled link workspace, so a warm estimate
// allocates nothing it does not return.
func (e *Estimator) EstimateDirectAoA(ctx context.Context, packets []*wireless.CSI) (spectra.Peak, SolveInfo, error) {
	ws := e.takeLinkWorkspace()
	defer e.links.Put(ws)
	info, err := e.estimateFused(ctx, ws, packets)
	if err != nil {
		return spectra.Peak{}, SolveInfo{}, err
	}
	_, sp := obs.StartSpan(ctx, "estimate.peak")
	defer sp.End()
	peak, err := e.directPath(ws, &ws.spec)
	return peak, info, err
}
