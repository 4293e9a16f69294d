// Package roarray is a from-scratch Go implementation of ROArray (Gong &
// Liu, "Robust Indoor Wireless Localization Using Sparse Recovery", IEEE
// ICDCS 2017): a phased-array WiFi localization system that casts joint
// AoA/ToA estimation as a complex-valued sparse recovery problem, making it
// robust at the low SNRs where MUSIC-based systems (SpotFi, ArrayTrack)
// degrade.
//
// The package is a facade over the implementation packages:
//
//   - internal/cmat     — complex linear algebra (QR, Hermitian eig, SVD)
//   - internal/sparse   — complex LASSO via ADMM/FISTA/OMP
//   - internal/wireless — array manifold, OFDM CSI channel simulation, RSSI
//   - internal/music    — MUSIC, SpotFi, and ArrayTrack baselines
//   - internal/core     — the ROArray estimators, fusion, calibration,
//     and multi-AP localization
//   - internal/testbed  — the paper's 18 m x 12 m, 6-AP deployment
//
// # Quick start
//
//	est, err := roarray.NewEstimator(roarray.Config{
//		Array: roarray.Intel5300Array(),
//		OFDM:  roarray.Intel5300OFDM(),
//	})
//	// csi := one CSI measurement from hardware or the simulator
//	spec, _, err := est.EstimateJoint(ctx, csi)
//	direct, err := est.DirectPath(spec)
//
// Multi-AP localization combines per-AP direct-path AoAs with
// RSSI-weighted grid search (paper Eq. 19) via Localize:
//
//	pos, _, err := roarray.Localize(ctx, observations, room, 0.1, 1, roarray.SearchConfig{})
//
// Every operation takes its context first; a Tracer or request id attached
// to it reaches every pipeline stage.
package roarray

import (
	"context"
	"io"
	"math/rand"

	"roarray/internal/core"
	"roarray/internal/obs"
	"roarray/internal/spectra"
	"roarray/internal/testbed"
	"roarray/internal/wireless"
)

// Radio and channel-model types, re-exported from internal/wireless.
type (
	// Array is a uniform linear antenna array.
	Array = wireless.Array
	// OFDM describes the measured subcarrier layout.
	OFDM = wireless.OFDM
	// Path is one propagation path (AoA, ToA, complex gain).
	Path = wireless.Path
	// CSI is one channel state information measurement (M x L).
	CSI = wireless.CSI
	// ChannelConfig drives CSI synthesis for one link.
	ChannelConfig = wireless.ChannelConfig
	// RSSIModel is the log-distance path loss model.
	RSSIModel = wireless.RSSIModel
)

// Spectrum and geometry types.
type (
	// Spectrum1D is a sampled AoA spectrum.
	Spectrum1D = spectra.Spectrum1D
	// Spectrum2D is a sampled joint AoA/ToA spectrum.
	Spectrum2D = spectra.Spectrum2D
	// Peak is one spectrum local maximum.
	Peak = spectra.Peak
	// Point is a 2-D position in meters.
	Point = core.Point
	// Rect is an axis-aligned region.
	Rect = core.Rect
	// APObservation is the per-AP localization input.
	APObservation = core.APObservation
)

// Estimation types.
type (
	// Config parameterizes an Estimator.
	Config = core.Config
	// Estimator runs ROArray's sparse-recovery estimation.
	Estimator = core.Estimator
	// SharpnessFunc scores candidate phase calibrations.
	SharpnessFunc = core.SharpnessFunc
)

// Parallel serving types. An Engine shares one Estimator (and its cached
// dictionaries and solver factorizations) across a bounded worker pool,
// fanning out per-AP estimation within a request and whole requests within a
// batch; results are bit-identical to a serial run for any worker count.
type (
	// Engine is the concurrent batch localization engine.
	Engine = core.Engine
	// LocalizeRequest is one end-to-end localization unit of work.
	LocalizeRequest = core.LocalizeRequest
	// LinkInput is one AP's packet burst plus geometry within a request.
	LinkInput = core.LinkInput
	// LocalizeResult is the outcome of one request.
	LocalizeResult = core.LocalizeResult
	// LinkResult is the per-AP outcome within a LocalizeResult.
	LinkResult = core.LinkResult
	// BatchItem is one slot of an Engine.LocalizeBatchItems batch: a
	// stateless request, or a tracked epoch when Tracker is set.
	BatchItem = core.BatchItem
	// BatchOutcome is one slot's result or error in a batch.
	BatchOutcome = core.BatchOutcome
)

// Simulation testbed types (the paper's deployment, for users without CSI
// hardware).
type (
	// Deployment is a simulated room with wall-mounted APs.
	Deployment = testbed.Deployment
	// AP is one deployed access point.
	AP = testbed.AP
	// Scenario is one client placement with all AP links.
	Scenario = testbed.Scenario
	// Link is one AP-client channel with ground truth.
	Link = testbed.Link
	// ScenarioConfig controls channel synthesis.
	ScenarioConfig = testbed.ScenarioConfig
	// SNRBand classifies link quality (high/medium/low).
	SNRBand = testbed.SNRBand
)

// SNR bands as classified by the paper: high >= 15 dB, medium (2,15) dB,
// low <= 2 dB.
const (
	BandHigh   = testbed.BandHigh
	BandMedium = testbed.BandMedium
	BandLow    = testbed.BandLow
)

// Observability types, re-exported from internal/obs. A Metrics registry
// threads through Config.Metrics into the estimator, engine, and sparse
// solvers; a Tracer attached to the context an operation takes (WithTracer)
// makes it emit a JSONL span tree covering every pipeline stage. Both are
// nil-safe: a nil registry or absent tracer costs a pointer check on the hot
// path.
type (
	// Metrics is a concurrent registry of counters, gauges, and histograms.
	Metrics = obs.Registry
	// Tracer streams span events as JSON Lines.
	Tracer = obs.Tracer
	// Span is one in-flight traced operation, recycled once it and its
	// children have ended.
	Span = obs.Span
	// SpanEvent is the decoded form of one emitted span.
	SpanEvent = obs.SpanEvent
	// DebugServer serves /metrics, /debug/vars, and /debug/pprof.
	DebugServer = obs.DebugServer
)

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewTracer returns a tracer writing JSONL span events to w.
func NewTracer(w io.Writer) *Tracer { return obs.NewTracer(w) }

// WithTracer attaches a tracer to ctx; pass the result as the context of any
// operation (Engine.LocalizeBatchItems, Estimator.EstimateDirectAoA, ...).
func WithTracer(ctx context.Context, t *Tracer) context.Context { return obs.WithTracer(ctx, t) }

// StartSpan opens a span named name as a child of the span in ctx (if any).
// Without a tracer in ctx it returns (ctx, nil); a nil span's End is a no-op.
// Spans are recycled: neither the span nor the returned context may be used
// after End.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return obs.StartSpan(ctx, name)
}

// ReadSpanEvents decodes a JSONL trace stream written by a Tracer.
func ReadSpanEvents(r io.Reader) ([]SpanEvent, error) { return obs.ReadEvents(r) }

// NewRequestID mints a fresh 16-hex-character request id.
func NewRequestID() string { return obs.NewRequestID() }

// SanitizeRequestID makes an externally supplied id safe to log and echo.
func SanitizeRequestID(s string) string { return obs.SanitizeRequestID(s) }

// WithRequestID tags ctx with a request id; every span the pipeline opens
// and every histogram exemplar it records under ctx carries the id, one join
// key across traces and metrics.
func WithRequestID(ctx context.Context, id string) context.Context {
	return obs.WithRequestID(ctx, id)
}

// ServeDebug starts an HTTP server on addr exposing reg at /metrics, expvar
// at /debug/vars, and pprof at /debug/pprof.
func ServeDebug(addr string, reg *Metrics) (*DebugServer, error) { return obs.Serve(addr, reg) }

// ErrNoPeaks is returned when a spectrum has no usable peaks.
var ErrNoPeaks = core.ErrNoPeaks

// Intel5300Array returns the paper's receiver array: 3 antennas at
// half-wavelength spacing on the 5 GHz band.
func Intel5300Array() Array { return wireless.Intel5300Array() }

// Intel5300OFDM returns the Linux CSI tool subcarrier layout on a 40 MHz
// channel: 30 subcarriers at 1.25 MHz spacing.
func Intel5300OFDM() OFDM { return wireless.Intel5300OFDM() }

// NewEstimator validates cfg and returns a ROArray estimator.
func NewEstimator(cfg Config) (*Estimator, error) { return core.NewEstimator(cfg) }

// GenerateCSI synthesizes one CSI measurement for the given channel.
func GenerateCSI(cfg *ChannelConfig, rng *rand.Rand) (*CSI, error) {
	return wireless.Generate(cfg, rng)
}

// GenerateBurst synthesizes n packets over a static channel with independent
// noise and detection delays.
func GenerateBurst(cfg *ChannelConfig, n int, rng *rand.Rand) ([]*CSI, error) {
	return wireless.GenerateBurst(cfg, n, rng)
}

// Grid-search strategy types. All strategies return bit-identical positions;
// they differ only in how many grid cells they evaluate (see SearchStats).
type (
	// SearchConfig tunes the Eq. 19 grid search (zero value = branch and bound).
	SearchConfig = core.SearchConfig
	// SearchMode selects the search strategy.
	SearchMode = core.SearchMode
	// SearchStats reports what a localization search actually did.
	SearchStats = core.SearchStats
)

// Search modes: the default branch-and-bound ("coarse") search, the legacy
// flat scan, and the cross-checking equivalence-proof mode.
const (
	SearchCoarse = core.SearchCoarse
	SearchFlat   = core.SearchFlat
	SearchExact  = core.SearchExact
)

// ErrSearchMismatch is returned by SearchExact if the branch-and-bound
// result ever diverges from the flat scan.
var ErrSearchMismatch = core.ErrSearchMismatch

// ParseSearchMode parses a -search flag value: "coarse" (or "coarse-fine"),
// "flat", "exact".
func ParseSearchMode(s string) (SearchMode, error) { return core.ParseSearchMode(s) }

// Localize minimizes the RSSI-weighted AoA deviation of paper Eq. 19 over a
// uniform position grid (step <= 0 selects 0.1 m) inside bounds. cfg picks
// the search strategy — the zero value is branch and bound; SearchFlat is
// the reference scan, fanned over up to workers goroutines — and every
// strategy returns the same position bits; SearchStats reports the cells it
// evaluated. The search aborts with an error wrapping ctx.Err() soon after
// ctx dies.
func Localize(ctx context.Context, obs []APObservation, bounds Rect, step float64, workers int, cfg SearchConfig) (Point, SearchStats, error) {
	return core.LocalizeSearchCtx(ctx, obs, bounds, step, workers, cfg)
}

// NewEngine returns a batch localization engine sharing est across a pool of
// workers (workers <= 0 selects runtime.GOMAXPROCS).
func NewEngine(est *Estimator, workers int) (*Engine, error) {
	return core.NewEngine(est, workers)
}

// ExpectedAoA returns the AoA at which an array at pos (axis orientation
// axisDeg) sees a source at target.
func ExpectedAoA(pos Point, axisDeg float64, target Point) float64 {
	return core.ExpectedAoA(pos, axisDeg, target)
}

// CalibratePhases estimates per-antenna phase offsets by maximizing the
// score of the corrected spectrum (see ROArrayReferenceScore).
func CalibratePhases(packets []*CSI, score SharpnessFunc, coarseSteps int) ([]float64, error) {
	return core.CalibratePhases(packets, score, coarseSteps)
}

// ApplyPhaseCorrection undoes per-antenna phase offsets on a measurement.
func ApplyPhaseCorrection(csi *CSI, offsets []float64) (*CSI, error) {
	return core.ApplyPhaseCorrection(csi, offsets)
}

// ROArrayReferenceScore anchors calibration with a reference packet of known
// AoA, scored on the estimator's sparse spectrum.
func ROArrayReferenceScore(est *Estimator, refAoADeg float64) SharpnessFunc {
	return core.ROArrayReferenceScore(est, refAoADeg)
}

// DefaultDeployment returns the paper's testbed: an 18 m x 12 m room with 6
// wall-mounted APs and Intel 5300 radios.
func DefaultDeployment() *Deployment { return testbed.Default() }

// Tracker smooths a sequence of localization fixes for a moving client.
type Tracker = core.Tracker

// TrackFix is the outcome of absorbing one fix into a Tracker.
type TrackFix = core.TrackFix

// TrackState is a Tracker's filter state (Tracker.State).
type TrackState = core.TrackState

// NewTracker returns a predict/update position tracker (zeros select
// default gains and a 2.5 m/s speed bound).
func NewTracker(alpha, beta, maxSpeed float64) (*Tracker, error) {
	return core.NewTracker(alpha, beta, maxSpeed)
}

// UniformGrid returns n evenly spaced samples covering [lo, hi].
func UniformGrid(lo, hi float64, n int) []float64 { return spectra.UniformGrid(lo, hi, n) }
