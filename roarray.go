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
//   - internal/sparse   — complex LASSO via ADMM/FISTA/ISTA/OMP
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
//	spec, err := est.EstimateJoint(csi)
//	direct, err := est.DirectPath(spec)
//
// Multi-AP localization combines per-AP direct-path AoAs with
// RSSI-weighted grid search (paper Eq. 19) via Localize.
package roarray

import (
	"context"
	"io"
	"math/rand"
	"time"

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
	// Generator emits CSI packets from a private, seeded RNG so parallel
	// workloads are reproducible regardless of scheduling.
	Generator = wireless.Generator
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
// solvers; a Tracer attached to a context (WithTracer) makes the *Ctx
// methods emit a JSONL span tree covering every pipeline stage. Both are
// nil-safe: a nil registry or absent tracer costs a pointer check on the hot
// path.
type (
	// Metrics is a concurrent registry of counters, gauges, and histograms.
	Metrics = obs.Registry
	// Tracer streams span events as JSON Lines.
	Tracer = obs.Tracer
	// Span is one in-flight traced operation.
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

// WithTracer attaches a tracer to ctx; pass the result to the *Ctx methods
// (Engine.LocalizeBatchCtx, Estimator.EstimateDirectAoACtx, ...).
func WithTracer(ctx context.Context, t *Tracer) context.Context { return obs.WithTracer(ctx, t) }

// StartSpan opens a span named name as a child of the span in ctx (if any).
// Without a tracer in ctx it returns (ctx, nil); a nil span's End is a no-op.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return obs.StartSpan(ctx, name)
}

// ReadSpanEvents decodes a JSONL trace stream written by a Tracer.
func ReadSpanEvents(r io.Reader) ([]SpanEvent, error) { return obs.ReadEvents(r) }

// Request-centric observability, re-exported from internal/obs: a request id
// attached to a context (WithRequestID) tags every span the pipeline opens
// and every histogram exemplar it records, and the same id keys the wide
// per-request events an EventLog collects — one join key across traces,
// metrics, and logs.
type (
	// RequestEvent is one wide request-log record (JSON per line).
	RequestEvent = obs.RequestEvent
	// EventLog is a bounded, droppable JSONL sink for RequestEvents.
	EventLog = obs.EventLog
	// SLO tracks rolling-window availability and latency attainment.
	SLO = obs.SLO
	// SLOConfig sets the latency objective and attainment target.
	SLOConfig = obs.SLOConfig
	// SLOWindow is one rolling window's attainment and burn state.
	SLOWindow = obs.SLOWindow
)

// NewRequestID mints a fresh 16-hex-character request id.
func NewRequestID() string { return obs.NewRequestID() }

// SanitizeRequestID makes an externally supplied id safe to log and echo.
func SanitizeRequestID(s string) string { return obs.SanitizeRequestID(s) }

// WithRequestID tags ctx with a request id; spans and exemplars recorded
// under it carry the id.
func WithRequestID(ctx context.Context, id string) context.Context {
	return obs.WithRequestID(ctx, id)
}

// RequestIDFrom returns the request id in ctx ("" when untagged).
func RequestIDFrom(ctx context.Context) string { return obs.RequestIDFrom(ctx) }

// NewEventLog returns an event log writing JSONL to w through a bounded
// queue of the given depth; under pressure events are dropped, not blocked on.
func NewEventLog(w io.Writer, depth int) *EventLog { return obs.NewEventLog(w, depth) }

// ReadRequestEvents decodes a JSONL request-event stream.
func ReadRequestEvents(r io.Reader) ([]RequestEvent, error) { return obs.ReadRequestEvents(r) }

// NewSLO returns a rolling-window SLO tracker; Bind it to a Metrics registry
// to export availability, attainment, and burn-rate gauges.
func NewSLO(cfg SLOConfig) *SLO { return obs.NewSLO(cfg) }

// ServeDebug starts an HTTP server on addr exposing reg at /metrics, expvar
// at /debug/vars, and pprof at /debug/pprof.
func ServeDebug(addr string, reg *Metrics) (*DebugServer, error) { return obs.Serve(addr, reg) }

// Self-diagnosis layer, re-exported from internal/obs: a RuntimeCollector
// samples Go runtime health into runtime.* gauges, a FlightRecorder keeps a
// bounded in-memory ring of recent requests and spans at zero allocations
// per event, a TriggerEngine watches anomaly signals (SLO burn, saturation,
// goroutine pileups, GC pauses), and a BundleWriter captures debounced
// diagnostic bundles — pprof profiles, ring dumps, metrics, runtime history —
// to a bounded on-disk directory.
type (
	// RuntimeSample is one reading of runtime health (heap, GC, scheduler).
	RuntimeSample = obs.RuntimeSample
	// RuntimeCollector samples runtime/metrics into runtime.* gauges.
	RuntimeCollector = obs.RuntimeCollector
	// FlightRecorder is the bounded in-memory ring of recent telemetry.
	FlightRecorder = obs.FlightRecorder
	// TriggerReason records why a diagnostic capture fired.
	TriggerReason = obs.TriggerReason
	// TriggerSignal is one watched anomaly condition.
	TriggerSignal = obs.TriggerSignal
	// TriggerConfig parameterizes a TriggerEngine.
	TriggerConfig = obs.TriggerConfig
	// TriggerEngine polls signals and debounces capture callbacks.
	TriggerEngine = obs.TriggerEngine
	// BundleConfig parameterizes a BundleWriter.
	BundleConfig = obs.BundleConfig
	// BundleWriter captures diagnostic bundles to disk.
	BundleWriter = obs.BundleWriter
	// BundleMeta is a bundle's decoded meta.json.
	BundleMeta = obs.BundleMeta
)

// NewRuntimeCollector returns a runtime-health sampler bound to reg (which
// may be nil); samples closer together than minInterval are coalesced.
func NewRuntimeCollector(reg *Metrics, minInterval time.Duration) *RuntimeCollector {
	return obs.NewRuntimeCollector(reg, minInterval)
}

// NewFlightRecorder returns a bounded ring holding the most recent reqCap
// request events and spanCap spans.
func NewFlightRecorder(reqCap, spanCap int) *FlightRecorder {
	return obs.NewFlightRecorder(reqCap, spanCap)
}

// NewTriggerEngine returns an anomaly watcher over the given signals; Start
// launches its background evaluation loop.
func NewTriggerEngine(cfg TriggerConfig, signals ...TriggerSignal) *TriggerEngine {
	return obs.NewTriggerEngine(cfg, signals...)
}

// NewBundleWriter returns a diagnostic-bundle capturer writing to cfg.Dir.
func NewBundleWriter(cfg BundleConfig) (*BundleWriter, error) { return obs.NewBundleWriter(cfg) }

// ListBundles returns the bundle directories under dir, oldest first.
func ListBundles(dir string) ([]string, error) { return obs.ListBundles(dir) }

// ReadBundleMeta loads and validates a bundle's meta.json.
func ReadBundleMeta(bundleDir string) (BundleMeta, error) { return obs.ReadBundleMeta(bundleDir) }

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

// Localize minimizes the RSSI-weighted AoA deviation of paper Eq. 19 over a
// uniform position grid.
func Localize(obs []APObservation, bounds Rect, step float64) (Point, error) {
	return core.Localize(obs, bounds, step)
}

// LocalizeParallel is Localize with the grid search fanned out over up to
// workers goroutines; the result is bit-identical to the serial search.
func LocalizeParallel(obs []APObservation, bounds Rect, step float64, workers int) (Point, error) {
	return core.LocalizeParallel(obs, bounds, step, workers)
}

// LocalizeParallelCtx is LocalizeParallel under a context: the sweep aborts
// within one grid column of ctx dying, returning an error that wraps
// context.Canceled / context.DeadlineExceeded.
func LocalizeParallelCtx(ctx context.Context, obs []APObservation, bounds Rect, step float64, workers int) (Point, error) {
	return core.LocalizeParallelCtx(ctx, obs, bounds, step, workers)
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

// LocalizeSearch runs the Eq. 19 localization with a configurable search
// strategy and reports how many grid cells each pass evaluated.
func LocalizeSearch(obs []APObservation, bounds Rect, step float64, workers int, cfg SearchConfig) (Point, SearchStats, error) {
	return core.LocalizeSearch(obs, bounds, step, workers, cfg)
}

// LocalizeSearchCtx is LocalizeSearch under a context.
func LocalizeSearchCtx(ctx context.Context, obs []APObservation, bounds Rect, step float64, workers int, cfg SearchConfig) (Point, SearchStats, error) {
	return core.LocalizeSearchCtx(ctx, obs, bounds, step, workers, cfg)
}

// NewEngine returns a batch localization engine sharing est across a pool of
// workers (workers <= 0 selects runtime.GOMAXPROCS).
func NewEngine(est *Estimator, workers int) (*Engine, error) {
	return core.NewEngine(est, workers)
}

// NewGenerator returns a CSI generator with its own seeded RNG for
// scheduling-independent reproducibility.
func NewGenerator(cfg *ChannelConfig, seed int64) (*Generator, error) {
	return wireless.NewGenerator(cfg, seed)
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

// TrackState is a Tracker's serializable filter state (Tracker.State /
// Tracker.Restore).
type TrackState = core.TrackState

// NewTracker returns a predict/update position tracker (zeros select
// default gains and a 2.5 m/s speed bound).
func NewTracker(alpha, beta, maxSpeed float64) (*Tracker, error) {
	return core.NewTracker(alpha, beta, maxSpeed)
}

// UniformGrid returns n evenly spaced samples covering [lo, hi].
func UniformGrid(lo, hi float64, n int) []float64 { return spectra.UniformGrid(lo, hi, n) }
