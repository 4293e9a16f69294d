// Package venue turns the single-deployment solver into a multi-tenant one:
// a Spec declares one building's AP geometry, estimation grids, and solver
// configuration. The geometry rides each request; the rest is the venue's
// estimation shape, which alone fixes the dictionaries and factorizations.
// A Registry keeps the hot shapes' engines resident under an explicit
// memory budget, shared by every venue of that shape, and evicts whole
// shapes coldest-first. Specs are declarative JSON (a manifest file), so
// adding a building is an ops action, not a rebuild.
package venue

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"time"

	"roarray/internal/core"
	"roarray/internal/obs"
	"roarray/internal/sparse"
	"roarray/internal/spectra"
	"roarray/internal/testbed"
	"roarray/internal/wireless"
)

// ManifestSchema is the current venue-manifest version. Decoders accept any
// manifest whose Schema is in [1, ManifestSchema]; fields added in later
// versions must be optional so version-1 manifests keep loading.
const ManifestSchema = 1

// idPattern constrains venue IDs to a metric- and path-safe alphabet: IDs are
// embedded into metric names (serve.venue.<id>.requests_total), JSON event
// fields, and hash-ring keys, so dots and whitespace are out.
var idPattern = regexp.MustCompile(`^[A-Za-z0-9_-]{1,64}$`)

// ValidID reports whether id satisfies the venue-id alphabet above. Code
// that embeds ids into dot-delimited metric names (serve's per-venue RED
// rows) gates on it so an id from an unvalidated source can never pollute
// the metric namespace.
func ValidID(id string) bool { return idPattern.MatchString(id) }

// APSpec places one access point in a venue's floor plan.
type APSpec struct {
	// X, Y is the array center in meters (venue frame).
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// AxisDeg is the linear-array axis orientation, degrees CCW from +x.
	AxisDeg float64 `json:"axisDeg"`
}

// RoomSpec is the venue's localization search area in meters.
type RoomSpec struct {
	MinX float64 `json:"minX"`
	MinY float64 `json:"minY"`
	MaxX float64 `json:"maxX"`
	MaxY float64 `json:"maxY"`
}

// Spec declares one venue: identity, geometry, and the estimation working
// point. Zero-valued radio and grid fields select the paper's Intel 5300
// defaults, so a minimal manifest entry is just an id, a room, and APs.
type Spec struct {
	// ID names the venue on the wire (Request.VenueID), in metrics, and as
	// the hash-ring key. Must match [A-Za-z0-9_-]{1,64}.
	ID string `json:"id"`
	// Name is a free-form human label (optional).
	Name string `json:"name,omitempty"`
	// Room bounds the Eq. 19 grid search.
	Room RoomSpec `json:"room"`
	// APs are the venue's deployed arrays; at least 2 (localization
	// triangulates bearings).
	APs []APSpec `json:"aps"`
	// Subcarriers / SubcarrierSpacingHz describe the CSI layout; zeros
	// select the Intel 5300 defaults (30 subcarriers at 1.25 MHz).
	Subcarriers         int     `json:"subcarriers,omitempty"`
	SubcarrierSpacingHz float64 `json:"subcarrierSpacingHz,omitempty"`
	// ThetaPoints / TauPoints size the estimation grids; zeros select the
	// estimator defaults (91 angles, 50 delays). These dominate the resident
	// bytes of the venue's shape — see core.Estimator.FootprintBytes.
	ThetaPoints int `json:"thetaPoints,omitempty"`
	TauPoints   int `json:"tauPoints,omitempty"`
	// MaxIters caps solver iterations; zero keeps the solver default.
	MaxIters int `json:"maxIters,omitempty"`
}

// Validate checks the spec is complete and physically meaningful.
func (s *Spec) Validate() error {
	if !idPattern.MatchString(s.ID) {
		return fmt.Errorf("venue: id %q must match %s", s.ID, idPattern)
	}
	if len(s.APs) < 2 {
		return fmt.Errorf("venue %s: needs at least 2 APs, got %d", s.ID, len(s.APs))
	}
	for _, f := range []float64{s.Room.MinX, s.Room.MinY, s.Room.MaxX, s.Room.MaxY, s.SubcarrierSpacingHz} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("venue %s: non-finite geometry", s.ID)
		}
	}
	if s.Room.MaxX <= s.Room.MinX || s.Room.MaxY <= s.Room.MinY {
		return fmt.Errorf("venue %s: empty room [%g,%g]x[%g,%g]", s.ID, s.Room.MinX, s.Room.MaxX, s.Room.MinY, s.Room.MaxY)
	}
	for i, ap := range s.APs {
		for _, f := range []float64{ap.X, ap.Y, ap.AxisDeg} {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("venue %s: AP %d has non-finite geometry", s.ID, i)
			}
		}
	}
	if s.Subcarriers < 0 || s.ThetaPoints < 0 || s.TauPoints < 0 || s.MaxIters < 0 {
		return fmt.Errorf("venue %s: negative grid or iteration size", s.ID)
	}
	if s.ThetaPoints == 1 || s.TauPoints == 1 {
		return fmt.Errorf("venue %s: grids need at least 2 points (or 0 for defaults)", s.ID)
	}
	if s.SubcarrierSpacingHz < 0 {
		return fmt.Errorf("venue %s: negative subcarrier spacing", s.ID)
	}
	return nil
}

// ofdm resolves the spec's CSI layout, Intel 5300 by default.
func (s *Spec) ofdm() wireless.OFDM {
	o := wireless.Intel5300OFDM()
	if s.Subcarriers > 0 {
		o.NumSubcarriers = s.Subcarriers
	}
	if s.SubcarrierSpacingHz > 0 {
		o.SubcarrierSpacing = s.SubcarrierSpacingHz
	}
	return o
}

// EstimatorConfig derives the core.Config the venue's engine runs: Intel
// 5300 array, the spec's CSI layout, and grids sized by ThetaPoints/
// TauPoints over the standard [0,180] degree and [0, tau_max] ranges.
func (s *Spec) EstimatorConfig() core.Config {
	ofdm := s.ofdm()
	cfg := core.Config{Array: wireless.Intel5300Array(), OFDM: ofdm}
	if s.ThetaPoints > 0 {
		cfg.ThetaGrid = spectra.UniformGrid(0, 180, s.ThetaPoints)
	}
	if s.TauPoints > 0 {
		cfg.TauGrid = spectra.UniformGrid(0, ofdm.MaxToA(), s.TauPoints)
	}
	if s.MaxIters > 0 {
		cfg.SolverOptions = []sparse.Option{sparse.WithMaxIters(s.MaxIters)}
	}
	return cfg
}

// shape is the registry's cache key: the fields EstimatorConfig reads, as
// written. An estimator's output depends only on its config, so venues of
// one shape share one engine and answer bit for bit as if each had its own.
type shape struct {
	subcarriers         int
	subcarrierSpacingHz float64
	thetaPoints         int
	tauPoints           int
	maxIters            int
}

func (s *Spec) shape() shape {
	return shape{s.Subcarriers, s.SubcarrierSpacingHz, s.ThetaPoints, s.TauPoints, s.MaxIters}
}

// Deployment materializes the spec as a testbed deployment — the same
// structure the evaluation pipeline and load generator synthesize workloads
// from, so a manifest venue can be driven end to end without real hardware.
func (s *Spec) Deployment() *testbed.Deployment {
	d := &testbed.Deployment{
		Room:  core.Rect{MinX: s.Room.MinX, MinY: s.Room.MinY, MaxX: s.Room.MaxX, MaxY: s.Room.MaxY},
		APs:   make([]testbed.AP, len(s.APs)),
		Array: wireless.Intel5300Array(),
		OFDM:  s.ofdm(),
		RSSI:  wireless.DefaultRSSIModel(),
	}
	for i, ap := range s.APs {
		d.APs[i] = testbed.AP{Pos: core.Point{X: ap.X, Y: ap.Y}, AxisDeg: ap.AxisDeg}
	}
	return d
}

// Manifest is the on-disk venue catalog: a schema version and the venue
// specs a serving process may be asked to host.
type Manifest struct {
	Schema int    `json:"schema"`
	Venues []Spec `json:"venues"`
}

// DecodeManifest parses and validates a manifest document: schema in
// [1, ManifestSchema], every spec valid, ids unique.
func DecodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("venue: decode manifest: %w", err)
	}
	if m.Schema < 1 || m.Schema > ManifestSchema {
		return nil, fmt.Errorf("venue: manifest schema %d outside [1,%d]", m.Schema, ManifestSchema)
	}
	if len(m.Venues) == 0 {
		return nil, fmt.Errorf("venue: manifest has no venues")
	}
	seen := make(map[string]bool, len(m.Venues))
	for i := range m.Venues {
		if err := m.Venues[i].Validate(); err != nil {
			return nil, err
		}
		id := m.Venues[i].ID
		if seen[id] {
			return nil, fmt.Errorf("venue: duplicate id %q in manifest", id)
		}
		seen[id] = true
	}
	return &m, nil
}

// LoadManifest reads and validates a manifest file.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("venue: load manifest: %w", err)
	}
	return DecodeManifest(data)
}

// Venue is one loaded estimation shape: a ready engine whose dictionaries
// and factorizations are already built, shared by every venue of the shape,
// and the byte/latency accounting the cache charged for it.
type Venue struct {
	Engine *core.Engine
	// Bytes is the estimator's heavy-state footprint the registry accounts
	// against its budget (core.Estimator.FootprintBytes).
	Bytes int64
	// BuildDuration is the wall time the load took (dictionary + Gram
	// factorization builds).
	BuildDuration time.Duration
}

// BuildConfig parameterizes venue loads.
type BuildConfig struct {
	// Workers sizes each venue engine's worker pool (<= 0 selects 1).
	Workers int
	// Warm selects the serving solve profile on the venue's estimator
	// (core.Config.Warm): its only effect is that joint solves stop on a
	// duality-gap certificate of 2%. Joint solves run on the Kronecker
	// factors either way.
	Warm bool
	// Metrics, when non-nil, receives the estimator's telemetry.
	Metrics *obs.Registry
	// Disturb, when non-nil, is called at the start of every build (once
	// per shape the registry loads), after spec validation — the hook the
	// fault harness and tests use to inject slow or stuck loads. It runs on
	// the registry's detached build goroutine, so a wedged Disturb stalls
	// only that shape's load (callers of its venues fail at their own
	// deadlines), never the request path.
	Disturb func()
}

// Build loads the shape of one venue: construct the estimator, force-build
// its dictionaries and factorizations (Warmup), and wrap it in an engine.
// All the heavy allocation happens here, never on a request path — which is
// what makes the registry's singleflight dedup worth having.
func Build(spec Spec, bcfg BuildConfig) (*Venue, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if bcfg.Disturb != nil {
		bcfg.Disturb()
	}
	cfg := spec.EstimatorConfig()
	cfg.Warm = bcfg.Warm
	cfg.Metrics = bcfg.Metrics
	start := time.Now()
	est, err := core.NewEstimator(cfg)
	if err != nil {
		return nil, fmt.Errorf("venue %s: %w", spec.ID, err)
	}
	if err := est.Warmup(); err != nil {
		return nil, fmt.Errorf("venue %s: %w", spec.ID, err)
	}
	workers := bcfg.Workers
	if workers <= 0 {
		workers = 1
	}
	eng, err := core.NewEngine(est, workers)
	if err != nil {
		return nil, fmt.Errorf("venue %s: %w", spec.ID, err)
	}
	return &Venue{
		Engine:        eng,
		Bytes:         est.FootprintBytes(),
		BuildDuration: time.Since(start),
	}, nil
}
