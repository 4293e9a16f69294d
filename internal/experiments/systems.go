package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"roarray/internal/core"
	"roarray/internal/music"
	"roarray/internal/spectra"
	"roarray/internal/testbed"
	"roarray/internal/wireless"
)

// System names used across the comparative figures.
const (
	SysROArray    = "ROArray"
	SysSpotFi     = "SpotFi"
	SysArrayTrack = "ArrayTrack"
)

// linkEstimate is one system's output on one AP link.
type linkEstimate struct {
	// DirectAoADeg is the system's direct-path AoA estimate.
	DirectAoADeg float64
	// ClosestPeakErr is the Fig. 7 metric: distance from the ground-truth
	// direct-path AoA to the nearest spectrum peak.
	ClosestPeakErr float64
}

// evalEngine bundles the three systems configured consistently (same array,
// same grids where applicable) so every figure compares like with like.
type evalEngine struct {
	opt      Options
	est      *core.Estimator
	eng      *core.Engine
	spotCfg  *music.SpotFiConfig
	trackCfg *music.ArrayTrackConfig
}

func newEvalEngine(opt Options) (*evalEngine, error) {
	est, err := core.NewEstimator(opt.estimatorConfig())
	if err != nil {
		return nil, fmt.Errorf("experiments: build estimator: %w", err)
	}
	eng, err := core.NewEngine(est, opt.Workers)
	if err != nil {
		return nil, fmt.Errorf("experiments: build engine: %w", err)
	}
	cfg := est.Config()
	// The MUSIC baselines get finer grids than the sparse dictionary: a
	// pseudospectrum is cheap to evaluate pointwise but its razor-sharp
	// peaks alias badly on coarse grids, which would handicap the baselines
	// unfairly (their published configurations use 1-degree-class grids).
	return &evalEngine{
		opt: opt,
		est: est,
		eng: eng,
		spotCfg: &music.SpotFiConfig{
			Array:     cfg.Array,
			OFDM:      cfg.OFDM,
			ThetaGrid: spectra.UniformGrid(0, 180, 91),
			TauGrid:   spectra.UniformGrid(0, cfg.OFDM.MaxToA(), 51),
		},
		trackCfg: &music.ArrayTrackConfig{
			Array:     cfg.Array,
			ThetaGrid: spectra.UniformGrid(0, 180, 181),
		},
	}, nil
}

// estimateLink runs one system on one link's packet burst; ctx carries the
// span tracer (if any) into the ROArray pipeline stages. Estimation
// failures degrade to an uninformative broadside estimate rather than
// aborting a whole run, mirroring how a deployed system would behave.
func (e *evalEngine) estimateLink(ctx context.Context, system string, link *testbed.Link, packets []*wireless.CSI) linkEstimate {
	const fallbackAoA = 90.0
	switch system {
	case SysROArray:
		spec, _, err := e.est.EstimateJointFusedInfoCtx(ctx, packets)
		if err != nil {
			return linkEstimate{DirectAoADeg: fallbackAoA, ClosestPeakErr: 180}
		}
		dp, err := e.est.DirectPath(spec)
		if err != nil {
			return linkEstimate{DirectAoADeg: fallbackAoA, ClosestPeakErr: 180}
		}
		return linkEstimate{
			DirectAoADeg:   dp.ThetaDeg,
			ClosestPeakErr: spectra.ClosestPeakError(topPeaks(spec.Peaks(0.2), 5), link.TrueAoADeg),
		}
	case SysSpotFi:
		res, err := music.Estimate(e.spotCfg, packets)
		if err != nil {
			return linkEstimate{DirectAoADeg: fallbackAoA, ClosestPeakErr: 180}
		}
		peaks := make([]spectra.Peak, 0, len(res.Clusters))
		for _, c := range res.Clusters {
			peaks = append(peaks, spectra.Peak{ThetaDeg: c.MeanTheta, Tau: c.MeanTau, Power: c.MeanPower})
		}
		return linkEstimate{
			DirectAoADeg:   res.DirectAoADeg,
			ClosestPeakErr: spectra.ClosestPeakError(topPeaks(peaks, 5), link.TrueAoADeg),
		}
	case SysArrayTrack:
		res, err := music.EstimateArrayTrack(e.trackCfg, packets)
		if err != nil {
			return linkEstimate{DirectAoADeg: fallbackAoA, ClosestPeakErr: 180}
		}
		return linkEstimate{
			DirectAoADeg:   res.DirectAoADeg,
			ClosestPeakErr: spectra.ClosestPeakError(topPeaks(res.Combined.Peaks(0.01), 5), link.TrueAoADeg),
		}
	default:
		return linkEstimate{DirectAoADeg: fallbackAoA, ClosestPeakErr: 180}
	}
}

func topPeaks(peaks []spectra.Peak, k int) []spectra.Peak {
	if len(peaks) > k {
		return peaks[:k]
	}
	return peaks
}

// BandEval aggregates the comparative metrics of one SNR band. The slices
// are parallel: LocErr/Clients/PosEst index by location, AoAErr/AoAEst/
// AoATrue by location-major, link-minor order.
type BandEval struct {
	Band testbed.SNRBand
	// LocErr maps system -> per-location localization errors (meters).
	LocErr map[string][]float64
	// AoAErr maps system -> per-link closest-peak AoA errors (degrees).
	AoAErr map[string][]float64
	// Clients holds the ground-truth client position of each location.
	Clients []core.Point
	// PosEst maps system -> per-location position estimates.
	PosEst map[string][]core.Point
	// AoATrue holds the ground-truth direct-path AoA of each link.
	AoATrue []float64
	// AoAEst maps system -> per-link direct-path AoA estimates.
	AoAEst map[string][]float64
}

// evaluateBand runs the full three-system comparison over opt.Locations
// random client placements at the given SNR band (Figs. 6 and 7 share this
// engine). systems selects which systems to run; ctx carries the span
// tracer (if any) into the ROArray pipeline.
func (e *evalEngine) evaluateBand(ctx context.Context, band testbed.SNRBand, systems []string, rng *rand.Rand) (*BandEval, error) {
	dep := testbed.Default()
	out := &BandEval{
		Band:   band,
		LocErr: make(map[string][]float64, len(systems)),
		AoAErr: make(map[string][]float64, len(systems)),
		PosEst: make(map[string][]core.Point, len(systems)),
		AoAEst: make(map[string][]float64, len(systems)),
	}
	for loc := 0; loc < e.opt.Locations; loc++ {
		client := dep.RandomClient(rng)
		sc, err := dep.GenerateScenario(client, testbed.ScenarioConfig{Band: band}, rng)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %d: %w", loc, err)
		}
		links := sc.Links
		if e.opt.APs < len(links) {
			links = links[:e.opt.APs]
		}
		out.Clients = append(out.Clients, client)
		for i := range links {
			out.AoATrue = append(out.AoATrue, links[i].TrueAoADeg)
		}
		// One burst per link, shared across systems (the paper: "all three
		// methods share the same data and each uses 15 packets").
		bursts := make([][]*wireless.CSI, len(links))
		for i := range links {
			b, err := wireless.GenerateBurst(links[i].Channel, e.opt.Packets, rng)
			if err != nil {
				return nil, fmt.Errorf("experiments: burst for AP %d: %w", i, err)
			}
			bursts[i] = b
		}
		for _, sys := range systems {
			// Estimation is deterministic given the pre-generated bursts, so
			// fanning links over the engine's workers cannot change any
			// figure: results land in index-addressed slots and are folded
			// back in link order.
			ests := make([]linkEstimate, len(links))
			e.eng.Map(len(links), func(i int) {
				ests[i] = e.estimateLink(ctx, sys, &links[i], bursts[i])
			})
			obs := make([]core.APObservation, len(links))
			for i := range links {
				out.AoAErr[sys] = append(out.AoAErr[sys], ests[i].ClosestPeakErr)
				out.AoAEst[sys] = append(out.AoAEst[sys], ests[i].DirectAoADeg)
				obs[i] = links[i].Observation(ests[i].DirectAoADeg)
			}
			pos, _, err := core.LocalizeSearchCtx(ctx, obs, dep.Room, 0.1, e.eng.Workers(), core.SearchConfig{})
			if err != nil {
				return nil, fmt.Errorf("experiments: localize: %w", err)
			}
			out.LocErr[sys] = append(out.LocErr[sys], pos.Dist(client))
			out.PosEst[sys] = append(out.PosEst[sys], pos)
		}
	}
	return out, nil
}
