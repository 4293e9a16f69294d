package core

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"

	"roarray/internal/music"
	"roarray/internal/spectra"
	"roarray/internal/wireless"
)

// SharpnessFunc scores a candidate phase correction: given corrected
// packets, it returns the sharpness of an AoA spectrum (higher is better).
// Different backends (ROArray's sparse spectrum vs a MUSIC pseudospectrum)
// yield the calibration variants compared in the paper's Fig. 8b.
type SharpnessFunc func(packets []*wireless.CSI) (float64, error)

// ApplyPhaseCorrection returns a copy of csi with antenna m rotated by
// exp(-j*offsets[m]), undoing per-antenna hardware phase offsets.
func ApplyPhaseCorrection(csi *wireless.CSI, offsets []float64) (*wireless.CSI, error) {
	if len(offsets) != csi.NumAntennas {
		return nil, fmt.Errorf("core: %d offsets for %d antennas", len(offsets), csi.NumAntennas)
	}
	out := csi.Clone()
	for m, beta := range offsets {
		rot := cmplx.Exp(complex(0, -beta))
		for l := 0; l < out.NumSubcarriers; l++ {
			out.Data[m][l] *= rot
		}
	}
	return out, nil
}

// applyCorrectionAll corrects every packet in a burst.
func applyCorrectionAll(packets []*wireless.CSI, offsets []float64) ([]*wireless.CSI, error) {
	out := make([]*wireless.CSI, len(packets))
	for i, p := range packets {
		c, err := ApplyPhaseCorrection(p, offsets)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// CalibratePhases estimates per-antenna phase offsets by maximizing the
// sharpness of the corrected AoA spectrum — the Phaser-style
// autocalibration of the paper's Sec. III-D, with the spectrum backend made
// pluggable. Antenna 0 is the phase reference (offset 0). The search is a
// coarse grid over [0, 2pi) per remaining antenna followed by one local
// refinement pass.
//
// coarseSteps controls the grid density per antenna (>= 4; 12 is a good
// default). The returned offsets feed ApplyPhaseCorrection.
func CalibratePhases(packets []*wireless.CSI, sharpness SharpnessFunc, coarseSteps int) ([]float64, error) {
	if len(packets) == 0 {
		return nil, fmt.Errorf("core: calibration needs at least one packet")
	}
	if sharpness == nil {
		return nil, fmt.Errorf("core: calibration needs a sharpness backend")
	}
	if coarseSteps < 4 {
		return nil, fmt.Errorf("core: calibration needs >= 4 grid steps, got %d", coarseSteps)
	}
	m := packets[0].NumAntennas
	if m < 2 {
		return make([]float64, m), nil
	}

	eval := func(offsets []float64) (float64, error) {
		corrected, err := applyCorrectionAll(packets, offsets)
		if err != nil {
			return 0, err
		}
		return sharpness(corrected)
	}

	best := make([]float64, m)
	bestScore, err := eval(best)
	if err != nil {
		return nil, fmt.Errorf("core: calibration eval: %w", err)
	}

	// Coarse joint grid over antennas 1..m-1.
	step := 2 * math.Pi / float64(coarseSteps)
	cand := make([]float64, m)
	var search func(ant int) error
	search = func(ant int) error {
		if ant == m {
			score, err := eval(cand)
			if err != nil {
				return err
			}
			if score > bestScore {
				bestScore = score
				copy(best, cand)
			}
			return nil
		}
		for s := 0; s < coarseSteps; s++ {
			cand[ant] = float64(s) * step
			if err := search(ant + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := search(1); err != nil {
		return nil, fmt.Errorf("core: calibration search: %w", err)
	}

	// Local refinement: per-antenna line search at half and quarter step.
	refined := append([]float64(nil), best...)
	for _, delta := range []float64{step / 2, step / 4} {
		for ant := 1; ant < m; ant++ {
			for _, sign := range []float64{-1, 1} {
				cand := append([]float64(nil), refined...)
				cand[ant] = math.Mod(cand[ant]+sign*delta+2*math.Pi, 2*math.Pi)
				score, err := eval(cand)
				if err != nil {
					return nil, fmt.Errorf("core: calibration refine: %w", err)
				}
				if score > bestScore {
					bestScore = score
					refined = cand
				}
			}
		}
	}
	return refined, nil
}

// Pure sharpness cannot resolve the phase-offset component that is linear in
// the antenna index: such offsets translate every beam in cos(theta) while
// leaving the spectrum exactly as sharp. Real calibration (Phaser, and the
// paper's adaptation of it) therefore anchors the search with a reference
// transmission from a known direction — the administrator's calibration
// packet. The reference scorers below implement that: they reward corrected
// spectra whose strongest response lands on the known reference angle, with
// a small sharpness bonus as the tie-breaker. The spectrum backend (sparse
// ROArray vs MUSIC) is what Fig. 8b compares: a sharper spectrum localizes
// the reference more precisely and yields better offsets.

// ROArrayReferenceScore anchors calibration with a reference packet of
// known AoA, scored on the estimator's sparse spectrum.
func ROArrayReferenceScore(est *Estimator, refAoADeg float64) SharpnessFunc {
	return func(packets []*wireless.CSI) (float64, error) {
		spec, _, err := est.EstimateAoA(context.Background(), packets[0])
		if err != nil {
			return 0, err
		}
		return referenceScore(spec, refAoADeg), nil
	}
}

// MUSICReferenceScore anchors calibration with a reference packet of known
// AoA, scored on a spatial MUSIC pseudospectrum.
func MUSICReferenceScore(arr wireless.Array, thetaGrid []float64, numPaths int, refAoADeg float64) SharpnessFunc {
	return func(packets []*wireless.CSI) (float64, error) {
		spec, err := music.SpatialSpectrum(&music.SpatialConfig{
			Array:     arr,
			ThetaGrid: thetaGrid,
			NumPaths:  numPaths,
		}, packets[0])
		if err != nil {
			return 0, err
		}
		return referenceScore(spec, refAoADeg), nil
	}
}

// referenceScore rewards spectra whose strongest peak is close to the known
// reference angle, breaking ties toward sharper spectra.
func referenceScore(spec interface {
	Peaks(minRel float64) []spectra.Peak
	Sharpness() float64
}, refAoADeg float64) float64 {
	peaks := spec.Peaks(0.5)
	if len(peaks) == 0 {
		return -1e9
	}
	err := spectra.ClosestPeakError(peaks[:1], refAoADeg)
	return -err + 0.05*spec.Sharpness()
}
