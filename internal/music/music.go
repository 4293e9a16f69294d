// Package music implements the MUSIC (MUltiple SIgnal Classification)
// estimator family that the paper's baselines build on: classic spatial
// MUSIC over the antenna array (the ArrayTrack base), SpotFi's smoothed joint
// AoA/ToA MUSIC, model-order estimation, multi-packet peak clustering, and
// the direct-path selection heuristics of both baseline systems.
package music

import (
	"fmt"
	"math"
	"math/cmplx"

	"roarray/internal/cmat"
	"roarray/internal/spectra"
	"roarray/internal/wireless"
)

// Covariance estimates the sample covariance R = (1/T) sum_t y_t y_tᴴ from
// snapshot column vectors of equal length.
func Covariance(snapshots [][]complex128) (*cmat.Matrix, error) {
	if len(snapshots) == 0 {
		return nil, fmt.Errorf("music: no snapshots")
	}
	n := len(snapshots[0])
	r := cmat.New(n, n)
	for i, s := range snapshots {
		if len(s) != n {
			return nil, fmt.Errorf("music: snapshot %d length %d != %d", i, len(s), n)
		}
		cmat.OuterAdd(r, s, s)
	}
	inv := complex(1/float64(len(snapshots)), 0)
	return cmat.Scale(inv, r), nil
}

// EstimateModelOrderMDL applies the Minimum Description Length criterion to
// the ascending eigenvalues of a covariance matrix estimated from numSnaps
// snapshots, returning the inferred number of sources in [0, n-1]. MUSIC's
// sensitivity to this estimate at low SNR is one of the failure modes the
// paper investigates.
func EstimateModelOrderMDL(eigAscending []float64, numSnaps int) int {
	n := len(eigAscending)
	if n < 2 || numSnaps < 1 {
		return 0
	}
	// Work on descending eigenvalues, floored to avoid log(0).
	lam := make([]float64, n)
	for i := range lam {
		v := eigAscending[n-1-i]
		if v < 1e-18 {
			v = 1e-18
		}
		lam[i] = v
	}
	best, bestVal := 0, math.Inf(1)
	for k := 0; k < n; k++ {
		m := n - k
		var logSum, sum float64
		for i := k; i < n; i++ {
			logSum += math.Log(lam[i])
			sum += lam[i]
		}
		arith := sum / float64(m)
		geo := logSum / float64(m)
		ll := float64(numSnaps*m) * (math.Log(arith) - geo)
		pen := 0.5 * float64(k*(2*n-k)) * math.Log(float64(numSnaps))
		if v := ll + pen; v < bestVal {
			best, bestVal = k, v
		}
	}
	return best
}

// SpatialConfig configures a classic narrowband spatial MUSIC estimate.
type SpatialConfig struct {
	Array wireless.Array
	// ThetaGrid holds the evaluation angles in degrees; if nil a 1-degree
	// grid over [0,180] is used.
	ThetaGrid []float64
	// NumPaths is the assumed signal count K; 0 means estimate it with MDL.
	NumPaths int
}

func (c *SpatialConfig) thetaGrid() []float64 {
	if c.ThetaGrid != nil {
		return c.ThetaGrid
	}
	return spectra.UniformGrid(0, 180, 181)
}

// SpatialSpectrum runs spatial MUSIC on one CSI measurement, treating each
// subcarrier as an independent snapshot of the M-element array (the
// ArrayTrack approach). It returns the pseudospectrum
// P(theta) = 1 / ||E_nᴴ s(theta)||^2.
func SpatialSpectrum(cfg *SpatialConfig, csi *wireless.CSI) (*spectra.Spectrum1D, error) {
	if err := cfg.Array.Validate(); err != nil {
		return nil, err
	}
	if csi.NumAntennas != cfg.Array.NumAntennas {
		return nil, fmt.Errorf("music: CSI has %d antennas, array has %d", csi.NumAntennas, cfg.Array.NumAntennas)
	}
	snaps := make([][]complex128, csi.NumSubcarriers)
	for l := 0; l < csi.NumSubcarriers; l++ {
		col := make([]complex128, csi.NumAntennas)
		for m := 0; m < csi.NumAntennas; m++ {
			col[m] = csi.Data[m][l]
		}
		snaps[l] = col
	}
	r, err := Covariance(snaps)
	if err != nil {
		return nil, err
	}
	return pseudospectrum1D(cfg.Array, cfg.thetaGrid(), r, cfg.NumPaths, len(snaps))
}

// pseudospectrum1D computes the MUSIC pseudospectrum from an M x M
// covariance with k assumed sources (k == 0 triggers MDL estimation).
func pseudospectrum1D(arr wireless.Array, grid []float64, r *cmat.Matrix, k, numSnaps int) (*spectra.Spectrum1D, error) {
	eig, err := cmat.EigHermitian(r)
	if err != nil {
		return nil, fmt.Errorf("music: covariance eig: %w", err)
	}
	m := r.Rows()
	if k <= 0 {
		k = EstimateModelOrderMDL(eig.Values, numSnaps)
	}
	if k >= m {
		k = m - 1
	}
	if k < 1 {
		k = 1
	}
	en := eig.NoiseSubspace(k)
	power := make([]float64, len(grid))
	for i, th := range grid {
		s := arr.SteeringVector(th)
		power[i] = 1 / projectionEnergy(en, s)
	}
	return spectra.NewSpectrum1D(append([]float64(nil), grid...), power)
}

// projectionEnergy returns ||E_nᴴ s||^2 with a small floor to keep the
// pseudospectrum finite.
func projectionEnergy(en *cmat.Matrix, s []complex128) float64 {
	var e float64
	for j := 0; j < en.Cols(); j++ {
		var dot complex128
		for i := 0; i < en.Rows(); i++ {
			dot += cmplx.Conj(en.At(i, j)) * s[i]
		}
		e += real(dot)*real(dot) + imag(dot)*imag(dot)
	}
	if e < 1e-12 {
		e = 1e-12
	}
	return e
}
