package wireless

import (
	"fmt"
	"math"
	"math/rand"
)

// RSSIModel is a log-distance path-loss model with lognormal shadowing:
//
//	RSSI(d) = RefPowerDBm - 10 * Exponent * log10(d / RefDistance) + X
//
// where X ~ N(0, ShadowingSigmaDB^2). It supplies the per-AP weights R_i of
// the paper's Eq. 19 localization objective.
type RSSIModel struct {
	// RefPowerDBm is the received power at RefDistance, in dBm.
	RefPowerDBm float64
	// RefDistance is the reference distance in meters (> 0).
	RefDistance float64
	// Exponent is the path-loss exponent (2 in free space, 2.5-4 indoors).
	Exponent float64
	// ShadowingSigmaDB is the lognormal shadowing standard deviation in dB.
	ShadowingSigmaDB float64
}

// DefaultRSSIModel returns parameters typical of an indoor 5 GHz office
// deployment.
func DefaultRSSIModel() RSSIModel {
	return RSSIModel{
		RefPowerDBm:      -38,
		RefDistance:      1,
		Exponent:         2.8,
		ShadowingSigmaDB: 2.5,
	}
}

// Validate checks model parameters.
func (m RSSIModel) Validate() error {
	if m.RefDistance <= 0 {
		return fmt.Errorf("wireless: RSSI reference distance must be positive, got %v", m.RefDistance)
	}
	if m.Exponent <= 0 {
		return fmt.Errorf("wireless: RSSI path-loss exponent must be positive, got %v", m.Exponent)
	}
	if m.ShadowingSigmaDB < 0 {
		return fmt.Errorf("wireless: RSSI shadowing sigma must be nonnegative, got %v", m.ShadowingSigmaDB)
	}
	return nil
}

// Sample returns an RSSI observation in dBm at distance d meters. With a nil
// rng it is the shadowing-free mean.
func (m RSSIModel) Sample(d float64, rng *rand.Rand) float64 {
	if d < m.RefDistance {
		d = m.RefDistance
	}
	r := m.RefPowerDBm - 10*m.Exponent*math.Log10(d/m.RefDistance)
	if m.ShadowingSigmaDB > 0 && rng != nil {
		r += rng.NormFloat64() * m.ShadowingSigmaDB
	}
	return r
}

// DBmToMilliwatt converts dBm to linear milliwatts, the scale used for the
// RSSI weights R_i in Eq. 19.
func DBmToMilliwatt(dbm float64) float64 {
	return math.Pow(10, dbm/10)
}
