package wireless

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
)

// Path is one propagation path of the multipath channel.
type Path struct {
	// AoADeg is the angle of arrival at the receiving array in degrees,
	// within [0, 180].
	AoADeg float64
	// ToA is the time of arrival (propagation delay) in seconds.
	ToA float64
	// Gain is the complex attenuation a_k of the path.
	Gain complex128
}

// CSI is one channel-state-information measurement: the M x L complex matrix
// of paper Eq. 4, one row per antenna and one column per subcarrier.
type CSI struct {
	NumAntennas    int
	NumSubcarriers int
	// Data[m][l] is the CSI value at antenna m, subcarrier l.
	Data [][]complex128
	// DetectionDelay is the packet-detection delay that was baked into this
	// measurement (unknown to estimators on real hardware; recorded here for
	// testing and analysis only).
	DetectionDelay float64
}

// NewCSI allocates an all-zero CSI measurement.
func NewCSI(m, l int) *CSI {
	d := make([][]complex128, m)
	for i := range d {
		d[i] = make([]complex128, l)
	}
	return &CSI{NumAntennas: m, NumSubcarriers: l, Data: d}
}

// Clone deep-copies the measurement.
func (c *CSI) Clone() *CSI {
	out := NewCSI(c.NumAntennas, c.NumSubcarriers)
	out.DetectionDelay = c.DetectionDelay
	for m := range c.Data {
		copy(out.Data[m], c.Data[m])
	}
	return out
}

// StackedVector returns the measurement as the length M*L vector of paper
// Eq. 15: [csi_{1,1}, csi_{2,1}, csi_{3,1}, ..., csi_{1,L}, ..., csi_{M,L}]
// (antenna-major within each subcarrier).
func (c *CSI) StackedVector() []complex128 {
	out := make([]complex128, c.NumAntennas*c.NumSubcarriers)
	c.StackInto(out)
	return out
}

// StackInto writes the stacked vector (see StackedVector) into dst, which
// must hold M*L entries.
func (c *CSI) StackInto(dst []complex128) {
	idx := 0
	for l := 0; l < c.NumSubcarriers; l++ {
		for m := 0; m < c.NumAntennas; m++ {
			dst[idx] = c.Data[m][l]
			idx++
		}
	}
}

// Power returns the mean squared magnitude across all entries.
func (c *CSI) Power() float64 {
	var p float64
	n := 0
	for _, row := range c.Data {
		for _, v := range row {
			p += real(v)*real(v) + imag(v)*imag(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return p / float64(n)
}

// ChannelConfig describes one transmitter-receiver link for CSI synthesis.
type ChannelConfig struct {
	Array Array
	OFDM  OFDM
	// Paths are the propagation paths; the direct path is conventionally the
	// one with the smallest ToA.
	Paths []Path
	// SNRdB is the per-sample signal-to-noise ratio of the synthesized
	// measurement. Use math.Inf(1) for a noise-free channel.
	SNRdB float64
	// MaxDetectionDelay bounds the uniform random packet-detection delay
	// added to every path's ToA, drawn independently per packet (seconds).
	// The Intel 5300 has no absolute time reference, so this delay is
	// unknown to estimators.
	MaxDetectionDelay float64
	// AntennaPhaseOffsetsRad are fixed per-antenna hardware phase offsets
	// (radians) applied multiplicatively; they model the random offsets
	// introduced whenever the radio re-tunes, which phase calibration must
	// undo. Length must be 0 (no offsets) or NumAntennas.
	AntennaPhaseOffsetsRad []float64
	// PolarizationDeviationDeg models antenna polarization mismatch between
	// client and AP (paper Sec. IV-F): the received amplitude is scaled by
	// cos(deviation), degrading effective SNR.
	PolarizationDeviationDeg float64
	// InterferenceProb is the per-packet probability that a co-channel
	// interference burst (another transmitter at a random AoA/ToA,
	// uncorrelated across packets) lands on the measurement — one of the
	// causes the paper gives for its low-SNR regime. Zero disables.
	InterferenceProb float64
	// InterferenceINR is the interference-to-signal power ratio in dB used
	// when a burst fires.
	InterferenceINR float64
}

// Validate checks the configuration.
func (cfg *ChannelConfig) Validate() error {
	if err := cfg.Array.Validate(); err != nil {
		return err
	}
	if err := cfg.OFDM.Validate(); err != nil {
		return err
	}
	if len(cfg.Paths) == 0 {
		return fmt.Errorf("wireless: channel needs at least one path")
	}
	for i, p := range cfg.Paths {
		if p.AoADeg < 0 || p.AoADeg > 180 {
			return fmt.Errorf("wireless: path %d AoA %v outside [0,180]", i, p.AoADeg)
		}
		if p.ToA < 0 {
			return fmt.Errorf("wireless: path %d ToA %v negative", i, p.ToA)
		}
	}
	if n := len(cfg.AntennaPhaseOffsetsRad); n != 0 && n != cfg.Array.NumAntennas {
		return fmt.Errorf("wireless: %d phase offsets for %d antennas", n, cfg.Array.NumAntennas)
	}
	if cfg.MaxDetectionDelay < 0 {
		return fmt.Errorf("wireless: negative detection delay bound %v", cfg.MaxDetectionDelay)
	}
	if cfg.PolarizationDeviationDeg < 0 || cfg.PolarizationDeviationDeg >= 90 {
		return fmt.Errorf("wireless: polarization deviation %v outside [0,90)", cfg.PolarizationDeviationDeg)
	}
	if cfg.InterferenceProb < 0 || cfg.InterferenceProb > 1 {
		return fmt.Errorf("wireless: interference probability %v outside [0,1]", cfg.InterferenceProb)
	}
	return nil
}

// Generate synthesizes one CSI measurement (one packet) under cfg using rng
// for the detection delay and noise draws. The rng is required: every
// generator takes an explicit per-instance randomness source so that runs
// are reproducible regardless of goroutine scheduling (there is deliberately
// no fallback to the global math/rand state).
func Generate(cfg *ChannelConfig, rng *rand.Rand) (*CSI, error) {
	if rng == nil {
		return nil, fmt.Errorf("wireless: Generate needs an explicit *rand.Rand (no global fallback)")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, l := cfg.Array.NumAntennas, cfg.OFDM.NumSubcarriers
	csi := NewCSI(m, l)

	delay := 0.0
	if cfg.MaxDetectionDelay > 0 {
		delay = rng.Float64() * cfg.MaxDetectionDelay
	}
	csi.DetectionDelay = delay

	polScale := complex(math.Cos(cfg.PolarizationDeviationDeg*math.Pi/180), 0)

	// Superpose every path (paper Eq. 3 extended across subcarriers).
	for _, p := range cfg.Paths {
		lam := cfg.Array.PhaseFactor(p.AoADeg)
		gam := cfg.OFDM.PhaseFactor(p.ToA + delay)
		g := p.Gain * polScale
		gcur := complex(1, 0)
		for sc := 0; sc < l; sc++ {
			acur := gcur
			for ant := 0; ant < m; ant++ {
				csi.Data[ant][sc] += g * acur
				acur *= lam
			}
			gcur *= gam
		}
	}

	// Hardware phase offsets (per antenna, common to all subcarriers).
	if len(cfg.AntennaPhaseOffsetsRad) == m {
		for ant := 0; ant < m; ant++ {
			rot := cmplx.Exp(complex(0, cfg.AntennaPhaseOffsetsRad[ant]))
			for sc := 0; sc < l; sc++ {
				csi.Data[ant][sc] *= rot
			}
		}
	}

	// Co-channel interference: another transmitter's burst arrives from a
	// random direction with a random delay, independently per packet. It is
	// a structured (planar-wave) corruption, not white noise: it consumes a
	// signal-subspace dimension in MUSIC-style estimators while coherent
	// multi-packet processing can average it out.
	if cfg.InterferenceProb > 0 && rng.Float64() < cfg.InterferenceProb {
		sig := csi.Power()
		amp := math.Sqrt(sig * math.Pow(10, cfg.InterferenceINR/10))
		itheta := 180 * rng.Float64()
		itau := rng.Float64() / cfg.OFDM.SubcarrierSpacing
		phase := 2 * math.Pi * rng.Float64()
		g := complex(amp*math.Cos(phase), amp*math.Sin(phase))
		lam := cfg.Array.PhaseFactor(itheta)
		gam := cfg.OFDM.PhaseFactor(itau)
		gcur := complex(1, 0)
		for sc := 0; sc < l; sc++ {
			acur := gcur
			for ant := 0; ant < m; ant++ {
				csi.Data[ant][sc] += g * acur
				acur *= lam
			}
			gcur *= gam
		}
	}

	// Additive white Gaussian noise at the requested SNR.
	if !math.IsInf(cfg.SNRdB, 1) {
		sig := csi.Power()
		noiseVar := sig / math.Pow(10, cfg.SNRdB/10)
		sigma := math.Sqrt(noiseVar / 2)
		for ant := 0; ant < m; ant++ {
			for sc := 0; sc < l; sc++ {
				csi.Data[ant][sc] += complex(sigma*rng.NormFloat64(), sigma*rng.NormFloat64())
			}
		}
	}
	return csi, nil
}

// GenerateBurst synthesizes n packets with independent noise and detection
// delays over the same (static) channel.
func GenerateBurst(cfg *ChannelConfig, n int, rng *rand.Rand) ([]*CSI, error) {
	if n <= 0 {
		return nil, fmt.Errorf("wireless: burst size must be positive, got %d", n)
	}
	out := make([]*CSI, n)
	for i := range out {
		c, err := Generate(cfg, rng)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}
