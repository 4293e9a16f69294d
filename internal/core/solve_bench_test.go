package core

import (
	"context"
	"math/rand"
	"testing"

	"roarray/internal/sparse"
	"roarray/internal/spectra"
	"roarray/internal/wireless"
)

// smokeServingConfig is the smoke preset's estimator under the serving
// profile: 3 antennas, 8 subcarriers at 4 MHz, a 19 x 8 grid, a 60-iteration
// cap and the gap stop (Warm).
func smokeServingConfig() Config {
	ofdm := wireless.OFDM{NumSubcarriers: 8, SubcarrierSpacing: 4e6}
	return Config{
		Array:         wireless.Intel5300Array(),
		OFDM:          ofdm,
		ThetaGrid:     spectra.UniformGrid(0, 180, 19),
		TauGrid:       spectra.UniformGrid(0, ofdm.MaxToA(), 8),
		SolverOptions: []sparse.Option{sparse.WithMaxIters(60)},
		Warm:          true,
	}
}

// BenchmarkEstimateDirectAoASmoke measures one warm single-link estimate at
// the smoke serving shape: a 2-packet burst through alignment, l1-SVD
// fusion, the joint solve and direct-path selection, with allocations
// reported (`make bench-solve`).
func BenchmarkEstimateDirectAoASmoke(b *testing.B) {
	cfg := smokeServingConfig()
	est, err := NewEstimator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := est.Warmup(); err != nil {
		b.Fatal(err)
	}
	cc := &wireless.ChannelConfig{
		Array: cfg.Array, OFDM: cfg.OFDM,
		Paths: []wireless.Path{
			{AoADeg: 70, ToA: 40e-9, Gain: 1},
			{AoADeg: 130, ToA: 150e-9, Gain: 0.5},
		},
		SNRdB:             15,
		MaxDetectionDelay: 100e-9,
	}
	var bursts [][]*wireless.CSI
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		burst, err := wireless.GenerateBurst(cc, 2, rng)
		if err != nil {
			b.Fatal(err)
		}
		bursts = append(bursts, burst)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := est.EstimateDirectAoA(ctx, bursts[i%len(bursts)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestJointDictResidentOnlyUnderFallback: the dense joint dictionary stays
// resident only for the OMP stage of Config.Fallback; the joint solver
// itself keeps none.
func TestJointDictResidentOnlyUnderFallback(t *testing.T) {
	for _, fallback := range []bool{false, true} {
		cfg := smokeServingConfig()
		cfg.Fallback = fallback
		est, err := NewEstimator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := est.Warmup(); err != nil {
			t.Fatal(err)
		}
		if d := est.jointSolver.Dict(); d != nil {
			t.Errorf("fallback=%v: joint solver keeps a %dx%d dense dictionary", fallback, d.Rows(), d.Cols())
		}
		if kept := est.jointDict != nil; kept != fallback {
			t.Errorf("fallback=%v: dense joint dictionary resident = %v", fallback, kept)
		}
	}
}
