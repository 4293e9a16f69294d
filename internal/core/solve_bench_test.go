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

// smokeBursts returns count seeded bursts of the given packet count at the
// smoke serving shape: two paths, 15 dB SNR, up to 100 ns detection delay.
func smokeBursts(tb testing.TB, cfg Config, count, packets int) [][]*wireless.CSI {
	tb.Helper()
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
	for i := 0; i < count; i++ {
		burst, err := wireless.GenerateBurst(cc, packets, rng)
		if err != nil {
			tb.Fatal(err)
		}
		bursts = append(bursts, burst)
	}
	return bursts
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
	bursts := smokeBursts(b, cfg, 8, 2)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := est.EstimateDirectAoA(ctx, bursts[i%len(bursts)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWarmEstimateDirectAoAAllocatesNothing: once the estimator's link
// workspace pool is warm, a single-link estimate at the smoke serving shape
// allocates nothing — its outputs (the peak and the SolveInfo) are values,
// and every intermediate from the stacked CSI to the peak list lives in the
// pooled workspace. The serving shape's 2-packet bursts are checked, and
// 5-packet bursts, which take the outlier filter's path through alignment.
func TestWarmEstimateDirectAoAAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled workspaces at random under -race")
	}
	cfg := smokeServingConfig()
	est, err := NewEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, packets := range []int{2, 5} {
		bursts := smokeBursts(t, cfg, 8, packets)
		for _, burst := range bursts { // warm the pool
			if _, _, err := est.EstimateDirectAoA(ctx, burst); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := est.EstimateDirectAoA(ctx, bursts[i%len(bursts)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs > 0 {
			t.Errorf("%d-packet bursts: %.1f allocations per warm link estimate, want 0", packets, allocs)
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
