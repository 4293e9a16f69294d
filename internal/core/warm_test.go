package core

import (
	"math"
	"sync"
	"testing"

	"roarray/internal/obs"
	"roarray/internal/sparse"
	"roarray/internal/spectra"
	"roarray/internal/wireless"
)

// warmTestConfig is a small but real estimation problem: the Intel 5300
// array with reduced grids so the tests stay fast.
func warmTestConfig(warm bool) Config {
	ofdm := wireless.Intel5300OFDM()
	return Config{
		Array:         wireless.Intel5300Array(),
		OFDM:          ofdm,
		ThetaGrid:     spectra.UniformGrid(0, 180, 31),
		TauGrid:       spectra.UniformGrid(0, ofdm.MaxToA(), 8),
		SolverOptions: []sparse.Option{sparse.WithMaxIters(150)},
		Warm:          warm,
	}
}

// warmBurst generates a burst of packets from one channel — the consecutive
// measurements whose solves a warm estimator chains.
func warmBurst(t *testing.T, seed int64, packets int) []*wireless.CSI {
	t.Helper()
	gen, err := wireless.NewGenerator(&wireless.ChannelConfig{
		Array: wireless.Intel5300Array(),
		OFDM:  wireless.Intel5300OFDM(),
		Paths: []wireless.Path{
			{AoADeg: 62, ToA: 35e-9, Gain: 1},
			{AoADeg: 128, ToA: 180e-9, Gain: 0.6},
		},
		SNRdB: 15,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*wireless.CSI, packets)
	for i := range out {
		if out[i], err = gen.Packet(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// specPeakDelta returns the absolute difference of the two spectra's argmax
// angles in degrees.
func specPeakDelta(a, b *spectra.Spectrum1D) float64 {
	argmax := func(s *spectra.Spectrum1D) float64 {
		bi, bp := 0, -1.0
		for i, p := range s.Power {
			if p > bp {
				bi, bp = i, p
			}
		}
		return s.ThetaDeg[bi]
	}
	return math.Abs(argmax(a) - argmax(b))
}

// TestEstimatorWarmMatchesColdPerPacket: across a 64-packet burst, the warm
// estimator's per-packet AoA spectra stay within solver tolerance of the
// cold estimator's — same dominant peak, near-identical spectrum — while its
// chained solves engage warm seeds and save iterations.
func TestEstimatorWarmMatchesColdPerPacket(t *testing.T) {
	cold, err := NewEstimator(warmTestConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	wcfg := warmTestConfig(true)
	wcfg.Metrics = reg
	warm, err := NewEstimator(wcfg)
	if err != nil {
		t.Fatal(err)
	}

	burst := warmBurst(t, 42, 64)
	for pkt, csi := range burst {
		cs, err := cold.EstimateAoA(csi)
		if err != nil {
			t.Fatalf("packet %d cold: %v", pkt, err)
		}
		wsp, err := warm.EstimateAoA(csi)
		if err != nil {
			t.Fatalf("packet %d warm: %v", pkt, err)
		}
		if d := specPeakDelta(wsp, cs); d > 1e-9 {
			t.Fatalf("packet %d: warm spectrum's peak moved %.3g degrees off the cold peak", pkt, d)
		}
		var dn, n2 float64
		for i := range cs.Power {
			d := wsp.Power[i] - cs.Power[i]
			dn += d * d
			n2 += cs.Power[i] * cs.Power[i]
		}
		if rel := math.Sqrt(dn / math.Max(n2, 1e-24)); rel > 5e-2 {
			t.Fatalf("packet %d: warm spectrum diverged %.3g relative l2 from cold", pkt, rel)
		}
	}
	if got := reg.Counter("core.warmstart.engaged_total").Value(); got < 60 {
		t.Fatalf("warm seeds engaged on %d of 63 eligible solves", got)
	}
	if got := reg.Counter("core.warmstart.iter_saved").Value(); got <= 0 {
		t.Fatalf("warm chain saved %d iterations, want > 0", got)
	}
	t.Logf("engaged=%d iter_saved=%d earlystop=%d",
		reg.Counter("core.warmstart.engaged_total").Value(),
		reg.Counter("core.warmstart.iter_saved").Value(),
		reg.Counter("sparse.solve.earlystop_total").Value())
}

// TestEstimatorWarmConcurrentHammer hammers one shared Warm estimator from
// 16 goroutines solving distinct bursts. Run under `go test -race`: the
// per-dictionary warm caches are the shared mutable state this gate covers —
// take/put must stay safe while every solve still returns a usable spectrum
// (warm results are seed-dependent, so the assertion here is peak agreement
// with a cold reference, not bitwise equality).
func TestEstimatorWarmConcurrentHammer(t *testing.T) {
	const goroutines = 16
	warm, err := NewEstimator(warmTestConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewEstimator(warmTestConfig(false))
	if err != nil {
		t.Fatal(err)
	}

	bursts := make([][]*wireless.CSI, goroutines)
	refs := make([][]*spectra.Spectrum1D, goroutines)
	for g := range bursts {
		bursts[g] = warmBurst(t, int64(3000+g), 4)
		refs[g] = make([]*spectra.Spectrum1D, len(bursts[g]))
		for i, csi := range bursts[g] {
			if refs[g][i], err = cold.EstimateAoA(csi); err != nil {
				t.Fatal(err)
			}
		}
	}

	var wg sync.WaitGroup
	failures := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, csi := range bursts[g] {
					spec, err := warm.EstimateAoA(csi)
					if err != nil {
						failures <- err.Error()
						return
					}
					if d := specPeakDelta(spec, refs[g][i]); d > 6+1e-9 {
						failures <- "concurrent warm spectrum peak drifted off the cold reference"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(failures)
	for msg := range failures {
		t.Fatal(msg)
	}
}

// TestFootprintBytesFormula pins what FootprintBytes counts as resident for
// the 3-antenna, 30-subcarrier, 31 x 8 grid of warmTestConfig: both
// dictionaries and the AoA Cholesky factor always; then either the joint
// dictionary's dense 90 x 90 Cholesky factor (cold) or, in warm mode, the
// Kronecker factor pair and its conjugates (30 x 8 and 3 x 31 each) plus the
// factored ridge step (three 8 x 8 H_m blocks and the rotated 3 x 31 AoA
// factor with its conjugate).
func TestFootprintBytesFormula(t *testing.T) {
	const c = 16
	base := int64(3*31*c + 90*31*8*c + 3*3*c)
	for _, tc := range []struct {
		warm bool
		want int64
	}{
		{false, base + 90*90*c},
		{true, base + 2*(30*8+3*31)*c + (3*8*8+2*3*31)*c},
	} {
		e, err := NewEstimator(warmTestConfig(tc.warm))
		if err != nil {
			t.Fatal(err)
		}
		if got := e.FootprintBytes(); got != tc.want {
			t.Errorf("warm=%v: FootprintBytes = %d, want %d", tc.warm, got, tc.want)
		}
	}
}
