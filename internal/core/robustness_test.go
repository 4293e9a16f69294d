package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"roarray/internal/spectra"
	"roarray/internal/wireless"
)

// The direct-path rule must not be hijacked by endfire artifacts: a noise
// spike at theta=0 with a tiny tau would otherwise win the min-ToA vote.
func TestDirectPathIgnoresEndfirePeaks(t *testing.T) {
	est, err := NewEstimator(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	theta := spectra.UniformGrid(0, 180, 37)  // 5 degree spacing
	tau := spectra.UniformGrid(0, 800e-9, 17) // 50 ns spacing
	power := make([][]float64, len(theta))
	for i := range power {
		power[i] = make([]float64, len(tau))
	}
	power[0][0] = 0.9   // endfire artifact (theta 0) with the smallest tau
	power[24][8] = 0.8  // the real direct path candidate (theta 120, 400 ns)
	power[12][14] = 0.5 // a later reflection (theta 60, 700 ns)
	power[36][0] = 0.95 // endfire artifact on the other side (theta 180)
	spec, err := spectra.NewSpectrum2D(theta, tau, power)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := est.DirectPath(spec)
	if err != nil {
		t.Fatal(err)
	}
	if dp.ThetaDeg == 0 || dp.ThetaDeg == 180 {
		t.Fatalf("direct path %v hijacked by an endfire artifact", dp.ThetaDeg)
	}
	if math.Abs(dp.ThetaDeg-120) > 8 {
		t.Fatalf("direct path theta %v, want ~120 (smallest ToA among valid peaks)", dp.ThetaDeg)
	}
}

func TestDirectPathAllEndfireIsError(t *testing.T) {
	est, err := NewEstimator(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := spectra.NewSpectrum2D(
		[]float64{0, 180}, []float64{0, 100e-9},
		[][]float64{{1, 0}, {0, 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.DirectPath(spec); err == nil {
		t.Fatal("all-endfire spectrum should report no usable peaks")
	}
}

// The alignment's outlier filter must reject sporadically interfered packets: with a third
// of the burst carrying a strong independent interferer, the kept set
// should be dominated by clean packets.
func TestAlignAndFilterRejectsInterferedPackets(t *testing.T) {
	rng := rand.New(rand.NewSource(400))
	ofdm := wireless.Intel5300OFDM()
	clean := chanCfg([]wireless.Path{
		{AoADeg: 120, ToA: 60e-9, Gain: 1},
		{AoADeg: 50, ToA: 240e-9, Gain: 0.5},
	}, 8)
	clean.MaxDetectionDelay = 150e-9
	dirty := *clean
	dirty.InterferenceProb = 1
	dirty.InterferenceINR = 8

	var packets []*wireless.CSI
	interfered := map[int]bool{}
	for i := 0; i < 12; i++ {
		cfg := clean
		if i%4 == 0 { // packets 0, 4, 8 interfered
			cfg = &dirty
			interfered[i] = true
		}
		p, err := wireless.Generate(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Tag the packet via its detection delay so we can recognize it in
		// the output (delays are copied through filtering and compensation
		// only shifts them).
		p.DetectionDelay = float64(i) // sentinel, not used by the filter
		packets = append(packets, p)
	}
	kept := alignPackets(packets, ofdm, true)
	if len(kept) < 6 {
		t.Fatalf("filter too aggressive: kept %d of 12", len(kept))
	}
	keptInterfered := 0
	for _, k := range kept {
		// Recover the index from the sentinel (compensation shifts the
		// sentinel by < 0.5, so rounding recovers it).
		idx := int(math.Round(k.DetectionDelay))
		if interfered[idx] {
			keptInterfered++
		}
	}
	if keptInterfered > 1 {
		t.Fatalf("filter kept %d interfered packets (kept set size %d)", keptInterfered, len(kept))
	}
}

// End-to-end robustness: with a quarter of packets interfered, the fused
// direct-path estimate must stay accurate.
func TestFusionSurvivesSporadicInterference(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-solve experiment")
	}
	rng := rand.New(rand.NewSource(401))
	est, err := NewEstimator(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	const trueAoA = 120.0
	cc := chanCfg([]wireless.Path{
		{AoADeg: trueAoA, ToA: 60e-9, Gain: 1},
		{AoADeg: 50, ToA: 240e-9, Gain: 0.6},
	}, 4)
	cc.MaxDetectionDelay = 150e-9
	cc.InterferenceProb = 0.25
	cc.InterferenceINR = 3

	var errSum float64
	const trials = 5
	for i := 0; i < trials; i++ {
		burst, err := wireless.GenerateBurst(cc, 15, rng)
		if err != nil {
			t.Fatal(err)
		}
		dp, _, err := est.EstimateDirectAoA(context.Background(), burst)
		if err != nil {
			errSum += 90
			continue
		}
		errSum += math.Abs(dp.ThetaDeg - trueAoA)
	}
	if mean := errSum / trials; mean > 10 {
		t.Fatalf("mean direct-path error %.1f deg under sporadic interference", mean)
	}
}
