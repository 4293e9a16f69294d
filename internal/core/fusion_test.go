package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"roarray/internal/stats"
	"roarray/internal/wireless"
)

// relativeDelay is delayMatch's delay estimate on the shared filter table.
func relativeDelay(ref, pkt *wireless.CSI, ofdm wireless.OFDM) float64 {
	delta, _ := delayMatch(ref, pkt, sharedDelayTable(ofdm.SubcarrierSpacing, ref.NumSubcarriers))
	return delta
}

// compensateDelay removes a known extra delay delta from a measurement by
// counter-rotating the subcarrier phase ramp (compensateInto).
func compensateDelay(csi *wireless.CSI, delta float64, ofdm wireless.OFDM) *wireless.CSI {
	v := make([]complex128, csi.NumAntennas*csi.NumSubcarriers)
	compensateInto(v, csi, delta, ofdm)
	return unstack(v, csi, delta)
}

// unstack returns the measurement whose stacked vector is v, shaped like
// src, with src's detection delay less delta.
func unstack(v []complex128, src *wireless.CSI, delta float64) *wireless.CSI {
	out := wireless.NewCSI(src.NumAntennas, src.NumSubcarriers)
	out.DetectionDelay = src.DetectionDelay - delta
	idx := 0
	for l := 0; l < out.NumSubcarriers; l++ {
		for m := 0; m < out.NumAntennas; m++ {
			out.Data[m][l] = v[idx]
			idx++
		}
	}
	return out
}

// alignPackets runs the estimator's alignment (alignment.align) on a fresh
// workspace and returns the kept packets as measurements: the reference as
// is, every other one a compensated copy. filter selects the consensus
// reference and outlier filter that fusion runs.
func alignPackets(packets []*wireless.CSI, ofdm wireless.OFDM, filter bool) []*wireless.CSI {
	if len(packets) == 0 {
		return nil
	}
	var al alignment
	al.align(packets, ofdm, sharedDelayTable(ofdm.SubcarrierSpacing, ofdm.NumSubcarriers), filter)
	out := make([]*wireless.CSI, len(al.kept))
	ml := packets[0].NumAntennas * packets[0].NumSubcarriers
	for c, j := range al.kept {
		if j == al.ref {
			out[c] = packets[j]
		} else {
			out[c] = unstack(al.stack[j*ml:(j+1)*ml], packets[j], al.applied[j])
		}
	}
	return out
}

func TestEstimateRelativeDelayNoiseFree(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	ofdm := wireless.Intel5300OFDM()
	cc := chanCfg([]wireless.Path{
		{AoADeg: 120, ToA: 60e-9, Gain: 1},
		{AoADeg: 40, ToA: 240e-9, Gain: 0.6},
	}, math.Inf(1))
	cc.MaxDetectionDelay = 300e-9
	pkts, err := wireless.GenerateBurst(cc, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pkts); i++ {
		got := relativeDelay(pkts[0], pkts[i], ofdm)
		want := pkts[i].DetectionDelay - pkts[0].DetectionDelay
		if math.Abs(got-want) > 2e-9 {
			t.Fatalf("packet %d: delay %.1f ns, want %.1f ns", i, got*1e9, want*1e9)
		}
	}
}

func TestEstimateRelativeDelayLowSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	ofdm := wireless.Intel5300OFDM()
	cc := chanCfg([]wireless.Path{
		{AoADeg: 150, ToA: 60e-9, Gain: 1},
		{AoADeg: 70, ToA: 240e-9, Gain: 0.75},
	}, -3)
	cc.MaxDetectionDelay = 250e-9
	pkts, err := wireless.GenerateBurst(cc, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	// The matched-filter estimator must stay accurate at -3 dB where the
	// phase-slope estimator it replaced was off by 60+ ns: median error
	// within ~10 ns, occasional noise-draw outliers tolerated up to 60 ns.
	var errsNs []float64
	for i := 1; i < len(pkts); i++ {
		got := relativeDelay(pkts[0], pkts[i], ofdm)
		want := pkts[i].DetectionDelay - pkts[0].DetectionDelay
		e := math.Abs(got-want) * 1e9
		if e > 60 {
			t.Fatalf("packet %d: delay error %.1f ns at -3 dB", i, e)
		}
		errsNs = append(errsNs, e)
	}
	cdf, err := stats.NewCDF(errsNs)
	if err != nil {
		t.Fatal(err)
	}
	if med := cdf.Median(); med > 10 {
		t.Fatalf("median delay error %.1f ns at -3 dB, want <= 10 ns", med)
	}
}

func TestEstimateRelativeDelayDegenerateInputs(t *testing.T) {
	ofdm := wireless.Intel5300OFDM()
	if got := relativeDelay(wireless.NewCSI(3, 30), wireless.NewCSI(2, 30), ofdm); got != 0 {
		t.Fatal("antenna mismatch should return 0")
	}
	if got := relativeDelay(wireless.NewCSI(3, 1), wireless.NewCSI(3, 1), ofdm); got != 0 {
		t.Fatal("single subcarrier should return 0")
	}
}

func TestCompensateDelayInvertsChannelDelay(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	ofdm := wireless.Intel5300OFDM()
	cc := chanCfg([]wireless.Path{{AoADeg: 90, ToA: 100e-9, Gain: 1}}, math.Inf(1))
	base, err := wireless.Generate(cc, rng)
	if err != nil {
		t.Fatal(err)
	}
	ccDelayed := chanCfg([]wireless.Path{{AoADeg: 90, ToA: 150e-9, Gain: 1}}, math.Inf(1))
	delayed, err := wireless.Generate(ccDelayed, rng)
	if err != nil {
		t.Fatal(err)
	}
	fixed := compensateDelay(delayed, 50e-9, ofdm)
	for m := 0; m < 3; m++ {
		for l := 0; l < 30; l++ {
			d := fixed.Data[m][l] - base.Data[m][l]
			if math.Hypot(real(d), imag(d)) > 1e-9 {
				t.Fatalf("compensation mismatch at (%d,%d)", m, l)
			}
		}
	}
}

func TestAlignToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	ofdm := wireless.Intel5300OFDM()
	cc := chanCfg([]wireless.Path{{AoADeg: 60, ToA: 80e-9, Gain: 1}}, 25)
	cc.MaxDetectionDelay = 200e-9
	pkts, err := wireless.GenerateBurst(cc, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	aligned := alignPackets(pkts, ofdm, false)
	if len(aligned) != 5 {
		t.Fatalf("got %d aligned packets", len(aligned))
	}
	if aligned[0] != pkts[0] {
		t.Fatal("reference packet must pass through unchanged")
	}
	// After alignment the residual delay spread must be small.
	for i := 1; i < 5; i++ {
		resid := relativeDelay(aligned[0], aligned[i], ofdm)
		if math.Abs(resid) > 5e-9 {
			t.Fatalf("aligned packet %d still has %.1f ns residual delay", i, resid*1e9)
		}
	}
	if alignPackets(nil, ofdm, false) != nil {
		t.Fatal("empty input should return nil")
	}
}

func TestFusionRankSelection(t *testing.T) {
	// A clear two-signal spectrum over a noise tail keeps 2.
	sigma := []float64{30, 18, 2, 1.9, 1.8, 1.7, 1.8, 1.9, 2, 1.6, 1.5, 1.7, 1.9, 1.8, 1.6}
	if got := fusionRank(sigma, 5, 15); got != 2 {
		t.Fatalf("fusionRank = %d, want 2", got)
	}
	// All-noise: keep at least 1.
	flat := []float64{2, 1.9, 1.8, 1.9, 2}
	if got := fusionRank(flat, 5, 5); got != 1 {
		t.Fatalf("fusionRank flat = %d, want 1", got)
	}
	// Cap at maxPaths.
	many := []float64{30, 29, 28, 27, 26, 25, 0.1, 0.1, 0.1}
	if got := fusionRank(many, 3, 9); got != 3 {
		t.Fatalf("fusionRank cap = %d, want 3", got)
	}
	// Cap at half the packets.
	if got := fusionRank([]float64{30, 29, 0.1}, 5, 3); got <= 0 || got > 2 {
		t.Fatalf("fusionRank half-cap = %d, want in [1,2]", got)
	}
	if got := fusionRank(nil, 5, 5); got != 1 {
		t.Fatalf("fusionRank empty = %d, want 1", got)
	}
}

// Fusion must monotonically (within tolerance) improve direct-path accuracy
// at low SNR — the paper's core robustness mechanism.
func TestFusionImprovesLowSNRAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-solve experiment")
	}
	rng := rand.New(rand.NewSource(204))
	cfg := smallConfig()
	est, err := NewEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const trueAoA = 150.0
	meanErr := func(npkts, trials int) float64 {
		var sum float64
		for i := 0; i < trials; i++ {
			cc := chanCfg([]wireless.Path{
				{AoADeg: trueAoA, ToA: 60e-9, Gain: 1},
				{AoADeg: 70, ToA: 240e-9, Gain: 0.75},
			}, -3)
			cc.MaxDetectionDelay = 250e-9
			burst, err := wireless.GenerateBurst(cc, npkts, rng)
			if err != nil {
				t.Fatal(err)
			}
			dp, _, err := est.EstimateDirectAoA(context.Background(), burst)
			if err != nil {
				sum += 90
				continue
			}
			sum += math.Abs(dp.ThetaDeg - trueAoA)
		}
		return sum / float64(trials)
	}
	single := meanErr(1, 6)
	fused := meanErr(12, 6)
	if fused > single+2 {
		t.Fatalf("fusion made low-SNR accuracy worse: single %.1f deg, fused %.1f deg", single, fused)
	}
	if fused > 12 {
		t.Fatalf("fused low-SNR accuracy too poor: %.1f deg", fused)
	}
}
