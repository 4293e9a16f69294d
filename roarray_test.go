package roarray_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"roarray"
)

// TestFacadeEndToEnd exercises the public API the way the README's
// quickstart does: simulate, estimate, identify the direct path, localize.
func TestFacadeEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	arr := roarray.Intel5300Array()
	ofdm := roarray.Intel5300OFDM()

	est, err := roarray.NewEstimator(roarray.Config{
		Array:     arr,
		OFDM:      ofdm,
		ThetaGrid: roarray.UniformGrid(0, 180, 61),
		TauGrid:   roarray.UniformGrid(0, ofdm.MaxToA(), 25),
	})
	if err != nil {
		t.Fatal(err)
	}
	burst, err := roarray.GenerateBurst(&roarray.ChannelConfig{
		Array: arr, OFDM: ofdm,
		Paths: []roarray.Path{
			{AoADeg: 120, ToA: 50e-9, Gain: 1},
			{AoADeg: 40, ToA: 250e-9, Gain: 0.7},
		},
		SNRdB:             10,
		MaxDetectionDelay: 100e-9,
	}, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	spec, _, err := est.EstimateJointFusedInfoCtx(context.Background(), burst)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := est.DirectPath(spec)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(direct.ThetaDeg-120) > 6 {
		t.Fatalf("direct AoA %v, want ~120", direct.ThetaDeg)
	}
}

func TestFacadeDeploymentPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dep := roarray.DefaultDeployment()
	client := dep.RandomClient(rng)
	sc, err := dep.GenerateScenario(client, roarray.ScenarioConfig{Band: roarray.BandHigh}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Links) != 6 {
		t.Fatalf("got %d links", len(sc.Links))
	}
	// Use the geometric truth directly: the facade's Localize must then
	// recover the client almost exactly.
	obs := make([]roarray.APObservation, len(sc.Links))
	for i, l := range sc.Links {
		obs[i] = l.Observation(l.TrueAoADeg)
	}
	pos, _, err := roarray.Localize(context.Background(), obs, dep.Room, 0.1, 1, roarray.SearchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if pos.Dist(client) > 0.2 {
		t.Fatalf("localized %v, want %v", pos, client)
	}
}

func TestFacadeCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	arr := roarray.Intel5300Array()
	ofdm := roarray.Intel5300OFDM()
	est, err := roarray.NewEstimator(roarray.Config{
		Array:     arr,
		OFDM:      ofdm,
		ThetaGrid: roarray.UniformGrid(0, 180, 46),
	})
	if err != nil {
		t.Fatal(err)
	}
	csi, err := roarray.GenerateCSI(&roarray.ChannelConfig{
		Array: arr, OFDM: ofdm,
		Paths:                  []roarray.Path{{AoADeg: 60, ToA: 30e-9, Gain: 1}},
		SNRdB:                  20,
		AntennaPhaseOffsetsRad: []float64{0, 1.7, 3.9},
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	offsets, err := roarray.CalibratePhases(
		[]*roarray.CSI{csi}, roarray.ROArrayReferenceScore(est, 60), 8)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := roarray.ApplyPhaseCorrection(csi, offsets)
	if err != nil {
		t.Fatal(err)
	}
	spec, _, err := est.EstimateAoA(context.Background(), fixed)
	if err != nil {
		t.Fatal(err)
	}
	peaks := spec.Peaks(0.5)
	if len(peaks) == 0 || math.Abs(peaks[0].ThetaDeg-60) > 10 {
		t.Fatalf("calibrated AoA peaks %+v, want ~60", peaks)
	}
}

func TestFacadeErrNoPeaks(t *testing.T) {
	if !errors.Is(roarray.ErrNoPeaks, roarray.ErrNoPeaks) {
		t.Fatal("sentinel error identity broken")
	}
}

func TestFacadeExpectedAoA(t *testing.T) {
	got := roarray.ExpectedAoA(roarray.Point{X: 0, Y: 0}, 0, roarray.Point{X: 0, Y: 1})
	if math.Abs(got-90) > 1e-9 {
		t.Fatalf("ExpectedAoA = %v, want 90", got)
	}
}
