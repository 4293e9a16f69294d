package core

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"roarray/internal/spectra"
	"roarray/internal/wireless"
)

func TestApplyPhaseCorrectionInvertsOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	offsets := []float64{0, 1.3, -0.9}
	cc := chanCfg([]wireless.Path{{AoADeg: 60, ToA: 30e-9, Gain: 1}}, math.Inf(1))
	cc.AntennaPhaseOffsetsRad = offsets
	corrupted, err := wireless.Generate(cc, rng)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := wireless.Generate(chanCfg(cc.Paths, math.Inf(1)), rng)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := ApplyPhaseCorrection(corrupted, offsets)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 3; m++ {
		for l := 0; l < 30; l++ {
			if cmplx.Abs(fixed.Data[m][l]-clean.Data[m][l]) > 1e-9 {
				t.Fatalf("correction did not invert offsets at (%d,%d)", m, l)
			}
		}
	}
	if _, err := ApplyPhaseCorrection(corrupted, []float64{1}); err == nil {
		t.Fatal("offset length mismatch should error")
	}
}

// calibration with the ROArray spectrum backend must recover offsets well
// enough that the corrected spectrum finds the true AoA.
func TestCalibratePhasesRecoversAoA(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	trueAoA := 120.0
	offsets := []float64{0, 2.1, 4.0}
	cc := chanCfg([]wireless.Path{{AoADeg: trueAoA, ToA: 30e-9, Gain: 1}}, 22)
	cc.AntennaPhaseOffsetsRad = offsets
	pkts, err := wireless.GenerateBurst(cc, 2, rng)
	if err != nil {
		t.Fatal(err)
	}

	calCfg := smallConfig()
	calCfg.ThetaGrid = spectra.UniformGrid(0, 180, 46)
	est, err := NewEstimator(calCfg)
	if err != nil {
		t.Fatal(err)
	}

	// Without calibration the AoA estimate should typically be off.
	specRaw, _, err := est.EstimateAoA(context.Background(), pkts[0])
	if err != nil {
		t.Fatal(err)
	}
	rawErr := spectra.ClosestPeakError(specRaw.Peaks(0.5), trueAoA)

	got, err := CalibratePhases(pkts, ROArrayReferenceScore(est, trueAoA), 10)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := ApplyPhaseCorrection(pkts[0], got)
	if err != nil {
		t.Fatal(err)
	}
	specFixed, _, err := est.EstimateAoA(context.Background(), fixed)
	if err != nil {
		t.Fatal(err)
	}
	fixedErr := spectra.ClosestPeakError(specFixed.Peaks(0.5), trueAoA)
	if fixedErr > 10 {
		t.Fatalf("calibrated AoA error %v degrees (raw %v)", fixedErr, rawErr)
	}
}

func TestCalibratePhasesMUSICBackend(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	trueAoA := 70.0
	cc := chanCfg([]wireless.Path{{AoADeg: trueAoA, ToA: 30e-9, Gain: 1}}, 22)
	cc.AntennaPhaseOffsetsRad = []float64{0, 1.0, 2.5}
	pkts, err := wireless.GenerateBurst(cc, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	sharp := MUSICReferenceScore(wireless.Intel5300Array(), spectra.UniformGrid(0, 180, 91), 1, trueAoA)
	got, err := CalibratePhases(pkts, sharp, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 {
		t.Fatalf("offsets %v: want length 3 with reference antenna 0", got)
	}
}

func TestCalibratePhasesValidation(t *testing.T) {
	est, err := NewEstimator(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sharp := ROArrayReferenceScore(est, 90)
	if _, err := CalibratePhases(nil, sharp, 8); err == nil {
		t.Fatal("empty packets should error")
	}
	pkt := wireless.NewCSI(3, 30)
	if _, err := CalibratePhases([]*wireless.CSI{pkt}, nil, 8); err == nil {
		t.Fatal("nil sharpness should error")
	}
	if _, err := CalibratePhases([]*wireless.CSI{pkt}, sharp, 2); err == nil {
		t.Fatal("too few steps should error")
	}
}

func TestCalibrateSingleAntennaTrivial(t *testing.T) {
	pkt := wireless.NewCSI(1, 30)
	got, err := CalibratePhases([]*wireless.CSI{pkt}, func([]*wireless.CSI) (float64, error) { return 0, nil }, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("single-antenna calibration = %v, want [0]", got)
	}
}
