package core

import (
	"context"
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"roarray/internal/cmat"
	"roarray/internal/sparse"
	"roarray/internal/spectra"
	"roarray/internal/wireless"
)

// smallConfig keeps the grids coarse so tests run fast while still
// resolving well-separated paths.
func smallConfig() Config {
	return Config{
		Array:     wireless.Intel5300Array(),
		OFDM:      wireless.Intel5300OFDM(),
		ThetaGrid: spectra.UniformGrid(0, 180, 61), // 3 degree spacing
		TauGrid:   spectra.UniformGrid(0, wireless.Intel5300OFDM().MaxToA(), 26),
	}
}

func chanCfg(paths []wireless.Path, snr float64) *wireless.ChannelConfig {
	return &wireless.ChannelConfig{
		Array: wireless.Intel5300Array(),
		OFDM:  wireless.Intel5300OFDM(),
		Paths: paths,
		SNRdB: snr,
	}
}

func TestConfigDefaults(t *testing.T) {
	est, err := NewEstimator(Config{Array: wireless.Intel5300Array(), OFDM: wireless.Intel5300OFDM()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := est.Config()
	if len(cfg.ThetaGrid) != 91 || len(cfg.TauGrid) != 50 {
		t.Fatalf("default grids %dx%d, want 91x50", len(cfg.ThetaGrid), len(cfg.TauGrid))
	}
	if cfg.KappaRatio != 0.25 || cfg.MaxPaths != 5 || cfg.PeakThreshold != 0.3 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

func TestConfigValidation(t *testing.T) {
	base := smallConfig()
	bad := []func(*Config){
		func(c *Config) { c.Array.NumAntennas = 0 },
		func(c *Config) { c.OFDM.NumSubcarriers = 0 },
		func(c *Config) { c.KappaRatio = 1.5 },
		func(c *Config) { c.MaxPaths = -1 },
		func(c *Config) { c.PeakThreshold = 2 },
	}
	for i, mutate := range bad {
		c := base
		mutate(&c)
		if _, err := NewEstimator(c); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestDictionaryShapes(t *testing.T) {
	arr := wireless.Intel5300Array()
	ofdm := wireless.Intel5300OFDM()
	th := spectra.UniformGrid(0, 180, 10)
	tu := spectra.UniformGrid(0, ofdm.MaxToA(), 5)
	ad := BuildAoADictionary(arr, th)
	if ad.Rows() != 3 || ad.Cols() != 10 {
		t.Fatalf("AoA dictionary %dx%d, want 3x10", ad.Rows(), ad.Cols())
	}
	jd := BuildJointDictionary(arr, ofdm, th, tu)
	if jd.Rows() != 90 || jd.Cols() != 50 {
		t.Fatalf("joint dictionary %dx%d, want 90x50", jd.Rows(), jd.Cols())
	}
	// Column ordering is tau-major: column t*Ntheta + i equals
	// s(theta_i, tau_t).
	want := wireless.JointSteeringVector(arr, ofdm, th[3], tu[2])
	got := jd.Col(2*10 + 3)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("joint dictionary ordering wrong at element %d", i)
		}
	}
}

// TestJointDictionaryIsKronecker: the space-delay dictionary is the
// Kronecker product of its delay and AoA factors, entry ((l*M+m),
// (t*Ntheta+i)) = g(tau_t)[l] * s(theta_i)[m], within 1e-9 relative to each
// entry, at the smoke and paper serving presets' shapes (3 x 8 CSI with a
// 19 x 8 grid; 3 x 30 CSI with the default 91 x 50 grid) and the figure
// pipeline's (3 x 30 CSI, 46 x 20 grid). Every joint solver is built from
// the factors alone, so this identity is what makes it solve Eq. 18.
func TestJointDictionaryIsKronecker(t *testing.T) {
	figure := wireless.Intel5300OFDM()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"smoke", smokeServingConfig()},
		{"paper", paperServingConfig()},
		{"figure", Config{
			Array:     wireless.Intel5300Array(),
			OFDM:      figure,
			ThetaGrid: spectra.UniformGrid(0, 180, 46),
			TauGrid:   spectra.UniformGrid(0, figure.MaxToA(), 20),
		}},
	} {
		cfg := tc.cfg.withDefaults()
		dense := BuildJointDictionary(cfg.Array, cfg.OFDM, cfg.ThetaGrid, cfg.TauGrid)
		kron := cmat.Kron(BuildDelayDictionary(cfg.OFDM, cfg.TauGrid), BuildAoADictionary(cfg.Array, cfg.ThetaGrid))
		if dense.Rows() != kron.Rows() || dense.Cols() != kron.Cols() {
			t.Fatalf("%s: joint dictionary %dx%d, factors tile %dx%d", tc.name, dense.Rows(), dense.Cols(), kron.Rows(), kron.Cols())
		}
		for i := 0; i < dense.Rows(); i++ {
			for j, want := range kron.RowView(i) {
				if d := cmplx.Abs(dense.At(i, j) - want); d > 1e-9*(1+cmplx.Abs(want)) {
					t.Fatalf("%s: entry (%d,%d) deviates from the Kronecker factors by %.3g", tc.name, i, j, d)
				}
			}
		}
	}
}

func TestEstimateAoASinglePath(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	est, err := NewEstimator(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	trueAoA := 150.0
	csi, err := wireless.Generate(chanCfg([]wireless.Path{{AoADeg: trueAoA, ToA: 30e-9, Gain: 1}}, 20), rng)
	if err != nil {
		t.Fatal(err)
	}
	spec, _, err := est.EstimateAoA(context.Background(), csi)
	if err != nil {
		t.Fatal(err)
	}
	peaks := spec.Peaks(0.5)
	if len(peaks) == 0 {
		t.Fatal("no AoA peaks")
	}
	if math.Abs(peaks[0].ThetaDeg-trueAoA) > 4 {
		t.Fatalf("AoA %v, want ~%v", peaks[0].ThetaDeg, trueAoA)
	}
	// Sparse spectrum should be mostly zero (sharp).
	nonzero := 0
	for _, p := range spec.Power {
		if p > 1e-6 {
			nonzero++
		}
	}
	if nonzero > len(spec.Power)/3 {
		t.Fatalf("spectrum not sparse: %d/%d nonzero", nonzero, len(spec.Power))
	}
}

func TestEstimateJointRecoversAoAAndToA(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	est, err := NewEstimator(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	trueAoA, trueToA := 60.0, 160e-9
	csi, err := wireless.Generate(chanCfg([]wireless.Path{{AoADeg: trueAoA, ToA: trueToA, Gain: 1}}, 18), rng)
	if err != nil {
		t.Fatal(err)
	}
	spec, _, err := est.EstimateJoint(context.Background(), csi)
	if err != nil {
		t.Fatal(err)
	}
	peaks := spec.Peaks(0.5)
	if len(peaks) == 0 {
		t.Fatal("no joint peaks")
	}
	if math.Abs(peaks[0].ThetaDeg-trueAoA) > 4 {
		t.Fatalf("joint AoA %v, want ~%v", peaks[0].ThetaDeg, trueAoA)
	}
	if math.Abs(peaks[0].Tau-trueToA) > 40e-9 {
		t.Fatalf("joint ToA %v, want ~%v", peaks[0].Tau, trueToA)
	}
}

func TestDirectPathSmallestToA(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	est, err := NewEstimator(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	direct := wireless.Path{AoADeg: 45, ToA: 60e-9, Gain: 1}
	reflect := wireless.Path{AoADeg: 135, ToA: 330e-9, Gain: 0.8}
	csi, err := wireless.Generate(chanCfg([]wireless.Path{direct, reflect}, 20), rng)
	if err != nil {
		t.Fatal(err)
	}
	spec, _, err := est.EstimateJoint(context.Background(), csi)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := est.DirectPath(spec)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dp.ThetaDeg-direct.AoADeg) > 5 {
		t.Fatalf("direct path AoA %v, want ~%v (reflection at %v)", dp.ThetaDeg, direct.AoADeg, reflect.AoADeg)
	}
}

func TestDirectPathNoPeaks(t *testing.T) {
	est, err := NewEstimator(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	empty, err := spectra.NewSpectrum2D([]float64{0, 1}, []float64{0, 1}, [][]float64{{0, 0}, {0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.DirectPath(empty); !errors.Is(err, ErrNoPeaks) {
		t.Fatalf("want ErrNoPeaks, got %v", err)
	}
}

func TestFusionSharpensSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	est, err := NewEstimator(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cc := chanCfg([]wireless.Path{
		{AoADeg: 100, ToA: 80e-9, Gain: 1},
		{AoADeg: 40, ToA: 280e-9, Gain: 0.6},
	}, 3)
	cc.MaxDetectionDelay = 0 // keep the channel identical across packets
	single, err := wireless.Generate(cc, rng)
	if err != nil {
		t.Fatal(err)
	}
	burst, err := wireless.GenerateBurst(cc, 12, rng)
	if err != nil {
		t.Fatal(err)
	}
	s1, _, err := est.EstimateJoint(context.Background(), single)
	if err != nil {
		t.Fatal(err)
	}
	sN, _, err := est.EstimateJointFusedInfoCtx(context.Background(), burst)
	if err != nil {
		t.Fatal(err)
	}
	// Fusion should not be less sharp, and should estimate the direct AoA
	// at least as accurately on average; check the AoA error directly.
	p1, err1 := est.DirectPath(s1)
	pN, errN := est.DirectPath(sN)
	if err1 != nil || errN != nil {
		t.Fatalf("direct path errors: %v %v", err1, errN)
	}
	e1 := math.Abs(p1.ThetaDeg - 100)
	eN := math.Abs(pN.ThetaDeg - 100)
	if eN > e1+3 {
		t.Fatalf("fused AoA error %v worse than single-packet %v", eN, e1)
	}
}

func TestFusedMatchesSingleForOnePacket(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	est, err := NewEstimator(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	csi, err := wireless.Generate(chanCfg([]wireless.Path{{AoADeg: 90, ToA: 100e-9, Gain: 1}}, 15), rng)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := est.EstimateJoint(context.Background(), csi)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := est.EstimateJointFusedInfoCtx(context.Background(), []*wireless.CSI{csi})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Power {
		for j := range a.Power[i] {
			if math.Abs(a.Power[i][j]-b.Power[i][j]) > 1e-9 {
				t.Fatal("single-packet fusion differs from EstimateJoint")
			}
		}
	}
}

func TestEstimateDirectAoAEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	est, err := NewEstimator(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cc := chanCfg([]wireless.Path{
		{AoADeg: 120, ToA: 50e-9, Gain: 1},
		{AoADeg: 30, ToA: 250e-9, Gain: 0.7},
	}, 15)
	cc.MaxDetectionDelay = 100e-9
	burst, err := wireless.GenerateBurst(cc, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	dp, _, err := est.EstimateDirectAoA(context.Background(), burst)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dp.ThetaDeg-120) > 6 {
		t.Fatalf("end-to-end direct AoA %v, want ~120", dp.ThetaDeg)
	}
}

// TestEstimatorInputValidation: every estimator entry point checks its
// packets' shape before reading them and returns an error wrapping
// ErrCSIDimension — never an index-out-of-range or nil-dereference panic —
// for a nil packet, a row shorter than the header's subcarrier count, or an
// antenna count other than the configured array's. The joint operations,
// whose dictionary fixes the subcarrier count, also reject a packet with a
// different one. The burst operations get the bad packet after a good one,
// and reject an empty burst.
func TestEstimatorInputValidation(t *testing.T) {
	est, err := NewEstimator(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := est.EstimateJointFusedInfoCtx(ctx, nil); err == nil {
		t.Fatal("empty burst should error")
	}
	m, l := est.Config().Array.NumAntennas, est.Config().OFDM.NumSubcarriers
	good := wireless.NewCSI(m, l)
	short := wireless.NewCSI(m, l)
	short.Data[m-1] = short.Data[m-1][:l-1]
	packets := map[string]*wireless.CSI{
		"nil packet":           nil,
		"short row":            short,
		"wrong NumAntennas":    wireless.NewCSI(m+1, l),
		"wrong NumSubcarriers": wireless.NewCSI(m, l+3),
	}
	ops := []struct {
		name  string
		joint bool
		run   func(*wireless.CSI) error
	}{
		{"EstimateAoA", false, func(c *wireless.CSI) error {
			_, _, err := est.EstimateAoA(ctx, c)
			return err
		}},
		{"EstimateJoint", true, func(c *wireless.CSI) error {
			_, _, err := est.EstimateJoint(ctx, c)
			return err
		}},
		{"EstimateJointFusedInfoCtx", true, func(c *wireless.CSI) error {
			_, _, err := est.EstimateJointFusedInfoCtx(ctx, []*wireless.CSI{good, c})
			return err
		}},
		{"EstimateDirectAoA", true, func(c *wireless.CSI) error {
			_, _, err := est.EstimateDirectAoA(ctx, []*wireless.CSI{good, c})
			return err
		}},
	}
	for _, op := range ops {
		for name, pkt := range packets {
			if name == "wrong NumSubcarriers" && !op.joint {
				continue // AoA treats any number of subcarriers as snapshots
			}
			t.Run(op.name+"/"+name, func(t *testing.T) {
				if err := op.run(pkt); !errors.Is(err, ErrCSIDimension) {
					t.Fatalf("err = %v, want ErrCSIDimension", err)
				}
			})
		}
	}
}

func TestSolverOptionsPassthrough(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	fired := 0
	cfg := smallConfig()
	cfg.SolverOptions = []sparse.Option{
		sparse.WithMethod(sparse.MethodFISTA),
		sparse.WithMaxIters(30),
		sparse.WithTolerance(0, 0),
		sparse.WithIterationHook(func(int, []float64) { fired++ }),
	}
	est, err := NewEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	csi, err := wireless.Generate(chanCfg([]wireless.Path{{AoADeg: 90, ToA: 10e-9, Gain: 1}}, 20), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := est.EstimateAoA(context.Background(), csi); err != nil {
		t.Fatal(err)
	}
	if fired != 30 {
		t.Fatalf("hook fired %d times, want 30", fired)
	}
}
