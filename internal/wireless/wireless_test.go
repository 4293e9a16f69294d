package wireless

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"roarray/internal/cmat"
)

func TestIntel5300Defaults(t *testing.T) {
	a := Intel5300Array()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.NumAntennas != 3 {
		t.Fatalf("antennas = %d, want 3", a.NumAntennas)
	}
	if math.Abs(a.Spacing-a.Wavelength/2) > 1e-12 {
		t.Fatal("spacing should be half wavelength")
	}
	o := Intel5300OFDM()
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	// tau_max = 1/1.25 MHz = 800 ns, as stated in the paper.
	if math.Abs(o.MaxToA()-800e-9) > 1e-15 {
		t.Fatalf("MaxToA = %v, want 800ns", o.MaxToA())
	}
}

func TestArrayValidation(t *testing.T) {
	cases := []Array{
		{NumAntennas: 0, Spacing: 0.02, Wavelength: 0.05},
		{NumAntennas: 3, Spacing: 0, Wavelength: 0.05},
		{NumAntennas: 3, Spacing: 0.04, Wavelength: 0.05}, // > lambda/2
	}
	for i, a := range cases {
		if err := a.Validate(); err == nil {
			t.Fatalf("case %d should be invalid: %+v", i, a)
		}
	}
}

// Paper Sec. III-B: at broadside (theta = 90) the inter-antenna phase shift
// is zero; at endfire (theta = 0) it is -2 pi d / lambda = -pi for d=lambda/2.
func TestSteeringVectorEndpoints(t *testing.T) {
	a := Intel5300Array()
	s90 := a.SteeringVector(90)
	for m, v := range s90 {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("broadside element %d = %v, want 1", m, v)
		}
	}
	s0 := a.SteeringVector(0)
	// Adjacent phase should be exp(-j*pi) = -1.
	if cmplx.Abs(s0[1]-(-1)) > 1e-12 {
		t.Fatalf("endfire phase factor = %v, want -1", s0[1])
	}
}

// Property: every steering element has unit modulus and the geometric
// progression s[m+1] = Lambda * s[m] holds.
func TestPropSteeringVectorStructure(t *testing.T) {
	a := Intel5300Array()
	f := func(raw float64) bool {
		theta := math.Mod(math.Abs(raw), 180)
		if math.IsNaN(theta) {
			return true
		}
		s := a.SteeringVector(theta)
		lam := a.PhaseFactor(theta)
		for m, v := range s {
			if math.Abs(cmplx.Abs(v)-1) > 1e-9 {
				return false
			}
			if m > 0 && cmplx.Abs(v-lam*s[m-1]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The paper's Sec. III-B numerical example: a 5 ns ToA across subcarriers
// spaced 20 MHz produces a phase shift of 0.628 radians.
func TestPaperPhaseShiftExample(t *testing.T) {
	o := OFDM{NumSubcarriers: 2, SubcarrierSpacing: 20e6}
	g := o.PhaseFactor(5e-9)
	if got := -cmplx.Phase(g); math.Abs(got-0.628) > 1e-3 {
		t.Fatalf("phase shift = %v rad, want ~0.628", got)
	}
}

func TestJointSteeringVectorLayout(t *testing.T) {
	a := Intel5300Array()
	o := Intel5300OFDM()
	theta, tau := 150.0, 100e-9
	s := JointSteeringVector(a, o, theta, tau)
	if len(s) != 90 {
		t.Fatalf("length %d, want 90", len(s))
	}
	lam := a.PhaseFactor(theta)
	gam := o.PhaseFactor(tau)
	// Element (subcarrier l, antenna m) must be Lambda^m * Gamma^l.
	for l := 0; l < o.NumSubcarriers; l++ {
		for m := 0; m < a.NumAntennas; m++ {
			want := cmplx.Pow(lam, complex(float64(m), 0)) * cmplx.Pow(gam, complex(float64(l), 0))
			got := s[l*a.NumAntennas+m]
			if cmplx.Abs(got-want) > 1e-9 {
				t.Fatalf("element (l=%d,m=%d) = %v, want %v", l, m, got, want)
			}
		}
	}
}

func TestJointSteeringMatchesStackedCSI(t *testing.T) {
	// A single noise-free path must produce CSI whose stacked vector is
	// exactly gain * s(theta, tau + delay).
	a := Intel5300Array()
	o := Intel5300OFDM()
	cfg := &ChannelConfig{
		Array: a, OFDM: o,
		Paths: []Path{{AoADeg: 150, ToA: 40e-9, Gain: 2 - 1i}},
		SNRdB: math.Inf(1),
	}
	rng := rand.New(rand.NewSource(7))
	csi, err := Generate(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	y := csi.StackedVector()
	s := JointSteeringVector(a, o, 150, 40e-9)
	for i := range y {
		if cmplx.Abs(y[i]-cfg.Paths[0].Gain*s[i]) > 1e-9 {
			t.Fatalf("stacked CSI mismatch at %d", i)
		}
	}
}

func TestGenerateSuperposition(t *testing.T) {
	a := Intel5300Array()
	o := Intel5300OFDM()
	p1 := Path{AoADeg: 30, ToA: 20e-9, Gain: 1}
	p2 := Path{AoADeg: 120, ToA: 90e-9, Gain: 0.4i}
	rng := rand.New(rand.NewSource(8))
	gen := func(paths ...Path) *CSI {
		c, err := Generate(&ChannelConfig{Array: a, OFDM: o, Paths: paths, SNRdB: math.Inf(1)}, rng)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	both := gen(p1, p2)
	only1 := gen(p1)
	only2 := gen(p2)
	for m := 0; m < 3; m++ {
		for l := 0; l < 30; l++ {
			want := only1.Data[m][l] + only2.Data[m][l]
			if cmplx.Abs(both.Data[m][l]-want) > 1e-9 {
				t.Fatalf("superposition violated at (%d,%d)", m, l)
			}
		}
	}
}

func TestGenerateSNRCalibration(t *testing.T) {
	a := Intel5300Array()
	o := Intel5300OFDM()
	cfg := &ChannelConfig{
		Array: a, OFDM: o,
		Paths: []Path{{AoADeg: 70, ToA: 30e-9, Gain: 1}},
		SNRdB: 10,
	}
	rng := rand.New(rand.NewSource(9))
	clean, err := Generate(&ChannelConfig{Array: a, OFDM: o, Paths: cfg.Paths, SNRdB: math.Inf(1)}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Average the realized noise power over many packets.
	var noisePower float64
	const trials = 300
	for i := 0; i < trials; i++ {
		noisy, err := Generate(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		for m := 0; m < 3; m++ {
			for l := 0; l < 30; l++ {
				d := noisy.Data[m][l] - clean.Data[m][l]
				noisePower += real(d)*real(d) + imag(d)*imag(d)
			}
		}
	}
	noisePower /= trials * 90
	wantSNR := 10.0
	gotSNR := 10 * math.Log10(clean.Power()/noisePower)
	if math.Abs(gotSNR-wantSNR) > 0.5 {
		t.Fatalf("realized SNR %v dB, want %v dB", gotSNR, wantSNR)
	}
}

func TestDetectionDelayShiftsToA(t *testing.T) {
	a := Intel5300Array()
	o := Intel5300OFDM()
	rng := rand.New(rand.NewSource(10))
	cfg := &ChannelConfig{
		Array: a, OFDM: o,
		Paths:             []Path{{AoADeg: 90, ToA: 50e-9, Gain: 1}},
		SNRdB:             math.Inf(1),
		MaxDetectionDelay: 200e-9,
	}
	csi, err := Generate(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if csi.DetectionDelay <= 0 || csi.DetectionDelay > 200e-9 {
		t.Fatalf("detection delay %v outside (0, 200ns]", csi.DetectionDelay)
	}
	// The measurement must equal the delay-free channel with ToA+delay.
	want := JointSteeringVector(a, o, 90, 50e-9+csi.DetectionDelay)
	got := csi.StackedVector()
	for i := range got {
		if cmplx.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("delayed CSI mismatch at %d", i)
		}
	}
}

func TestPhaseOffsetsApplied(t *testing.T) {
	a := Intel5300Array()
	o := Intel5300OFDM()
	rng := rand.New(rand.NewSource(11))
	base := &ChannelConfig{
		Array: a, OFDM: o,
		Paths: []Path{{AoADeg: 45, ToA: 10e-9, Gain: 1}},
		SNRdB: math.Inf(1),
	}
	ref, err := Generate(base, rng)
	if err != nil {
		t.Fatal(err)
	}
	offs := []float64{0, 1.1, -0.7}
	cfg := *base
	cfg.AntennaPhaseOffsetsRad = offs
	got, err := Generate(&cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 3; m++ {
		rot := cmplx.Exp(complex(0, offs[m]))
		for l := 0; l < 30; l++ {
			if cmplx.Abs(got.Data[m][l]-ref.Data[m][l]*rot) > 1e-9 {
				t.Fatalf("phase offset not applied at (%d,%d)", m, l)
			}
		}
	}
}

func TestPolarizationAttenuates(t *testing.T) {
	a := Intel5300Array()
	o := Intel5300OFDM()
	rng := rand.New(rand.NewSource(12))
	mk := func(dev float64) float64 {
		c, err := Generate(&ChannelConfig{
			Array: a, OFDM: o,
			Paths:                    []Path{{AoADeg: 80, ToA: 10e-9, Gain: 1}},
			SNRdB:                    math.Inf(1),
			PolarizationDeviationDeg: dev,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		return c.Power()
	}
	p0, p30, p60 := mk(0), mk(30), mk(60)
	if !(p0 > p30 && p30 > p60) {
		t.Fatalf("polarization power not decreasing: %v %v %v", p0, p30, p60)
	}
	if math.Abs(p30/p0-math.Pow(math.Cos(30*math.Pi/180), 2)) > 1e-9 {
		t.Fatal("30 degree deviation should scale power by cos^2(30)")
	}
}

func TestChannelConfigValidation(t *testing.T) {
	a := Intel5300Array()
	o := Intel5300OFDM()
	ok := &ChannelConfig{Array: a, OFDM: o, Paths: []Path{{AoADeg: 10, ToA: 1e-9, Gain: 1}}}
	bad := []*ChannelConfig{
		{Array: a, OFDM: o}, // no paths
		{Array: a, OFDM: o, Paths: []Path{{AoADeg: -1, ToA: 0, Gain: 1}}},
		{Array: a, OFDM: o, Paths: []Path{{AoADeg: 181, ToA: 0, Gain: 1}}},
		{Array: a, OFDM: o, Paths: []Path{{AoADeg: 10, ToA: -1, Gain: 1}}},
		{Array: a, OFDM: o, Paths: ok.Paths, AntennaPhaseOffsetsRad: []float64{1}},
		{Array: a, OFDM: o, Paths: ok.Paths, MaxDetectionDelay: -1},
		{Array: a, OFDM: o, Paths: ok.Paths, PolarizationDeviationDeg: 95},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestGenerateBurst(t *testing.T) {
	a := Intel5300Array()
	o := Intel5300OFDM()
	rng := rand.New(rand.NewSource(13))
	cfg := &ChannelConfig{
		Array: a, OFDM: o,
		Paths:             []Path{{AoADeg: 60, ToA: 25e-9, Gain: 1}},
		SNRdB:             15,
		MaxDetectionDelay: 100e-9,
	}
	pkts, err := GenerateBurst(cfg, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 5 {
		t.Fatalf("got %d packets, want 5", len(pkts))
	}
	// Detection delays must differ across packets (with prob 1).
	same := true
	for i := 1; i < 5; i++ {
		if pkts[i].DetectionDelay != pkts[0].DetectionDelay {
			same = false
		}
	}
	if same {
		t.Fatal("detection delays identical across burst")
	}
	if _, err := GenerateBurst(cfg, 0, rng); err == nil {
		t.Fatal("zero burst should error")
	}
}

func TestCSICloneIndependence(t *testing.T) {
	c := NewCSI(2, 3)
	c.Data[1][2] = 5
	d := c.Clone()
	d.Data[1][2] = 7
	if c.Data[1][2] != 5 {
		t.Fatal("Clone aliases source data")
	}
}

func TestRSSIModel(t *testing.T) {
	m := DefaultRSSIModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Monotone decreasing with distance (the mean: no rng, no shadowing).
	if !(m.Sample(1, nil) > m.Sample(5, nil) && m.Sample(5, nil) > m.Sample(15, nil)) {
		t.Fatal("mean RSSI not decreasing with distance")
	}
	// Distances below the reference clamp.
	if m.Sample(0.1, nil) != m.Sample(1, nil) {
		t.Fatal("sub-reference distances should clamp")
	}
	// dBm conversion.
	if math.Abs(DBmToMilliwatt(0)-1) > 1e-12 || math.Abs(DBmToMilliwatt(-30)-1e-3) > 1e-12 {
		t.Fatal("DBmToMilliwatt wrong")
	}
	bad := []RSSIModel{
		{RefDistance: 0, Exponent: 2},
		{RefDistance: 1, Exponent: 0},
		{RefDistance: 1, Exponent: 2, ShadowingSigmaDB: -1},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Fatalf("bad model %d accepted", i)
		}
	}
	// Shadowing averages out.
	rng := rand.New(rand.NewSource(14))
	var sum float64
	const n = 4000
	for i := 0; i < n; i++ {
		sum += m.Sample(8, rng)
	}
	if math.Abs(sum/n-m.Sample(8, nil)) > 0.2 {
		t.Fatalf("sample mean %v vs model mean %v", sum/n, m.Sample(8, nil))
	}
}

// The joint steering vector has Kronecker structure: s(theta, tau) =
// kron(gamma powers, lambda powers) under the stacked layout of Eq. 15.
func TestJointSteeringIsKronecker(t *testing.T) {
	arr := Intel5300Array()
	ofdm := Intel5300OFDM()
	theta, tau := 73.0, 210e-9
	lamPowers := arr.SteeringVector(theta)
	gamPowers := make([]complex128, ofdm.NumSubcarriers)
	g := ofdm.PhaseFactor(tau)
	cur := complex(1, 0)
	for l := range gamPowers {
		gamPowers[l] = cur
		cur *= g
	}
	want := cmat.KronVec(gamPowers, lamPowers)
	got := JointSteeringVector(arr, ofdm, theta, tau)
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("joint steering not Kronecker at %d", i)
		}
	}
}
