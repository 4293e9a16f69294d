package music

import (
	"math"
	"math/rand"
	"testing"

	"roarray/internal/spectra"
	"roarray/internal/wireless"
)

func testChannel(paths []wireless.Path, snrDB float64) *wireless.ChannelConfig {
	return &wireless.ChannelConfig{
		Array: wireless.Intel5300Array(),
		OFDM:  wireless.Intel5300OFDM(),
		Paths: paths,
		SNRdB: snrDB,
	}
}

func TestCovariance(t *testing.T) {
	snaps := [][]complex128{{1, 0}, {0, 1i}}
	r, err := Covariance(snaps)
	if err != nil {
		t.Fatal(err)
	}
	// R = 0.5*([1,0][1,0]ᴴ + [0,i][0,i]ᴴ) = 0.5*I.
	if r.At(0, 0) != 0.5 || r.At(1, 1) != 0.5 || r.At(0, 1) != 0 {
		t.Fatalf("covariance wrong: %v", r)
	}
	if _, err := Covariance(nil); err == nil {
		t.Fatal("empty snapshots should error")
	}
	if _, err := Covariance([][]complex128{{1}, {1, 2}}); err == nil {
		t.Fatal("ragged snapshots should error")
	}
}

func TestCovarianceIsHermitianPSD(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	snaps := make([][]complex128, 20)
	for i := range snaps {
		v := make([]complex128, 4)
		for j := range v {
			v[j] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		snaps[i] = v
	}
	r, err := Covariance(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if !r.IsHermitian(1e-10) {
		t.Fatal("covariance not Hermitian")
	}
}

func TestMDLModelOrder(t *testing.T) {
	// Clear gap: 2 strong sources over a noise floor.
	eig := []float64{0.1, 0.11, 0.09, 0.1, 5.0, 9.0} // ascending
	if got := EstimateModelOrderMDL(eig, 100); got != 2 {
		t.Fatalf("MDL = %d, want 2", got)
	}
	// Pure noise: no sources.
	flat := []float64{0.1, 0.1, 0.1, 0.1}
	if got := EstimateModelOrderMDL(flat, 200); got != 0 {
		t.Fatalf("MDL on flat spectrum = %d, want 0", got)
	}
	if got := EstimateModelOrderMDL([]float64{1}, 10); got != 0 {
		t.Fatalf("MDL degenerate = %d, want 0", got)
	}
}

func TestSpatialMUSICHighSNRRecoversAoA(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	trueAoA := 150.0
	csi, err := wireless.Generate(testChannel([]wireless.Path{
		{AoADeg: trueAoA, ToA: 30e-9, Gain: 1},
	}, 25), rng)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := SpatialSpectrum(&SpatialConfig{Array: wireless.Intel5300Array(), NumPaths: 1}, csi)
	if err != nil {
		t.Fatal(err)
	}
	peaks := spec.Peaks(0.5)
	if len(peaks) == 0 {
		t.Fatal("no peaks")
	}
	if err := math.Abs(peaks[0].ThetaDeg - trueAoA); err > 3 {
		t.Fatalf("spatial MUSIC AoA error %v degrees at high SNR", err)
	}
}

func TestSpatialMUSICTwoSources(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	// Two well separated incoherent-ish sources (different ToAs decorrelate
	// them across subcarrier snapshots).
	csi, err := wireless.Generate(testChannel([]wireless.Path{
		{AoADeg: 50, ToA: 20e-9, Gain: 1},
		{AoADeg: 130, ToA: 180e-9, Gain: 1},
	}, 30), rng)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := SpatialSpectrum(&SpatialConfig{Array: wireless.Intel5300Array(), NumPaths: 2}, csi)
	if err != nil {
		t.Fatal(err)
	}
	peaks := spec.Peaks(0.2)
	if len(peaks) < 2 {
		t.Fatalf("expected 2 peaks, got %+v", peaks)
	}
	got := []float64{peaks[0].ThetaDeg, peaks[1].ThetaDeg}
	if got[0] > got[1] {
		got[0], got[1] = got[1], got[0]
	}
	if math.Abs(got[0]-50) > 6 || math.Abs(got[1]-130) > 6 {
		t.Fatalf("two-source AoAs %v, want ~[50 130]", got)
	}
}

func TestSpatialSpectrumValidation(t *testing.T) {
	csi := wireless.NewCSI(2, 30)
	_, err := SpatialSpectrum(&SpatialConfig{Array: wireless.Intel5300Array()}, csi)
	if err == nil {
		t.Fatal("antenna mismatch should error")
	}
}

func TestSmoothCSIShape(t *testing.T) {
	csi := wireless.NewCSI(3, 30)
	x, err := SmoothCSI(csi, 2, 15)
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows() != 30 || x.Cols() != 32 {
		t.Fatalf("smoothed shape %dx%d, want 30x32", x.Rows(), x.Cols())
	}
	if _, err := SmoothCSI(csi, 4, 15); err == nil {
		t.Fatal("oversized sub-array should error")
	}
	if _, err := SmoothCSI(csi, 0, 15); err == nil {
		t.Fatal("zero sub-array should error")
	}
}

func TestSmoothCSIEntries(t *testing.T) {
	csi := wireless.NewCSI(3, 30)
	for m := 0; m < 3; m++ {
		for l := 0; l < 30; l++ {
			csi.Data[m][l] = complex(float64(m), float64(l))
		}
	}
	x, err := SmoothCSI(csi, 2, 15)
	if err != nil {
		t.Fatal(err)
	}
	// Column for shift (sa=1, sl=3), row for (a=1, s=2) must be csi[2][5].
	col := 1*16 + 3
	row := 1*15 + 2
	if got := x.At(row, col); got != complex(2, 5) {
		t.Fatalf("smoothed entry = %v, want (2+5i)", got)
	}
}

func TestSpotFiJointSpectrumSinglePath(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	trueAoA, trueToA := 150.0, 100e-9
	csi, err := wireless.Generate(testChannel([]wireless.Path{
		{AoADeg: trueAoA, ToA: trueToA, Gain: 1},
	}, 20), rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &SpotFiConfig{Array: wireless.Intel5300Array(), OFDM: wireless.Intel5300OFDM(), NumPaths: 2}
	spec, err := JointSpectrum(cfg, csi)
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

func TestClusterEstimates(t *testing.T) {
	points := []PathEstimate{
		{ThetaDeg: 50, Tau: 100e-9, Power: 1, Packet: 0},
		{ThetaDeg: 52, Tau: 105e-9, Power: 0.9, Packet: 1},
		{ThetaDeg: 51, Tau: 98e-9, Power: 0.95, Packet: 2},
		{ThetaDeg: 140, Tau: 400e-9, Power: 0.5, Packet: 0},
	}
	clusters := ClusterEstimates(points, 0.08, 800e-9)
	if len(clusters) != 2 {
		t.Fatalf("got %d clusters, want 2", len(clusters))
	}
	var big Cluster
	for _, c := range clusters {
		if len(c.Members) == 3 {
			big = c
		}
	}
	if len(big.Members) != 3 {
		t.Fatalf("no 3-member cluster found: %+v", clusters)
	}
	if math.Abs(big.MeanTheta-51) > 0.5 {
		t.Fatalf("cluster mean theta %v, want ~51", big.MeanTheta)
	}
	if big.StdTheta <= 0 {
		t.Fatal("cluster std not computed")
	}
}

func TestSpotFiEstimatePicksDirectPath(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	directAoA := 60.0
	cfg := testChannel([]wireless.Path{
		{AoADeg: directAoA, ToA: 40e-9, Gain: 1},
		{AoADeg: 155, ToA: 260e-9, Gain: 0.6},
	}, 20)
	pkts, err := wireless.GenerateBurst(cfg, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Estimate(&SpotFiConfig{
		Array: wireless.Intel5300Array(), OFDM: wireless.Intel5300OFDM(),
	}, pkts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.DirectAoADeg-directAoA) > 6 {
		t.Fatalf("SpotFi direct AoA %v, want ~%v (clusters %+v)", res.DirectAoADeg, directAoA, res.Clusters)
	}
	if len(res.Spectra) != 8 {
		t.Fatalf("got %d spectra, want 8", len(res.Spectra))
	}
}

func TestSpotFiEstimateValidation(t *testing.T) {
	cfg := &SpotFiConfig{Array: wireless.Intel5300Array(), OFDM: wireless.Intel5300OFDM()}
	if _, err := Estimate(cfg, nil); err == nil {
		t.Fatal("empty burst should error")
	}
}

func TestArrayTrackSinglePath(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	trueAoA := 110.0
	cfg := testChannel([]wireless.Path{{AoADeg: trueAoA, ToA: 30e-9, Gain: 1}}, 22)
	pkts, err := wireless.GenerateBurst(cfg, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EstimateArrayTrack(&ArrayTrackConfig{Array: wireless.Intel5300Array()}, pkts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.DirectAoADeg-trueAoA) > 5 {
		t.Fatalf("ArrayTrack AoA %v, want ~%v", res.DirectAoADeg, trueAoA)
	}
	if len(res.PerPacket) != 6 || res.Combined == nil {
		t.Fatal("ArrayTrack result incomplete")
	}
}

func TestArrayTrackValidation(t *testing.T) {
	if _, err := EstimateArrayTrack(&ArrayTrackConfig{Array: wireless.Intel5300Array()}, nil); err == nil {
		t.Fatal("empty burst should error")
	}
}

// Reproduce the paper's Sec. II observation qualitatively: MUSIC AoA error
// grows as SNR falls, holding everything else fixed.
func TestMUSICDegradesWithSNR(t *testing.T) {
	trueAoA := 150.0
	errAt := func(snr float64, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		var total float64
		const trials = 12
		for i := 0; i < trials; i++ {
			csi, err := wireless.Generate(testChannel([]wireless.Path{
				{AoADeg: trueAoA, ToA: 30e-9, Gain: 1},
				{AoADeg: 70, ToA: 210e-9, Gain: complex(0.55, 0.2)},
			}, snr), rng)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := SpatialSpectrum(&SpatialConfig{Array: wireless.Intel5300Array(), NumPaths: 2}, csi)
			if err != nil {
				t.Fatal(err)
			}
			total += spectra.ClosestPeakError(spec.Peaks(0.3), trueAoA)
		}
		return total / trials
	}
	high := errAt(22, 40)
	low := errAt(-4, 41)
	if low <= high {
		t.Fatalf("MUSIC error did not grow at low SNR: high=%v low=%v", high, low)
	}
}
