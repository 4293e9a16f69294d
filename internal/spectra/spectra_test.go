package spectra

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewSpectrum1DValidation(t *testing.T) {
	if _, err := NewSpectrum1D([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := NewSpectrum1D(nil, nil); err == nil {
		t.Fatal("empty spectrum should error")
	}
	if _, err := NewSpectrum1D([]float64{1}, []float64{2}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalize1D(t *testing.T) {
	s, _ := NewSpectrum1D([]float64{0, 1, 2}, []float64{2, 8, 4})
	s.Normalize()
	if s.Power[1] != 1 || s.Power[0] != 0.25 {
		t.Fatalf("normalize wrong: %v", s.Power)
	}
	z, _ := NewSpectrum1D([]float64{0}, []float64{0})
	z.Normalize() // must not divide by zero
	if z.Power[0] != 0 {
		t.Fatal("zero spectrum changed by Normalize")
	}
}

func TestPeaks1D(t *testing.T) {
	s, _ := NewSpectrum1D(
		[]float64{0, 10, 20, 30, 40, 50, 60},
		[]float64{0.1, 0.9, 0.2, 0.5, 1.0, 0.3, 0.05})
	peaks := s.Peaks(0.2)
	if len(peaks) != 2 {
		t.Fatalf("got %d peaks, want 2: %+v", len(peaks), peaks)
	}
	// Parabolic refinement moves peaks off the grid by at most half a step.
	if math.Abs(peaks[0].ThetaDeg-40) > 5 || math.Abs(peaks[1].ThetaDeg-10) > 5 {
		t.Fatalf("peak order wrong: %+v", peaks)
	}
	// Threshold filters the weaker peak.
	if got := s.Peaks(0.95); len(got) != 1 || math.Abs(got[0].ThetaDeg-40) > 5 {
		t.Fatalf("thresholded peaks wrong: %+v", got)
	}
}

func TestPeaks1DEdgesAndPlateaus(t *testing.T) {
	// Peak at the boundary must be found.
	s, _ := NewSpectrum1D([]float64{0, 1, 2}, []float64{1.0, 0.4, 0.8})
	peaks := s.Peaks(0)
	if len(peaks) != 2 || peaks[0].ThetaDeg != 0 {
		t.Fatalf("boundary peaks wrong: %+v", peaks)
	}
	// A flat plateau reports once; interpolation lands mid-plateau.
	p, _ := NewSpectrum1D([]float64{0, 1, 2, 3}, []float64{0.2, 1, 1, 0.2})
	if got := p.Peaks(0); len(got) != 1 || got[0].ThetaDeg != 1.5 {
		t.Fatalf("plateau peaks wrong: %+v", got)
	}
}

func TestSharpness(t *testing.T) {
	flat, _ := NewSpectrum1D(UniformGrid(0, 180, 10), []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	spiky, _ := NewSpectrum1D(UniformGrid(0, 180, 10), []float64{0, 0, 0, 10, 0, 0, 0, 0, 0, 0})
	if flat.Sharpness() >= spiky.Sharpness() {
		t.Fatal("spiky spectrum must be sharper than flat")
	}
	if math.Abs(flat.Sharpness()-1) > 1e-12 {
		t.Fatalf("flat sharpness = %v, want 1", flat.Sharpness())
	}
}

func TestSpectrum2D(t *testing.T) {
	theta := []float64{0, 10, 20}
	tau := []float64{0, 100}
	pow := [][]float64{{0.3, 0.2}, {0.9, 0.1}, {0.2, 0.6}}
	s, err := NewSpectrum2D(theta, tau, pow)
	if err != nil {
		t.Fatal(err)
	}
	if s.Max() != 0.9 {
		t.Fatalf("Max = %v", s.Max())
	}
	peaks := s.Peaks(0.1)
	if len(peaks) != 2 {
		t.Fatalf("2D peaks = %+v", peaks)
	}
	if math.Abs(peaks[0].ThetaDeg-10) > 5 || peaks[0].Tau != 0 {
		t.Fatalf("strongest 2D peak wrong: %+v", peaks[0])
	}
	if math.Abs(peaks[1].ThetaDeg-20) > 5 || math.Abs(peaks[1].Tau-100) > 50 {
		t.Fatalf("second 2D peak wrong: %+v", peaks[1])
	}
	m := s.Marginal1D()
	if m.Power[1] != 0.9 || m.Power[2] != 0.6 {
		t.Fatalf("marginal wrong: %v", m.Power)
	}
	s.Normalize()
	if s.Max() != 1 {
		t.Fatal("normalize 2D failed")
	}
}

func TestNewSpectrum2DValidation(t *testing.T) {
	if _, err := NewSpectrum2D([]float64{1}, []float64{1}, nil); err == nil {
		t.Fatal("row mismatch should error")
	}
	if _, err := NewSpectrum2D([]float64{1}, []float64{1, 2}, [][]float64{{1}}); err == nil {
		t.Fatal("ragged rows should error")
	}
	if _, err := NewSpectrum2D(nil, nil, nil); err == nil {
		t.Fatal("empty should error")
	}
}

// Parabolic refinement must recover the exact vertex of a quadratic bump
// sampled off-center.
func TestPeakInterpolationExactQuadratic(t *testing.T) {
	grid := UniformGrid(0, 180, 19) // 10 degree spacing
	truth := 93.0                   // between grid points 90 and 100
	pow := make([]float64, len(grid))
	for i, th := range grid {
		d := th - truth
		pow[i] = 100 - d*d // quadratic peak at 93
	}
	s, _ := NewSpectrum1D(grid, pow)
	peaks := s.Peaks(0)
	if len(peaks) == 0 {
		t.Fatal("no peaks")
	}
	if math.Abs(peaks[0].ThetaDeg-truth) > 1e-9 {
		t.Fatalf("interpolated peak %v, want exactly %v", peaks[0].ThetaDeg, truth)
	}
	// Offset is clamped to half a grid step.
	if off := parabolicOffset(1, 1.0001, 1); math.Abs(off) > 0.5 {
		t.Fatalf("offset %v not clamped", off)
	}
	if off := parabolicOffset(1, 0.5, 1); off != 0 {
		t.Fatalf("non-concave samples should give 0 offset, got %v", off)
	}
}

func TestClosestPeakError(t *testing.T) {
	peaks := []Peak{{ThetaDeg: 30}, {ThetaDeg: 150}}
	if got := ClosestPeakError(peaks, 140); got != 10 {
		t.Fatalf("ClosestPeakError = %v, want 10", got)
	}
	if got := ClosestPeakError(nil, 90); got != 180 {
		t.Fatalf("empty peaks error = %v, want 180", got)
	}
}

func TestUniformGrid(t *testing.T) {
	g := UniformGrid(0, 180, 181)
	if len(g) != 181 || g[0] != 0 || g[180] != 180 || g[1] != 1 {
		t.Fatalf("grid wrong: len=%d ends=%v,%v", len(g), g[0], g[180])
	}
	if got := UniformGrid(5, 10, 1); len(got) != 1 || got[0] != 5 {
		t.Fatalf("single-point grid wrong: %v", got)
	}
	if UniformGrid(0, 1, 0) != nil {
		t.Fatal("zero-point grid should be nil")
	}
}

func TestASCIIRendering(t *testing.T) {
	s, _ := NewSpectrum1D(UniformGrid(0, 180, 19), make([]float64, 19))
	s.Power[9] = 1
	out := s.ASCII(10, 20)
	if out == "" {
		t.Fatal("ASCII returned empty")
	}
	if s.ASCII(0, 10) != "" {
		t.Fatal("invalid rows should return empty")
	}
}

// Property: Peaks never returns more entries than grid points, powers are
// descending, and every reported peak is at least minRel * max.
func TestPropPeaksInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		pow := make([]float64, n)
		for i := range pow {
			pow[i] = rng.Float64()
		}
		s, err := NewSpectrum1D(UniformGrid(0, 180, n), pow)
		if err != nil {
			return false
		}
		minRel := rng.Float64()
		peaks := s.Peaks(minRel)
		mx := 0.0
		for _, p := range pow {
			if p > mx {
				mx = p
			}
		}
		prev := math.Inf(1)
		for _, p := range peaks {
			if p.Power > prev || p.Power < minRel*mx-1e-12 {
				return false
			}
			prev = p.Power
		}
		return len(peaks) <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSpectrum2DReuse: one pooled destination spectrum and one peak slice,
// reused across random surfaces of shrinking and growing shape, give
// exactly what a fresh destination and the allocating Peaks give, and a
// Clone keeps its values when its source is overwritten.
func TestSpectrum2DReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var smooth Spectrum2D
	var peaks []Peak
	for _, shape := range [][2]int{{19, 8}, {5, 3}, {31, 12}, {19, 8}} {
		theta, tau := UniformGrid(0, 180, shape[0]), UniformGrid(0, 1e-6, shape[1])
		var s Spectrum2D
		s.Reset(theta, tau)
		for _, row := range s.Power {
			for j := range row {
				row[j] = math.Pow(rng.Float64(), 4)
			}
		}
		want := new(Spectrum2D)
		s.Smooth3x3Into(want)
		s.Smooth3x3Into(&smooth)
		for i := range want.Power {
			for j, v := range want.Power[i] {
				if math.Float64bits(smooth.Power[i][j]) != math.Float64bits(v) {
					t.Fatalf("shape %v: smoothed (%d,%d) = %v, want %v", shape, i, j, smooth.Power[i][j], v)
				}
			}
		}
		wantPeaks := want.Peaks(0.3)
		peaks = smooth.PeaksInto(peaks, 0.3)
		if len(peaks) != len(wantPeaks) {
			t.Fatalf("shape %v: %d peaks, want %d", shape, len(peaks), len(wantPeaks))
		}
		for i, p := range wantPeaks {
			if peaks[i] != p {
				t.Fatalf("shape %v: peak %d = %+v, want %+v", shape, i, peaks[i], p)
			}
		}
		c := s.Clone()
		s.Reset(theta, tau)
		if c.Max() == 0 || s.Max() != 0 {
			t.Fatalf("shape %v: Clone shares storage with its source", shape)
		}
	}
}
