package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewCDFValidation(t *testing.T) {
	if _, err := NewCDF(nil); err == nil {
		t.Fatal("empty samples should error")
	}
	if _, err := NewCDF([]float64{1, math.NaN()}); err == nil {
		t.Fatal("NaN should error")
	}
}

func TestCDFDoesNotAliasInput(t *testing.T) {
	in := []float64{3, 1, 2}
	c, err := NewCDF(in)
	if err != nil {
		t.Fatal(err)
	}
	if in[0] != 3 {
		t.Fatal("NewCDF sorted the caller's slice")
	}
	if c.Median() != 2 {
		t.Fatalf("median %v, want 2", c.Median())
	}
}

func TestQuantiles(t *testing.T) {
	c, err := NewCDF([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if c.Median() != 5 {
		t.Fatalf("median %v, want 5", c.Median())
	}
	if got := c.Quantile(0.9); math.Abs(got-9) > 1e-12 {
		t.Fatalf("p90 %v, want 9", got)
	}
	if c.Quantile(-1) != 0 || c.Quantile(2) != 10 {
		t.Fatal("quantile clamping wrong")
	}
	if got := c.Quantile(0.25); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("p25 %v, want 2.5 (interpolated)", got)
	}
}

func TestMeanAndAt(t *testing.T) {
	c, err := NewCDF([]float64{1, 2, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Mean(); math.Abs(got-2.25) > 1e-12 {
		t.Fatalf("mean %v, want 2.25", got)
	}
	if got := c.At(2); got != 0.75 {
		t.Fatalf("At(2) = %v, want 0.75", got)
	}
	if c.At(0.5) != 0 || c.At(10) != 1 {
		t.Fatal("At tails wrong")
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize("test", []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 3 || s.Median != 2 {
		t.Fatalf("summary wrong: %+v", s)
	}
	if out := s.Format("m"); out == "" {
		t.Fatal("Format empty")
	}
	if _, err := Summarize("x", nil); err == nil {
		t.Fatal("empty summarize should error")
	}
}

func TestFormatCDFTable(t *testing.T) {
	a, _ := NewCDF([]float64{1, 2})
	b, _ := NewCDF([]float64{2, 3})
	out := FormatCDFTable([]string{"a", "b"}, []*CDF{a, b}, 3, 4)
	if out == "" {
		t.Fatal("table empty")
	}
	if got := FormatCDFTable([]string{"a"}, []*CDF{a, b}, 3, 4); got != "" {
		t.Fatal("mismatched names should return empty")
	}
}

// Property: the empirical CDF is monotone and bounded in [0,1], and
// quantiles are monotone in p.
func TestPropCDFInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = rng.NormFloat64() * 10
		}
		c, err := NewCDF(samples)
		if err != nil {
			return false
		}
		prevAt := -1.0
		for x := -30.0; x <= 30; x += 2.5 {
			v := c.At(x)
			if v < prevAt || v < 0 || v > 1 {
				return false
			}
			prevAt = v
		}
		prevQ := math.Inf(-1)
		for p := 0.0; p <= 1; p += 0.1 {
			q := c.Quantile(p)
			if q < prevQ {
				return false
			}
			prevQ = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
