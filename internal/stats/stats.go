// Package stats provides the empirical-CDF machinery used to report every
// evaluation figure: quantiles, summary rows, and fixed-grid CDF series
// comparable across systems.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	sorted []float64
}

// NewCDF copies and sorts the samples. NaNs are rejected.
func NewCDF(samples []float64) (*CDF, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("stats: empty sample set")
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	for _, v := range s {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("stats: NaN sample")
		}
	}
	sort.Float64s(s)
	return &CDF{sorted: s}, nil
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.sorted) }

// Quantile returns the p-quantile (0 <= p <= 1) by linear interpolation.
func (c *CDF) Quantile(p float64) float64 {
	if p <= 0 {
		return c.sorted[0]
	}
	if p >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	pos := p * float64(len(c.sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return c.sorted[lo]
	}
	frac := pos - float64(lo)
	return c.sorted[lo]*(1-frac) + c.sorted[hi]*frac
}

// Median returns the 0.5 quantile.
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// Mean returns the arithmetic mean.
func (c *CDF) Mean() float64 {
	var s float64
	for _, v := range c.sorted {
		s += v
	}
	return s / float64(len(c.sorted))
}

// At returns the empirical CDF value P(X <= x).
func (c *CDF) At(x float64) float64 {
	// First index with sorted[i] > x.
	idx := sort.SearchFloat64s(c.sorted, x)
	for idx < len(c.sorted) && c.sorted[idx] == x {
		idx++
	}
	return float64(idx) / float64(len(c.sorted))
}

// Summary is a compact one-line report of a metric distribution.
type Summary struct {
	Name   string
	N      int
	Median float64
	P90    float64
	P95    float64
	Mean   float64
}

// Summarize builds a Summary from samples.
func Summarize(name string, samples []float64) (Summary, error) {
	c, err := NewCDF(samples)
	if err != nil {
		return Summary{}, err
	}
	return Summary{
		Name:   name,
		N:      c.N(),
		Median: c.Median(),
		P90:    c.Quantile(0.9),
		P95:    c.Quantile(0.95),
		Mean:   c.Mean(),
	}, nil
}

// Format renders the summary with a unit suffix.
func (s Summary) Format(unit string) string {
	return fmt.Sprintf("%-28s n=%-4d median=%.2f%s p90=%.2f%s mean=%.2f%s",
		s.Name, s.N, s.Median, unit, s.P90, unit, s.Mean, unit)
}

// FormatCDFTable renders several named CDFs side by side on a shared grid,
// mirroring how the paper's multi-system CDF figures read.
func FormatCDFTable(names []string, cdfs []*CDF, max float64, rows int) string {
	if len(names) != len(cdfs) || len(cdfs) == 0 || rows < 2 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%10s", "x")
	for _, n := range names {
		fmt.Fprintf(&b, " %12s", n)
	}
	b.WriteByte('\n')
	for i := 0; i < rows; i++ {
		x := max * float64(i) / float64(rows-1)
		fmt.Fprintf(&b, "%10.2f", x)
		for _, c := range cdfs {
			fmt.Fprintf(&b, " %12.3f", c.At(x))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
