package core

import (
	"context"
	"math"
)

// Point is a 2-D position in meters.
type Point struct {
	X float64
	Y float64
}

// Dist returns the Euclidean distance to q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Rect is an axis-aligned region, used as the localization search area.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Contains reports whether p lies inside r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// APObservation is the per-AP input to multi-AP localization: the AP's
// geometry plus its estimated direct-path AoA and RSSI.
type APObservation struct {
	// Pos is the AP (array center) position.
	Pos Point
	// AxisDeg is the orientation of the linear array axis in the world
	// frame (degrees, counterclockwise from +x). AoA is measured from this
	// axis, so theta in [0,180] sweeps the half-plane the array can resolve.
	AxisDeg float64
	// AoADeg is the estimated direct-path AoA in degrees.
	AoADeg float64
	// RSSIdBm is the received signal strength for this link.
	RSSIdBm float64
	// Confidence scales this link's Eq. 19 weight when the pipeline flagged
	// it faulty (values in (0,1]); zero or negative means full confidence,
	// so zero-valued legacy observations behave exactly as before.
	Confidence float64
}

// ExpectedAoA returns the AoA (degrees, in [0,180]) at which an array at pos
// with the given axis orientation would see a source at target. This is
// phi_i(x) in the paper's Eq. 19.
func ExpectedAoA(pos Point, axisDeg float64, target Point) float64 {
	ux, uy := axisUnit(axisDeg)
	return aoaFromAxis(ux, uy, pos, target)
}

// axisUnit returns the unit vector of an array axis at axisDeg.
func axisUnit(axisDeg float64) (ux, uy float64) {
	ax := axisDeg * math.Pi / 180
	return math.Cos(ax), math.Sin(ax)
}

// aoaFromAxis is ExpectedAoA with the axis unit vector already computed, so
// the grid search can hoist it out of its per-cell loop without changing a
// bit of the result.
func aoaFromAxis(ux, uy float64, pos, target Point) float64 {
	dx, dy := target.X-pos.X, target.Y-pos.Y
	d := math.Hypot(dx, dy)
	if d == 0 {
		return 90
	}
	dot := (ux*dx + uy*dy) / d
	dot = math.Max(-1, math.Min(1, dot))
	return math.Acos(dot) * 180 / math.Pi
}

// Localize finds the position minimizing the RSSI-weighted squared AoA
// deviation of paper Eq. 19:
//
//	min_x sum_i R_i (phi_i(x) - phihat_i)^2
//
// over a uniform grid with the given step (meters) inside bounds. The paper
// uses a 10 cm grid; step <= 0 selects 0.1 m. RSSI weights are converted to
// linear milliwatts.
func Localize(obs []APObservation, bounds Rect, step float64) (Point, error) {
	return LocalizeParallelCtx(context.Background(), obs, bounds, step, 1)
}

// LocalizeParallel is Localize with the grid search fanned out over up to
// workers goroutines (workers <= 1 runs serially). Grid points are addressed
// by index, cost evaluation order within a point is fixed, and column strips
// are reduced in scan order with strict-less-than comparison, so the result
// is bit-identical to the serial search for any worker count.
func LocalizeParallel(obs []APObservation, bounds Rect, step float64, workers int) (Point, error) {
	return LocalizeParallelCtx(context.Background(), obs, bounds, step, workers)
}

// LocalizeParallelCtx is LocalizeParallel under a context: the sweep checks
// ctx once per grid column and aborts with a wrapped context error
// (errors.Is-matchable against context.Canceled / context.DeadlineExceeded)
// instead of finishing its strip, so a server can abandon a search the
// moment a request deadline dies. A never-cancelled context changes nothing:
// the scan order, tie-breaking, and result bits are identical to
// LocalizeParallel.
func LocalizeParallelCtx(ctx context.Context, obs []APObservation, bounds Rect, step float64, workers int) (Point, error) {
	g, err := newGridSearch(ctx, obs, bounds, step)
	if err != nil {
		return Point{}, err
	}
	best, err := g.flat(workers)
	if err != nil {
		return Point{}, err
	}
	return g.pointAt(best.ix, best.iy), nil
}

// gridCount returns the number of samples lo, lo+step, ... not exceeding
// hi (with the same 1e-9 slack the original sweep used against float
// accumulation at the far edge).
func gridCount(lo, hi, step float64) int {
	n := int((hi-lo+1e-9)/step) + 1
	if n < 1 {
		n = 1
	}
	return n
}

// GridCells returns the total number of lattice points a full flat scan of
// bounds at step would evaluate (step <= 0 selects the 0.1 m default) — the
// denominator for window-shrinkage accounting in serving and benchmarks.
func GridCells(bounds Rect, step float64) int {
	if step <= 0 {
		step = 0.1
	}
	return gridCount(bounds.MinX, bounds.MaxX, step) * gridCount(bounds.MinY, bounds.MaxY, step)
}
