package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"roarray/internal/wireless"
)

// SearchMode selects the Eq. 19 grid-search strategy.
type SearchMode int

const (
	// SearchCoarse (the zero value, and the default) runs a best-first
	// branch-and-bound search: block-aligned rectangles of the grid get a
	// lower bound on the objective from per-AP angle intervals, the
	// rectangle with the smallest bound is split (or, at one Decimation x
	// Decimation block, refined at full resolution) until the smallest bound
	// exceeds the best cost found. The result is bit-identical to the flat
	// scan by construction (see DESIGN.md §13); grids under two blocks a
	// side degrade to the flat scan.
	SearchCoarse SearchMode = iota
	// SearchFlat forces the legacy exhaustive scan of every grid cell.
	SearchFlat
	// SearchExact runs both strategies and cross-checks them bit-for-bit,
	// returning ErrSearchMismatch on any divergence. It is the equivalence
	// proof mode: slower than either strategy alone, meant for tests,
	// quality gates, and debugging.
	SearchExact
)

// String implements fmt.Stringer.
func (m SearchMode) String() string {
	switch m {
	case SearchCoarse:
		return "coarse"
	case SearchFlat:
		return "flat"
	case SearchExact:
		return "exact"
	default:
		return fmt.Sprintf("searchmode(%d)", int(m))
	}
}

// ParseSearchMode parses a mode name as accepted by the CLI -search flags:
// "coarse" (or "coarse-fine"), "flat", "exact".
func ParseSearchMode(s string) (SearchMode, error) {
	switch s {
	case "coarse", "coarse-fine":
		return SearchCoarse, nil
	case "flat":
		return SearchFlat, nil
	case "exact":
		return SearchExact, nil
	default:
		return 0, fmt.Errorf("core: unknown search mode %q (want coarse, flat, or exact)", s)
	}
}

// ErrSearchMismatch is returned by SearchExact when the branch-and-bound
// result differs from the flat scan in any bit — which would falsify the
// equivalence argument the coarse strategy rests on.
var ErrSearchMismatch = errors.New("core: branch-and-bound search mismatched flat scan")

// SearchConfig tunes the Eq. 19 grid search. The zero value selects the
// branch-and-bound strategy with default decimation; use Mode SearchFlat to
// recover the legacy scan exactly.
type SearchConfig struct {
	// Mode selects the strategy (default SearchCoarse).
	Mode SearchMode
	// Decimation is the block edge in full-resolution steps (default 8:
	// the search refines 8x8 blocks of 10 cm cells).
	Decimation int
	// Window, when non-nil, restricts the scan to the grid points inside the
	// window rectangle intersected with the request bounds — on the same
	// index lattice as the full scan, so equal indices give equal bits, and
	// with the same branch-and-bound search as the full grid. This
	// is the tracking fast path: the caller (Engine tracked localization)
	// shrinks the Eq. 19 search to the predicted gate region and falls back
	// to the full-grid strategy whenever the windowed argmin lands on a
	// window edge interior to the grid (SearchStats.WindowEdge) or fails the
	// innovation gate, so accuracy is never silently traded. An empty
	// intersection ignores the window and runs the configured full-grid
	// Mode.
	Window *Rect
}

func (c SearchConfig) withDefaults() SearchConfig {
	if c.Decimation <= 1 {
		c.Decimation = 8
	}
	return c
}

// SearchStats reports what a localization search actually did.
type SearchStats struct {
	// Mode is the strategy that actually ran: "flat" (forced, degraded, or
	// too-small grid), "coarse", "exact", or "window".
	Mode string
	// FlatCells is the full-resolution grid size nx*ny — what a flat scan
	// would evaluate.
	FlatCells int
	// CoarseCells is the number of rectangles whose lower bound was
	// evaluated: every node of the branch-and-bound, inner nodes included.
	CoarseCells int
	// RefineCells is the number of full-resolution cells whose cost was
	// evaluated.
	RefineCells int
	// Candidates is the number of blocks refined (leaves of the
	// branch-and-bound).
	Candidates int
	// WindowCells is the number of grid points inside the search window in
	// window mode.
	WindowCells int
	// WindowEdge reports that the windowed argmin landed on a window
	// boundary that is interior to the full grid — the signal that the true
	// optimum may lie outside the window and the caller must fall back to a
	// full-grid search.
	WindowEdge bool
}

// Evaluated returns the number of cost evaluations performed: every cell in
// flat mode, bounded rectangles plus refined cells otherwise.
func (s SearchStats) Evaluated() int {
	if s.Mode == "flat" {
		return s.FlatCells
	}
	return s.CoarseCells + s.RefineCells
}

// gridSearch carries the validated inputs of one Eq. 19 search. All
// strategies address grid points by index and reconstruct coordinates with
// the same float expressions, which is what makes their results comparable
// bit for bit.
type gridSearch struct {
	ctx    context.Context
	obs    []APObservation
	aps    []apTerm
	bounds Rect
	step   float64
	nx, ny int
	// heap is the branch-and-bound frontier, kept with the search so a
	// pooled search reuses it.
	heap nodeHeap
}

// searchPool recycles gridSearch values, their apTerm slices and their
// frontier heaps across LocalizeSearchCtx calls.
var searchPool = sync.Pool{New: func() any { return new(gridSearch) }}

// release returns g to searchPool, dropping its references to the caller's
// context and observations.
func (g *gridSearch) release() {
	g.ctx, g.obs = nil, nil
	searchPool.Put(g)
}

// observations is the Eq. 19 input a request's estimation hands its grid
// searches, pooled so assembling it allocates nothing once warm.
type observations struct{ aps []APObservation }

var observationsPool = sync.Pool{New: func() any { return new(observations) }}

func takeObservations() *observations { return observationsPool.Get().(*observations) }

// release returns o to observationsPool.
func (o *observations) release() { observationsPool.Put(o) }

// apTerm holds one AP's per-search constants: its Eq. 19 weight and the unit
// vector of its array axis.
type apTerm struct{ w, ux, uy float64 }

func newGridSearch(ctx context.Context, obs []APObservation, bounds Rect, step float64) (*gridSearch, error) {
	if len(obs) < 2 {
		return nil, fmt.Errorf("core: localization needs >= 2 AP observations, got %d", len(obs))
	}
	if !finite(bounds.MinX, bounds.MinY, bounds.MaxX, bounds.MaxY, step) {
		return nil, fmt.Errorf("core: non-finite localization bounds %+v or step %v", bounds, step)
	}
	if bounds.MaxX <= bounds.MinX || bounds.MaxY <= bounds.MinY {
		return nil, fmt.Errorf("core: empty localization bounds %+v", bounds)
	}
	if step <= 0 {
		step = 0.1
	}
	g := searchPool.Get().(*gridSearch)
	aps := g.aps[:0]
	for i, o := range obs {
		if !finite(o.Pos.X, o.Pos.Y, o.AxisDeg, o.AoADeg, o.RSSIdBm, o.Confidence) {
			g.release()
			return nil, fmt.Errorf("core: AP observation %d has a non-finite field: %+v", i, o)
		}
		w := wireless.DBmToMilliwatt(o.RSSIdBm)
		if o.Confidence > 0 {
			w *= o.Confidence
		}
		if math.IsInf(w, 0) {
			g.release()
			return nil, fmt.Errorf("core: AP observation %d weight overflows (RSSI %v dBm, confidence %v)", i, o.RSSIdBm, o.Confidence)
		}
		ux, uy := axisUnit(o.AxisDeg)
		aps = append(aps, apTerm{w: w, ux: ux, uy: uy})
	}
	*g = gridSearch{
		ctx:    ctx,
		obs:    obs,
		aps:    aps,
		bounds: bounds,
		step:   step,
		nx:     gridCount(bounds.MinX, bounds.MaxX, step),
		ny:     gridCount(bounds.MinY, bounds.MaxY, step),
		heap:   g.heap[:0],
	}
	return g, nil
}

// finite reports whether every v is neither NaN nor infinite.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// pointAt reconstructs the grid point at (ix, iy) with the exact float
// expressions of the legacy scan, so equal indices give equal bits.
func (g *gridSearch) pointAt(ix, iy int) Point {
	return Point{X: g.bounds.MinX + float64(ix)*g.step, Y: g.bounds.MinY + float64(iy)*g.step}
}

// costAt evaluates the Eq. 19 objective at grid point (ix, iy), with the
// same per-term arithmetic and accumulation order as the legacy scan.
func (g *gridSearch) costAt(ix, iy int) float64 {
	p := g.pointAt(ix, iy)
	var cost float64
	for i, o := range g.obs {
		a := g.aps[i]
		d := aoaFromAxis(a.ux, a.uy, o.Pos, p) - o.AoADeg
		cost += a.w * d * d
	}
	return cost
}

// idxBest is a lexicographic (cost, ix, iy) candidate: the flat scan's
// "first strict minimum in x-then-y order" tie-breaking is exactly the
// lexicographic minimum over these triples.
type idxBest struct {
	cost   float64
	ix, iy int
}

func noBest() idxBest { return idxBest{cost: math.Inf(1), ix: math.MaxInt, iy: math.MaxInt} }

// less reports whether b beats o in the (cost, ix, iy) lexicographic order.
func (b idxBest) less(o idxBest) bool {
	if b.cost != o.cost {
		return b.cost < o.cost
	}
	if b.ix != o.ix {
		return b.ix < o.ix
	}
	return b.iy < o.iy
}

// flatRange scans the index rectangle [xLo, xHi) x [yLo, yHi) in nested
// x-then-y order, polling ctx once per column, and returns the
// lexicographic best.
func (g *gridSearch) flatRange(xLo, xHi, yLo, yHi int) (idxBest, error) {
	best := noBest()
	for ix := xLo; ix < xHi; ix++ {
		if err := g.ctx.Err(); err != nil {
			return best, fmt.Errorf("core: grid search aborted: %w", err)
		}
		for iy := yLo; iy < yHi; iy++ {
			// Within the ascending scan, less keeps the earliest index pair
			// among equal costs — the lexicographic minimum — even when every
			// cost overflows to +Inf.
			if c := (idxBest{cost: g.costAt(ix, iy), ix: ix, iy: iy}); c.less(best) {
				best = c
			}
		}
	}
	return best, nil
}

// flatStrip scans the contiguous column strip [xLo, xHi) over the full y
// range.
func (g *gridSearch) flatStrip(xLo, xHi int) (idxBest, error) {
	return g.flatRange(xLo, xHi, 0, g.ny)
}

// idxRange is the index-lattice footprint of a search window.
type idxRange struct{ xLo, xHi, yLo, yHi int }

// windowIndexRange maps a window rectangle onto the grid's index lattice:
// the smallest/largest indices whose points fall inside the window,
// clamped to the grid. ok is false when the intersection holds no grid
// point, or when a window coordinate is NaN.
func (g *gridSearch) windowIndexRange(w Rect) (idxRange, bool) {
	if !(w.MinX <= w.MaxX && w.MinY <= w.MaxY) {
		return idxRange{}, false
	}
	var r idxRange
	r.xLo, r.xHi = latticeSpan(w.MinX, w.MaxX, g.bounds.MinX, g.step, g.nx)
	r.yLo, r.yHi = latticeSpan(w.MinY, w.MaxY, g.bounds.MinY, g.step, g.ny)
	if r.xLo >= r.xHi || r.yLo >= r.yHi {
		return idxRange{}, false
	}
	return r, true
}

// latticeSpan returns the index range [lo, hi) of the points origin+i*step,
// 0 <= i < n, that lie in [wlo, whi]. The float indices are clamped to
// [0, n] before conversion, so a window reaching far or infinitely past the
// grid cannot overflow the int conversion.
func latticeSpan(wlo, whi, origin, step float64, n int) (lo, hi int) {
	const eps = 1e-9
	clamp := func(v float64) int { return int(min(max(v, 0), float64(n))) }
	return clamp(math.Ceil((wlo-origin)/step - eps)), clamp(math.Floor((whi-origin)/step+eps) + 1)
}

// onWindowEdge reports whether best sits on a boundary of the index range
// that is interior to the full grid — a window edge the true optimum could
// lie beyond. Boundaries coinciding with the grid border are the room
// walls, not window artifacts.
func (g *gridSearch) onWindowEdge(best idxBest, r idxRange) bool {
	return (best.ix == r.xLo && r.xLo > 0) ||
		(best.ix == r.xHi-1 && r.xHi < g.nx) ||
		(best.iy == r.yLo && r.yLo > 0) ||
		(best.iy == r.yHi-1 && r.yHi < g.ny)
}

// flat runs the exhaustive legacy scan, fanned out over up to workers
// goroutines, and returns the lexicographic-best grid index.
func (g *gridSearch) flat(workers int) (idxBest, error) {
	if workers > g.nx {
		workers = g.nx
	}
	if workers <= 1 {
		return g.flatStrip(0, g.nx)
	}
	type stripBest struct {
		best idxBest
		err  error
	}
	bests := make([]stripBest, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * g.nx / workers
		hi := (w + 1) * g.nx / workers
		wg.Add(1)
		go func(slot, lo, hi int) {
			defer wg.Done()
			b, err := g.flatStrip(lo, hi)
			bests[slot] = stripBest{best: b, err: err}
		}(w, lo, hi)
	}
	wg.Wait()
	// Strips partition the x range in order, so the lexicographic merge of
	// strip winners equals the serial scan's first minimum. An aborted strip
	// (all abort together — same context) invalidates the whole sweep.
	out := noBest()
	for _, b := range bests {
		if b.err != nil {
			return out, b.err
		}
		if b.best.less(out) {
			out = b.best
		}
	}
	return out, nil
}

// phiMargin (degrees) widens every per-AP angle interval. costAt's phi is
// acos of a rounded dot product; near dot = ±1 acos turns a rounding of a
// few ulps into up to ~2e-6 degrees, and the corner bearings below are good
// to ~1e-13 degrees, so 1e-4 degrees covers both with a wide berth. Both
// error figures assume the AP-to-point offsets are normal floats; an AP
// within phiNear meters of a rectangle is treated as inside it, which keeps
// subnormal offsets out of the argument.
const (
	phiMargin = 1e-4
	phiNear   = 1e-280
)

// phiRange returns [lo, hi] (degrees) holding the expected AoA of AP i, as
// costAt computes it, at every point of the rectangle [x0,x1] x [y0,y1].
// Seen from an AP outside the rectangle, the bearings to its points fill an
// arc narrower than 180 degrees whose ends are corner bearings; phi is the
// bearing's unsigned angle from the array axis, so it is monotone along the
// arc unless the arc crosses the axis (phi reaches 0) or the axis' backward
// extension (phi reaches 180). An AP in or on the rectangle sees every
// angle.
func (g *gridSearch) phiRange(i int, x0, y0, x1, y1 float64) (lo, hi float64) {
	p, a := g.obs[i].Pos, g.aps[i]
	if p.X >= x0-phiNear && p.X <= x1+phiNear && p.Y >= y0-phiNear && p.Y <= y1+phiNear {
		return -phiMargin, 180 + phiMargin
	}
	bmin, bmax := math.Inf(1), math.Inf(-1)
	lo, hi = 180, 0
	for _, c := range [4]Point{{X: x0, Y: y0}, {X: x1, Y: y0}, {X: x0, Y: y1}, {X: x1, Y: y1}} {
		dx, dy := c.X-p.X, c.Y-p.Y
		// Signed bearing from the axis, in [-180, 180].
		b := math.Atan2(a.ux*dy-a.uy*dx, a.ux*dx+a.uy*dy) * (180 / math.Pi)
		bmin, bmax = min(bmin, b), max(bmax, b)
		lo, hi = min(lo, math.Abs(b)), max(hi, math.Abs(b))
	}
	// An arc narrower than 180 degrees spans bmax-bmin < 180 when it stays
	// clear of the +-180 seam, and 360 minus its width (> 180) when it
	// crosses it. A span within rounding of 180 is an AP grazing the
	// rectangle's edge line, where the two cases cannot be told apart.
	switch span := bmax - bmin; {
	case math.Abs(span-180) < 1e-6:
		lo, hi = 0, 180
	case span > 180:
		hi = 180
	case bmin <= 0 && bmax >= 0:
		lo = 0
	}
	return lo - phiMargin, hi + phiMargin
}

// blockBound returns a lower bound on costAt over the index block
// [ix0, ixHi) x [iy0, iyHi): each AP's term is at least its weight times the
// squared distance from phihat_i to the block's phi interval. Rounding is
// monotone and the terms are summed in costAt's order, so the bound holds as
// computed; the (1 - 1e-12) factor is a safety margin on top.
func (g *gridSearch) blockBound(ix0, ixHi, iy0, iyHi int) float64 {
	lo, hi := g.pointAt(ix0, iy0), g.pointAt(ixHi-1, iyHi-1)
	var sum float64
	for i, o := range g.obs {
		plo, phi := g.phiRange(i, lo.X, lo.Y, hi.X, hi.Y)
		d := max(plo-o.AoADeg, o.AoADeg-phi, 0)
		sum += g.aps[i].w * d * d
	}
	return sum * (1 - 1e-12)
}

// node is a block-aligned index rectangle [ix0, ixHi) x [iy0, iyHi) of a
// search range, with its lower bound.
type node struct {
	bound                float64
	ix0, ixHi, iy0, iyHi int
}

// before orders nodes by ascending bound, then by low corner. Live nodes
// are disjoint, so the order is total and the pop sequence — hence the work
// counts — is deterministic.
func (n node) before(o node) bool {
	if n.bound != o.bound {
		return n.bound < o.bound
	}
	if n.ix0 != o.ix0 {
		return n.ix0 < o.ix0
	}
	return n.iy0 < o.iy0
}

// nodeHeap is a binary min-heap of nodes under before.
type nodeHeap []node

// push adds n to the heap.
func (h *nodeHeap) push(n node) {
	s := append(*h, n)
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s[i].before(s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

// pop removes and returns the heap's first node under before.
func (h *nodeHeap) pop() node {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(s) {
			break
		}
		if c+1 < len(s) && s[c+1].before(s[c]) {
			c++
		}
		if !s[c].before(s[i]) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

// branchAndBound returns the lexicographic-best grid point of range r by a
// best-first search over block-aligned rectangles. It starts from the whole
// range and repeatedly pops the rectangle with the smallest lower bound: a
// single dec x dec block (clipped at the range edge) is refined cell by
// cell, a larger one is halved at block boundaries along each axis that
// spans more than one block and its children are bounded and pushed. The
// search stops when the popped bound exceeds the best refined cost; every
// unrefined cell then lies under a bound at least that large, so neither the
// argmin nor a tied earlier index can hide there, and a rectangle whose
// bound ties the best is still refined. ctx is polled once per popped
// rectangle.
func (g *gridSearch) branchAndBound(r idxRange, dec int, stats *SearchStats) (idxBest, error) {
	best := noBest()
	h := g.heap[:0]
	defer func() { g.heap = h[:0] }()
	push := func(ix0, ixHi, iy0, iyHi int) {
		b := g.blockBound(ix0, ixHi, iy0, iyHi)
		stats.CoarseCells++
		if b > best.cost {
			return // would pop only after the search stops
		}
		if math.IsNaN(b) {
			// A 0·Inf term. Costs are sums of non-negative terms, so 0 is
			// still a lower bound, and it keeps the heap order total.
			b = 0
		}
		h.push(node{bound: b, ix0: ix0, ixHi: ixHi, iy0: iy0, iyHi: iyHi})
	}
	push(r.xLo, r.xHi, r.yLo, r.yHi)
	for len(h) > 0 {
		if err := g.ctx.Err(); err != nil {
			if stats.Candidates == 0 {
				return best, fmt.Errorf("core: coarse grid search aborted: %w", err)
			}
			return best, fmt.Errorf("core: refine search aborted: %w", err)
		}
		n := h.pop()
		if n.bound > best.cost {
			break
		}
		bw := (n.ixHi - n.ix0 + dec - 1) / dec
		bh := (n.iyHi - n.iy0 + dec - 1) / dec
		if bw == 1 && bh == 1 {
			for ix := n.ix0; ix < n.ixHi; ix++ {
				for iy := n.iy0; iy < n.iyHi; iy++ {
					if c := (idxBest{cost: g.costAt(ix, iy), ix: ix, iy: iy}); c.less(best) {
						best = c
					}
				}
			}
			stats.Candidates++
			stats.RefineCells += (n.ixHi - n.ix0) * (n.iyHi - n.iy0)
			continue
		}
		xm, ym := n.ixHi, n.iyHi
		if bw > 1 {
			xm = n.ix0 + (bw+1)/2*dec
		}
		if bh > 1 {
			ym = n.iy0 + (bh+1)/2*dec
		}
		push(n.ix0, xm, n.iy0, ym)
		if xm < n.ixHi {
			push(xm, n.ixHi, n.iy0, ym)
		}
		if ym < n.iyHi {
			push(n.ix0, xm, ym, n.iyHi)
			if xm < n.ixHi {
				push(xm, n.ixHi, ym, n.iyHi)
			}
		}
	}
	return best, nil
}

// LocalizeSearchCtx finds the position minimizing the RSSI-weighted squared
// AoA deviation of paper Eq. 19:
//
//	min_x sum_i R_i (phi_i(x) - phihat_i)^2
//
// over a uniform grid with the given step (meters) inside bounds. The paper
// uses a 10 cm grid; step <= 0 selects 0.1 m. RSSI weights are converted to
// linear milliwatts.
//
// cfg selects the search strategy. All strategies return bit-identical
// positions (see DESIGN.md §13 for the equivalence argument); they differ
// only in how many grid cells they evaluate, reported in SearchStats.
// SearchFlat is the reference scan: it fans out over up to workers
// goroutines in column strips (workers <= 1 runs serially), reduced in scan
// order with strict-less-than comparison, so its result is bit-identical for
// any worker count. SearchExact additionally verifies the equivalence at
// runtime and fails with ErrSearchMismatch if it does not hold.
//
// The search polls ctx once per branch-and-bound node (once per grid column
// in a flat scan) and aborts with an error wrapping ctx.Err(), so a server
// can abandon a search the moment a request deadline dies. A never-cancelled
// context changes nothing.
func LocalizeSearchCtx(ctx context.Context, obs []APObservation, bounds Rect, step float64, workers int, cfg SearchConfig) (Point, SearchStats, error) {
	g, err := newGridSearch(ctx, obs, bounds, step)
	if err != nil {
		return Point{}, SearchStats{}, err
	}
	defer g.release()
	cfg = cfg.withDefaults()
	dec := cfg.Decimation
	stats := SearchStats{FlatCells: g.nx * g.ny}

	if cfg.Window != nil {
		if r, ok := g.windowIndexRange(*cfg.Window); ok {
			// Window mode: the same search over the index sub-rectangle.
			// Same lattice, same tie-breaking — equal indices give bits
			// equal to the full scan's.
			stats.Mode = "window"
			stats.WindowCells = (r.xHi - r.xLo) * (r.yHi - r.yLo)
			best, err := g.branchAndBound(r, dec, &stats)
			if err != nil {
				return Point{}, stats, err
			}
			stats.WindowEdge = g.onWindowEdge(best, r)
			return g.pointAt(best.ix, best.iy), stats, nil
		}
		// Window misses the grid entirely — run the configured full-grid
		// strategy instead of failing the request.
	}

	if cfg.Mode == SearchFlat || g.nx < 2*dec || g.ny < 2*dec {
		// Forced, or a grid too small for blocks to pay for themselves.
		stats.Mode = "flat"
		best, err := g.flat(workers)
		if err != nil {
			return Point{}, stats, err
		}
		return g.pointAt(best.ix, best.iy), stats, nil
	}
	stats.Mode = "coarse"
	if cfg.Mode == SearchExact {
		stats.Mode = "exact"
	}
	best, err := g.branchAndBound(idxRange{xHi: g.nx, yHi: g.ny}, dec, &stats)
	if err != nil {
		return Point{}, stats, err
	}
	if cfg.Mode == SearchExact {
		fl, err := g.flat(workers)
		if err != nil {
			return Point{}, stats, err
		}
		if best != fl {
			pc, pf := g.pointAt(best.ix, best.iy), g.pointAt(fl.ix, fl.iy)
			return Point{}, stats, fmt.Errorf("%w: branch-and-bound (%.17g, %.17g) cost %.17g vs flat (%.17g, %.17g) cost %.17g",
				ErrSearchMismatch, pc.X, pc.Y, best.cost, pf.X, pf.Y, fl.cost)
		}
	}
	return g.pointAt(best.ix, best.iy), stats, nil
}
