package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// testbedObservations builds a 6-AP observation set mirroring the committed
// testbed geometry (18 m x 12 m hall, APs along the walls) for a source at
// target, with AoA noise drawn from rng (nil for noiseless).
func testbedObservations(target Point, rng *rand.Rand) []APObservation {
	aps := []struct {
		pos  Point
		axis float64
	}{
		{Point{X: 0, Y: 0}, 0},
		{Point{X: 9, Y: 0}, 0},
		{Point{X: 18, Y: 0}, 90},
		{Point{X: 18, Y: 12}, 180},
		{Point{X: 9, Y: 12}, 180},
		{Point{X: 0, Y: 12}, 270},
	}
	obs := make([]APObservation, len(aps))
	for i, ap := range aps {
		aoa := ExpectedAoA(ap.pos, ap.axis, target)
		if rng != nil {
			aoa += rng.NormFloat64() * 2
			aoa = math.Max(0, math.Min(180, aoa))
		}
		obs[i] = APObservation{Pos: ap.pos, AxisDeg: ap.axis, AoADeg: aoa, RSSIdBm: -45 - 10*rand.New(rand.NewSource(int64(i))).Float64()}
	}
	return obs
}

var testbedRoom = Rect{MinX: 0, MinY: 0, MaxX: 18, MaxY: 12}

// requireSameBits fails unless the two points are bit-for-bit equal.
func requireSameBits(t *testing.T, name string, coarse, flat Point) {
	t.Helper()
	if math.Float64bits(coarse.X) != math.Float64bits(flat.X) || math.Float64bits(coarse.Y) != math.Float64bits(flat.Y) {
		t.Fatalf("%s: coarse-fine argmin (%.17g, %.17g) != flat argmin (%.17g, %.17g)",
			name, coarse.X, coarse.Y, flat.X, flat.Y)
	}
}

// TestSearchCoarseFineMatchesFlatTestbed: on the committed testbed geometry,
// the coarse-to-fine argmin equals the flat-scan argmin bitwise for a sweep
// of source placements, both noiseless and with AoA noise, and SearchExact's
// built-in cross-check agrees.
func TestSearchCoarseFineMatchesFlatTestbed(t *testing.T) {
	placements := []Point{
		{X: 4.2, Y: 3.1}, {X: 9.0, Y: 6.0}, {X: 16.8, Y: 1.3},
		{X: 1.0, Y: 10.9}, {X: 12.5, Y: 8.4}, {X: 17.9, Y: 11.8},
		{X: 0.1, Y: 0.1}, {X: 6.66, Y: 4.44},
	}
	rng := rand.New(rand.NewSource(7))
	for _, noisy := range []bool{false, true} {
		for _, target := range placements {
			var r *rand.Rand
			if noisy {
				r = rng
			}
			obs := testbedObservations(target, r)
			flat, fstats, err := LocalizeSearchCtx(context.Background(), obs, testbedRoom, 0.1, 4, SearchConfig{Mode: SearchFlat})
			if err != nil {
				t.Fatalf("flat search: %v", err)
			}
			coarse, cstats, err := LocalizeSearchCtx(context.Background(), obs, testbedRoom, 0.1, 4, SearchConfig{Mode: SearchCoarse})
			if err != nil {
				t.Fatalf("coarse search: %v", err)
			}
			requireSameBits(t, "testbed", coarse, flat)
			if cstats.Mode != "coarse" {
				t.Fatalf("expected coarse mode on the %dx-cell testbed grid, got %q", fstats.FlatCells, cstats.Mode)
			}
			if cstats.Evaluated() >= fstats.FlatCells {
				t.Fatalf("coarse-fine evaluated %d cells, not below the flat %d", cstats.Evaluated(), fstats.FlatCells)
			}
			if _, _, err := LocalizeSearchCtx(context.Background(), obs, testbedRoom, 0.1, 4, SearchConfig{Mode: SearchExact}); err != nil {
				t.Fatalf("exact cross-check: %v", err)
			}
		}
	}
}

// TestSearchCoarseFineMatchesFlatRandom: 25 random seeds generate random AP
// geometries, bounds, steps, decimations, and noisy observations; the
// coarse-to-fine argmin must equal the flat argmin bitwise on every one.
func TestSearchCoarseFineMatchesFlatRandom(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := 6 + 20*rng.Float64()
		h := 6 + 14*rng.Float64()
		room := Rect{MinX: -rng.Float64() * 3, MinY: -rng.Float64() * 3}
		room.MaxX = room.MinX + w
		room.MaxY = room.MinY + h
		step := 0.05 + 0.1*rng.Float64()
		nAPs := 2 + rng.Intn(5)
		target := Point{
			X: room.MinX + rng.Float64()*w,
			Y: room.MinY + rng.Float64()*h,
		}
		obs := make([]APObservation, nAPs)
		for i := range obs {
			// APs on or near the room border, arbitrary axes.
			p := Point{X: room.MinX + rng.Float64()*w, Y: room.MinY}
			if rng.Intn(2) == 0 {
				p = Point{X: room.MinX, Y: room.MinY + rng.Float64()*h}
			}
			axis := rng.Float64() * 360
			obs[i] = APObservation{
				Pos:     p,
				AxisDeg: axis,
				AoADeg:  math.Max(0, math.Min(180, ExpectedAoA(p, axis, target)+rng.NormFloat64()*3)),
				RSSIdBm: -40 - rng.Float64()*25,
			}
		}
		cfg := SearchConfig{Decimation: 4 + rng.Intn(10)}
		flat, _, err := LocalizeSearchCtx(context.Background(), obs, room, step, 1+rng.Intn(4), SearchConfig{Mode: SearchFlat})
		if err != nil {
			t.Fatalf("seed %d: flat: %v", seed, err)
		}
		coarse, stats, err := LocalizeSearchCtx(context.Background(), obs, room, step, 1+rng.Intn(4), cfg)
		if err != nil {
			t.Fatalf("seed %d: coarse: %v", seed, err)
		}
		requireSameBits(t, "random geometry", coarse, flat)
		if stats.Mode == "coarse" && stats.Evaluated() >= stats.FlatCells {
			t.Fatalf("seed %d: coarse mode evaluated %d of %d flat cells", seed, stats.Evaluated(), stats.FlatCells)
		}
	}
}

// TestSearchTranslationMetamorphic: translating every AP and the bounds by
// the same offset translates the argmin by that offset (up to one grid step,
// since the shifted grid's float coordinates are not bit-aligned).
func TestSearchTranslationMetamorphic(t *testing.T) {
	target := Point{X: 5.3, Y: 7.7}
	obs := testbedObservations(target, nil)
	base, _, err := LocalizeSearchCtx(context.Background(), obs, testbedRoom, 0.1, 2, SearchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Point{{X: 3.25, Y: -1.5}, {X: -20, Y: 40}, {X: 0.05, Y: 0.05}} {
		moved := make([]APObservation, len(obs))
		for i, o := range obs {
			moved[i] = o
			moved[i].Pos = Point{X: o.Pos.X + d.X, Y: o.Pos.Y + d.Y}
		}
		room := Rect{
			MinX: testbedRoom.MinX + d.X, MinY: testbedRoom.MinY + d.Y,
			MaxX: testbedRoom.MaxX + d.X, MaxY: testbedRoom.MaxY + d.Y,
		}
		got, _, err := LocalizeSearchCtx(context.Background(), moved, room, 0.1, 2, SearchConfig{})
		if err != nil {
			t.Fatal(err)
		}
		want := Point{X: base.X + d.X, Y: base.Y + d.Y}
		if got.Dist(want) > 0.1+1e-9 {
			t.Fatalf("translation by (%v, %v): argmin moved to (%v, %v), want within a step of (%v, %v)",
				d.X, d.Y, got.X, got.Y, want.X, want.Y)
		}
	}
}

// TestGridCountTable: table-driven edge cases for the grid sampling count.
func TestGridCountTable(t *testing.T) {
	cases := []struct {
		name         string
		lo, hi, step float64
		want         int
	}{
		{"unit 10cm", 0, 1, 0.1, 11},
		{"testbed x", 0, 18, 0.1, 181},
		{"step larger than extent", 0, 1, 5, 1},
		{"step equals extent", 0, 2, 2, 2},
		{"zero extent", 3, 3, 0.1, 1},
		{"negative range", 5, 2, 0.1, 1},
		{"edge slack keeps far sample", 0, 0.3, 0.1, 4},
	}
	for _, c := range cases {
		if got := gridCount(c.lo, c.hi, c.step); got != c.want {
			t.Errorf("%s: gridCount(%v, %v, %v) = %d, want %d", c.name, c.lo, c.hi, c.step, got, c.want)
		}
	}
}

// TestSearchEdgeCases: degenerate bounds, tiny grids, clipped blocks, and
// refined-cell accounting — every coarse run must evaluate strictly fewer
// cells than the flat scan, and every degenerate input must degrade or error
// cleanly.
func TestSearchEdgeCases(t *testing.T) {
	obs := testbedObservations(Point{X: 5, Y: 5}, nil)

	t.Run("degenerate bounds MinX==MaxX", func(t *testing.T) {
		_, _, err := LocalizeSearchCtx(context.Background(), obs, Rect{MinX: 2, MaxX: 2, MinY: 0, MaxY: 5}, 0.1, 1, SearchConfig{})
		if err == nil || !strings.Contains(err.Error(), "empty localization bounds") {
			t.Fatalf("want empty-bounds error, got %v", err)
		}
	})

	t.Run("step larger than extent degrades to flat", func(t *testing.T) {
		p, stats, err := LocalizeSearchCtx(context.Background(), obs, Rect{MinX: 0, MaxX: 1, MinY: 0, MaxY: 1}, 5, 1, SearchConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Mode != "flat" || stats.FlatCells != 1 {
			t.Fatalf("want flat single-cell scan, got mode %q cells %d", stats.Mode, stats.FlatCells)
		}
		if p.X != 0 || p.Y != 0 {
			t.Fatalf("single-cell argmin should be the origin corner, got (%v, %v)", p.X, p.Y)
		}
	})

	t.Run("grid below 2x decimation degrades to flat", func(t *testing.T) {
		flat, fs, err := LocalizeSearchCtx(context.Background(), obs, Rect{MinX: 0, MaxX: 1, MinY: 0, MaxY: 1}, 0.1, 1, SearchConfig{Mode: SearchFlat})
		if err != nil {
			t.Fatal(err)
		}
		coarse, cs, err := LocalizeSearchCtx(context.Background(), obs, Rect{MinX: 0, MaxX: 1, MinY: 0, MaxY: 1}, 0.1, 1, SearchConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if cs.Mode != "flat" {
			t.Fatalf("11x11 grid with decimation 8 should degrade, got mode %q", cs.Mode)
		}
		requireSameBits(t, "degraded", coarse, flat)
		if cs.Evaluated() != fs.FlatCells {
			t.Fatalf("degraded run evaluated %d, want flat %d", cs.Evaluated(), fs.FlatCells)
		}
	})

	t.Run("windows clipped at grid borders", func(t *testing.T) {
		// 181 x 121 grid with decimation 7: 181 = 25*7 + 6, so the last cell
		// column and row are clipped short. Equivalence must survive clipping.
		cfg := SearchConfig{Decimation: 7}
		flat, _, err := LocalizeSearchCtx(context.Background(), obs, testbedRoom, 0.1, 2, SearchConfig{Mode: SearchFlat})
		if err != nil {
			t.Fatal(err)
		}
		coarse, stats, err := LocalizeSearchCtx(context.Background(), obs, testbedRoom, 0.1, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Mode != "coarse" {
			t.Fatalf("want coarse mode, got %q", stats.Mode)
		}
		requireSameBits(t, "clipped windows", coarse, flat)
		if stats.Evaluated() >= stats.FlatCells {
			t.Fatalf("clipped run evaluated %d of %d flat cells", stats.Evaluated(), stats.FlatCells)
		}
	})

	t.Run("overlapping topk and margin candidates dedupe", func(t *testing.T) {
		// Each block is refined at most once, so refined cells can never
		// count past the flat total.
		_, stats, err := LocalizeSearchCtx(context.Background(), obs, testbedRoom, 0.1, 2, SearchConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Mode == "coarse" && stats.RefineCells > stats.FlatCells {
			t.Fatalf("refined %d cells out of %d flat — candidate overlap double-counted", stats.RefineCells, stats.FlatCells)
		}
		if stats.Mode == "coarse" && stats.Evaluated() >= stats.FlatCells {
			t.Fatalf("coarse run evaluated %d of %d flat cells", stats.Evaluated(), stats.FlatCells)
		}
	})
}

// TestSearchWorkCounts pins the branch-and-bound's work on the noise-free
// testbed: the rectangles it bounds, the cells it refines and the blocks it
// refines. The 181x121 grid has 23x16 = 368 blocks of 8x8 cells; the search
// bounds about twenty rectangles and refines the one block holding the
// source. A later change that alters this work shows up here as a count,
// not as timing noise.
func TestSearchWorkCounts(t *testing.T) {
	for _, c := range []struct {
		target                    Point
		coarse, refine, candidate int
	}{
		{Point{X: 9, Y: 6}, 17, 64, 1},
		{Point{X: 7, Y: 5}, 21, 64, 1},
		{Point{X: 2, Y: 10}, 17, 64, 1},
	} {
		_, stats, err := LocalizeSearchCtx(context.Background(), testbedObservations(c.target, nil), testbedRoom, 0.1, 1, SearchConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Mode != "coarse" || stats.CoarseCells != c.coarse || stats.RefineCells != c.refine || stats.Candidates != c.candidate {
			t.Errorf("target %+v: mode %q bounded %d rectangles, refined %d cells in %d blocks; want coarse %d/%d/%d",
				c.target, stats.Mode, stats.CoarseCells, stats.RefineCells, stats.Candidates, c.coarse, c.refine, c.candidate)
		}
	}
}

// TestSearchBoundsFewerThanBlocks: on the 3-AP serving geometry (the first
// three APs of the testbed deployment) with noisy AoAs and random steps and
// decimations, every coarse-mode search bounds fewer rectangles than the
// grid has blocks, and returns the flat scan's bits.
func TestSearchBoundsFewerThanBlocks(t *testing.T) {
	aps := []struct {
		pos  Point
		axis float64
	}{{Point{X: 0.1, Y: 6}, 90}, {Point{X: 17.9, Y: 6}, 90}, {Point{X: 4.5, Y: 0.1}, 0}}
	rng := rand.New(rand.NewSource(18))
	coarse := 0
	for draw := 0; draw < 40; draw++ {
		target := Point{X: 0.5 + 17*rng.Float64(), Y: 0.5 + 11*rng.Float64()}
		obs := make([]APObservation, len(aps))
		for i, ap := range aps {
			aoa := ExpectedAoA(ap.pos, ap.axis, target) + 3*rng.NormFloat64()
			obs[i] = APObservation{Pos: ap.pos, AxisDeg: ap.axis, AoADeg: math.Max(0, math.Min(180, aoa)), RSSIdBm: -40 - 20*rng.Float64()}
		}
		step := 0.05 + 0.15*rng.Float64()
		dec := 4 + rng.Intn(9)
		p, stats, err := LocalizeSearchCtx(context.Background(), obs, testbedRoom, step, 1, SearchConfig{Decimation: dec})
		if err != nil {
			t.Fatal(err)
		}
		flat, _, err := LocalizeSearchCtx(context.Background(), obs, testbedRoom, step, 1, SearchConfig{Mode: SearchFlat})
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, "3-AP draw", p, flat)
		if stats.Mode != "coarse" {
			continue
		}
		coarse++
		nx, ny := gridCount(testbedRoom.MinX, testbedRoom.MaxX, step), gridCount(testbedRoom.MinY, testbedRoom.MaxY, step)
		if blocks := ((nx + dec - 1) / dec) * ((ny + dec - 1) / dec); stats.CoarseCells >= blocks {
			t.Fatalf("draw %d (step %v, decimation %d): bounded %d rectangles, not below the %d blocks",
				draw, step, dec, stats.CoarseCells, blocks)
		}
	}
	if coarse < 30 {
		t.Fatalf("only %d of 40 draws ran in coarse mode", coarse)
	}
}

// countdownCtx reports healthy for the first n Err polls, then cancels —
// a deterministic way to land a cancellation inside a chosen search phase.
type countdownCtx struct {
	context.Context
	remaining int
}

func (c *countdownCtx) Err() error {
	if c.remaining > 0 {
		c.remaining--
		return nil
	}
	return context.Canceled
}

// TestSearchCtxAbortMidRefine: a context that dies after the first block
// is refined aborts the refine phase with a wrapped context error, well
// inside 3 s.
func TestSearchCtxAbortMidRefine(t *testing.T) {
	obs := testbedObservations(Point{X: 9, Y: 6}, nil)
	// The search polls ctx once per popped rectangle. On the 181x121 grid
	// with decimation 8 it pops the whole range and three inner rectangles,
	// each split in four (the 17 bounded rectangles TestSearchWorkCounts
	// pins), then the leaf block it refines. Budget those five polls, so
	// the sixth — the first after a refinement — sees the cancellation.
	ctx := &countdownCtx{Context: context.Background(), remaining: 5}
	start := time.Now()
	_, stats, err := LocalizeSearchCtx(ctx, obs, testbedRoom, 0.1, 1, SearchConfig{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped context.Canceled, got %v", err)
	}
	if !strings.Contains(err.Error(), "refine") {
		t.Fatalf("cancellation should land in the refine pass, got %v", err)
	}
	if stats.Candidates != 1 {
		t.Fatalf("cancellation should land after exactly one refined block, got %d", stats.Candidates)
	}
	if elapsed >= 3*time.Second {
		t.Fatalf("mid-refine abort took %v, want < 3s", elapsed)
	}
}

// TestSearchCtxAbortCoarse: an already-dead context aborts in the coarse
// pass before any refinement.
func TestSearchCtxAbortCoarse(t *testing.T) {
	obs := testbedObservations(Point{X: 9, Y: 6}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, stats, err := LocalizeSearchCtx(ctx, obs, testbedRoom, 0.1, 4, SearchConfig{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped context.Canceled, got %v", err)
	}
	if !strings.Contains(err.Error(), "coarse") {
		t.Fatalf("dead ctx should abort the coarse pass, got %v", err)
	}
	if stats.RefineCells != 0 {
		t.Fatalf("dead ctx refined %d cells, want 0", stats.RefineCells)
	}
}

// TestSearchCtxTimedAbortLargeGrid mirrors the legacy flat-scan abort test
// on the branch-and-bound path: cancelling mid-flight on an ~8M-point grid
// returns a wrapped context error in far less than a full sweep would take.
func TestSearchCtxTimedAbortLargeGrid(t *testing.T) {
	room := Rect{MinX: -70, MinY: -70, MaxX: 70, MaxY: 70}
	obs := testbedObservations(Point{X: 3, Y: 4}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := LocalizeSearchCtx(ctx, obs, room, 0.05, 2, SearchConfig{})
	elapsed := time.Since(start)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("want nil or wrapped context.Canceled, got %v", err)
	}
	if elapsed >= 3*time.Second {
		t.Fatalf("timed abort took %v, want < 3s", elapsed)
	}
}

// TestParseSearchMode covers the CLI flag surface.
func TestParseSearchMode(t *testing.T) {
	for in, want := range map[string]SearchMode{
		"coarse": SearchCoarse, "coarse-fine": SearchCoarse,
		"flat": SearchFlat, "exact": SearchExact,
	} {
		got, err := ParseSearchMode(in)
		if err != nil || got != want {
			t.Errorf("ParseSearchMode(%q) = %v, %v; want %v", in, got, err, want)
		}
		if got.String() == "" {
			t.Errorf("SearchMode(%v).String() empty", got)
		}
	}
	if _, err := ParseSearchMode("bogus"); err == nil {
		t.Error("ParseSearchMode(bogus) should fail")
	}
}

// TestSearchRejectsNonFinite: a NaN or infinite value in any search input —
// an AP field, the bounds, or the step — or a weight that overflows must
// fail every search mode with an error instead of returning a
// garbage position.
func TestSearchRejectsNonFinite(t *testing.T) {
	base := testbedObservations(Point{X: 5, Y: 5}, nil)
	fields := map[string]func(o *APObservation, v float64){
		"Pos.X":      func(o *APObservation, v float64) { o.Pos.X = v },
		"Pos.Y":      func(o *APObservation, v float64) { o.Pos.Y = v },
		"AxisDeg":    func(o *APObservation, v float64) { o.AxisDeg = v },
		"AoADeg":     func(o *APObservation, v float64) { o.AoADeg = v },
		"RSSIdBm":    func(o *APObservation, v float64) { o.RSSIdBm = v },
		"Confidence": func(o *APObservation, v float64) { o.Confidence = v },
	}
	type input struct {
		name   string
		obs    []APObservation
		bounds Rect
		step   float64
	}
	var inputs []input
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, set := range fields {
			obs := append([]APObservation(nil), base...)
			set(&obs[2], v)
			inputs = append(inputs, input{fmt.Sprintf("%s=%v", name, v), obs, testbedRoom, 0.1})
		}
		for i := 0; i < 4; i++ {
			b := testbedRoom
			*[]*float64{&b.MinX, &b.MinY, &b.MaxX, &b.MaxY}[i] = v
			inputs = append(inputs, input{fmt.Sprintf("bounds[%d]=%v", i, v), base, b, 0.1})
		}
		inputs = append(inputs, input{fmt.Sprintf("step=%v", v), base, testbedRoom, v})
	}
	overflow := append([]APObservation(nil), base...)
	overflow[1].RSSIdBm = 4000 // 10^400 mW
	inputs = append(inputs, input{"RSSIdBm overflows the weight", overflow, testbedRoom, 0.1})

	for _, in := range inputs {
		for _, mode := range []SearchMode{SearchCoarse, SearchFlat, SearchExact} {
			p, _, err := LocalizeSearchCtx(context.Background(), in.obs, in.bounds, in.step, 1, SearchConfig{Mode: mode})
			if err == nil {
				t.Errorf("%s, %v search: got (%v, %v), want an error", in.name, mode, p.X, p.Y)
			}
		}
	}
}

// TestBlockBoundSound: for random blocks and adversarial APs — on block
// corners and edges, on an edge's extension line, inside the block, a
// subnormal distance outside it (which phiNear covers), with axes parallel
// to the block edges or aimed exactly at a corner, and with AoAs of exactly
// 0 and 180 degrees — every grid point's phi, computed as costAt computes
// it, lies in the block's widened interval, and the block bound never
// exceeds the block's minimum cost.
//
// Why phiMargin is enough: the interval ends come from atan2 of exact
// corner offsets (error ~1e-13 degrees), and costAt's phi is acos of a dot
// product rounded by a few ulps, which acos amplifies near ±1 to at most
// ~2e-6 degrees. The test measures how far phi ever strays outside the
// unwidened interval and requires a tenfold headroom below phiMargin.
func TestBlockBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var worst float64 // largest excursion of phi beyond the unwidened interval
	for trial := 0; trial < 3000; trial++ {
		step := 0.03 + 0.3*rng.Float64()
		bounds := Rect{MinX: 20 * (rng.Float64() - 0.5), MinY: 20 * (rng.Float64() - 0.5)}
		ix0, iy0 := 5+rng.Intn(20), 5+rng.Intn(20)
		if rng.Intn(8) == 0 { // a block corner at the origin, for subnormal offsets
			bounds.MinX, bounds.MinY, ix0, iy0 = 0, 0, 0, 0
		}
		bounds.MaxX, bounds.MaxY = bounds.MinX+40*step, bounds.MinY+40*step
		ixHi, iyHi := ix0+1+rng.Intn(10), iy0+1+rng.Intn(10)
		at := func(ix, iy int) Point {
			return Point{X: bounds.MinX + float64(ix)*step, Y: bounds.MinY + float64(iy)*step}
		}
		lo, hi := at(ix0, iy0), at(ixHi-1, iyHi-1)
		corners := []Point{lo, hi, {X: lo.X, Y: hi.Y}, {X: hi.X, Y: lo.Y}}

		obs := make([]APObservation, 3)
		for i := range obs {
			var pos Point
			switch rng.Intn(7) {
			case 0: // a block corner
				pos = corners[rng.Intn(4)]
			case 1: // on a block edge, at a grid point or between two
				pos = at(ix0+rng.Intn(ixHi-ix0), iyHi-1)
				pos.X += step * 0.5 * float64(rng.Intn(2))
			case 2: // on the extension of an edge line, outside the block
				pos = Point{X: lo.X, Y: hi.Y + step*float64(1+rng.Intn(30))}
			case 6: // a subnormal distance left of the block's low edge
				pos = Point{X: lo.X - 1e-320*float64(1+rng.Intn(4)), Y: lo.Y + step*float64(rng.Intn(iyHi-iy0))}
			case 3: // inside the block's hull
				pos = Point{X: lo.X + (hi.X-lo.X)*rng.Float64(), Y: lo.Y + (hi.Y-lo.Y)*rng.Float64()}
			default: // anywhere nearby
				pos = at(rng.Intn(50)-5, rng.Intn(50)-5)
				pos.X += step * rng.Float64()
			}
			var axis float64
			switch rng.Intn(3) {
			case 0:
				axis = 90 * float64(rng.Intn(4))
			case 1: // aimed exactly at a corner: the ray grazes the block
				c := corners[rng.Intn(4)]
				axis = math.Atan2(c.Y-pos.Y, c.X-pos.X) * 180 / math.Pi
				if rng.Intn(2) == 0 {
					axis += 180
				}
			default:
				axis = 360 * rng.Float64()
			}
			aoa := []float64{0, 180, 180 * rng.Float64()}[rng.Intn(3)]
			obs[i] = APObservation{Pos: pos, AxisDeg: axis, AoADeg: aoa, RSSIdBm: -40 - 20*rng.Float64()}
		}
		g, err := newGridSearch(context.Background(), obs, bounds, step)
		if err != nil {
			t.Fatal(err)
		}
		minCost := math.Inf(1)
		for ix := ix0; ix < ixHi; ix++ {
			for iy := iy0; iy < iyHi; iy++ {
				minCost = min(minCost, g.costAt(ix, iy))
			}
		}
		if b := g.blockBound(ix0, ixHi, iy0, iyHi); b > minCost {
			t.Fatalf("trial %d: block bound %.17g exceeds the block's minimum cost %.17g (obs %+v)", trial, b, minCost, obs)
		}
		for i, o := range obs {
			plo, phi := g.phiRange(i, lo.X, lo.Y, hi.X, hi.Y)
			for ix := ix0; ix < ixHi; ix++ {
				for iy := iy0; iy < iyHi; iy++ {
					a := g.aps[i]
					phiAt := aoaFromAxis(a.ux, a.uy, o.Pos, g.pointAt(ix, iy))
					if phiAt < plo || phiAt > phi {
						t.Fatalf("trial %d AP %+v: phi %.17g at (%d, %d) outside [%.17g, %.17g]", trial, o, phiAt, ix, iy, plo, phi)
					}
					worst = max(worst, plo+phiMargin-phiAt, phiAt-(phi-phiMargin))
				}
			}
		}
	}
	if worst > phiMargin/10 {
		t.Fatalf("phi strayed %.3g degrees outside an unwidened interval; phiMargin %g leaves under tenfold headroom", worst, phiMargin)
	}
	t.Logf("largest excursion beyond the unwidened interval: %.3g degrees", worst)
}

// TestSearchTiesAcrossBlocks: the best-first refinement must still return
// the flat scan's lexicographically first minimum when equal costs sit in
// different blocks. On a 1/8 m grid every offset is exact, and grid points
// at offsets s, 2s and 4s (and, as rounding falls, others) along one ray
// from an AP see bit-identical AoAs, so with a single weighted AP they tie at
// cost zero. The ray is steep, so
// the tied points share a block column and the block holding the
// lexicographically first of them — the farthest — comes last in block
// order. A second case makes every cost overflow to +Inf, a tie over the
// whole grid.
func TestSearchTiesAcrossBlocks(t *testing.T) {
	const step = 0.125
	room := Rect{MaxX: 8, MaxY: 8}
	ap := Point{X: 7 * step}
	silent := APObservation{Pos: Point{X: 8, Y: 8}, RSSIdBm: -5000} // weight underflows to 0
	axis := 100.0
	offset := func(k float64) Point { return Point{X: ap.X - k*step, Y: 8 * k * step} }
	aoa := ExpectedAoA(ap, axis, offset(1))
	for _, k := range []float64{2, 4} {
		if got := ExpectedAoA(ap, axis, offset(k)); got != aoa {
			t.Fatalf("offset %vs: AoA %.17g does not tie %.17g", k, got, aoa)
		}
	}
	cases := map[string][]APObservation{
		"zero-cost ray": {{Pos: ap, AxisDeg: axis, AoADeg: aoa, RSSIdBm: -40}, silent},
		"all costs +Inf": {
			{Pos: ap, AxisDeg: axis, AoADeg: 1e200, RSSIdBm: -40},
			{Pos: Point{X: 8}, AoADeg: 1e200, RSSIdBm: -40},
		},
	}
	for name, obs := range cases {
		flat, _, err := LocalizeSearchCtx(context.Background(), obs, room, step, 1, SearchConfig{Mode: SearchFlat})
		if err != nil {
			t.Fatal(err)
		}
		// The flat argmin must be a tie farther up the ray than offset(1),
		// in a later block; with every cost +Inf it is the first grid point.
		if name == "all costs +Inf" {
			requireSameBits(t, name+" flat", flat, Point{})
		} else if flat.X >= offset(2).X || flat.Y < 2 {
			t.Fatalf("%s: flat argmin (%v, %v) is not a tie beyond offset(2)", name, flat.X, flat.Y)
		}
		coarse, stats, err := LocalizeSearchCtx(context.Background(), obs, room, step, 1, SearchConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Mode != "coarse" {
			t.Fatalf("%s: want coarse mode, got %q", name, stats.Mode)
		}
		requireSameBits(t, name, coarse, flat)
		if _, _, err := LocalizeSearchCtx(context.Background(), obs, room, step, 1, SearchConfig{Mode: SearchExact}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
