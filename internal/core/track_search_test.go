package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"roarray/internal/obs"
)

// Window mode on the same index lattice: a window covering the whole room
// must reproduce the flat scan bit for bit, and a window strictly
// containing the flat argmin must find the same point.
func TestWindowSearchBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 12; trial++ {
		target := Point{X: 1 + 16*rng.Float64(), Y: 1 + 10*rng.Float64()}
		obs := testbedObservations(target, rng)

		flatPos, flatStats, err := LocalizeSearchCtx(context.Background(), obs, testbedRoom, 0.1, 1, SearchConfig{Mode: SearchFlat})
		if err != nil {
			t.Fatal(err)
		}
		if flatStats.Mode != "flat" {
			t.Fatalf("trial %d: expected flat mode, got %q", trial, flatStats.Mode)
		}

		// Whole-room window: identical scan, window bookkeeping.
		full := testbedRoom
		pos, stats, err := LocalizeSearchCtx(context.Background(), obs, testbedRoom, 0.1, 1, SearchConfig{Window: &full})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Mode != "window" || stats.WindowCells != flatStats.FlatCells {
			t.Fatalf("trial %d: whole-room window ran %q over %d cells (flat grid %d)",
				trial, stats.Mode, stats.WindowCells, flatStats.FlatCells)
		}
		if stats.WindowEdge {
			t.Fatalf("trial %d: whole-room window flagged an interior edge", trial)
		}
		requireSameBits(t, "whole-room window", pos, flatPos)

		// Tight window around the flat argmin: same answer, far fewer cells.
		win := Rect{MinX: flatPos.X - 1, MinY: flatPos.Y - 1, MaxX: flatPos.X + 1, MaxY: flatPos.Y + 1}
		pos, stats, err = LocalizeSearchCtx(context.Background(), obs, testbedRoom, 0.1, 1, SearchConfig{Window: &win})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Mode != "window" {
			t.Fatalf("trial %d: tight window degraded to %q", trial, stats.Mode)
		}
		if stats.WindowCells >= flatStats.FlatCells/10 {
			t.Fatalf("trial %d: tight window evaluated %d of %d cells", trial, stats.WindowCells, flatStats.FlatCells)
		}
		requireSameBits(t, "tight window", pos, flatPos)
		if stats.WindowEdge {
			t.Fatalf("trial %d: argmin interior to the window flagged as edge", trial)
		}
	}
}

// A window that excludes the true optimum must raise the WindowEdge flag —
// the signal the tracked pipeline uses to trigger the verified fallback.
func TestWindowSearchEdgeDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	edges := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		target := Point{X: 12 + 5*rng.Float64(), Y: 2 + 8*rng.Float64()}
		obs := testbedObservations(target, nil)
		// Window pinned to the far corner, away from the target: the
		// restricted argmin should press against the window boundary.
		win := Rect{MinX: 0.5, MinY: 0.5, MaxX: 4.5, MaxY: 4.5}
		_, stats, err := LocalizeSearchCtx(context.Background(), obs, testbedRoom, 0.1, 1, SearchConfig{Window: &win})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Mode != "window" {
			t.Fatalf("trial %d: window degraded to %q", trial, stats.Mode)
		}
		if stats.WindowEdge {
			edges++
		}
	}
	if edges < trials*8/10 {
		t.Fatalf("only %d/%d displaced windows flagged an edge", edges, trials)
	}
}

// A window that misses the search bounds entirely must degrade to the
// configured full-grid strategy instead of failing.
func TestWindowSearchDegeneratesToFull(t *testing.T) {
	obs := testbedObservations(Point{X: 9, Y: 6}, nil)
	win := Rect{MinX: -30, MinY: -30, MaxX: -20, MaxY: -20}
	pos, stats, err := LocalizeSearchCtx(context.Background(), obs, testbedRoom, 0.1, 1, SearchConfig{Mode: SearchFlat, Window: &win})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mode != "flat" {
		t.Fatalf("missing window ran %q, want flat fallback", stats.Mode)
	}
	flatPos, _, err := LocalizeSearchCtx(context.Background(), obs, testbedRoom, 0.1, 1, SearchConfig{Mode: SearchFlat})
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "degenerate window", pos, flatPos)
}

// A window reaching far or infinitely past the grid clamps to it and still
// runs in window mode, with the flat scan's bits over the clamped index
// range; a window with a NaN coordinate holds no grid point and runs the
// full-grid search.
func TestWindowSearchOversized(t *testing.T) {
	obs := testbedObservations(Point{X: 9, Y: 6}, nil)
	g, err := newGridSearch(context.Background(), obs, testbedRoom, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	inf := math.Inf(1)
	for _, c := range []struct {
		win  Rect
		want idxRange
	}{
		{Rect{MinX: 5, MinY: 3, MaxX: 1e300, MaxY: 7}, idxRange{xLo: 50, xHi: 181, yLo: 30, yHi: 71}},
		{Rect{MinX: 5, MinY: 3, MaxX: inf, MaxY: 7}, idxRange{xLo: 50, xHi: 181, yLo: 30, yHi: 71}},
		{Rect{MinX: -1e300, MinY: 3, MaxX: 7, MaxY: 7}, idxRange{xLo: 0, xHi: 71, yLo: 30, yHi: 71}},
		{Rect{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf}, idxRange{xLo: 0, xHi: 181, yLo: 0, yHi: 121}},
	} {
		r, ok := g.windowIndexRange(c.win)
		if !ok || r != c.want {
			t.Fatalf("window %+v: index range %+v (ok %v), want %+v", c.win, r, ok, c.want)
		}
		win := c.win
		pos, stats, err := LocalizeSearchCtx(context.Background(), obs, testbedRoom, 0.1, 1, SearchConfig{Window: &win})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Mode != "window" || stats.WindowCells != (r.xHi-r.xLo)*(r.yHi-r.yLo) {
			t.Fatalf("window %+v ran %q over %d cells, want window mode over %+v", c.win, stats.Mode, stats.WindowCells, r)
		}
		want, err := g.flatRange(r.xLo, r.xHi, r.yLo, r.yHi)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, "oversized window", pos, g.pointAt(want.ix, want.iy))
	}

	for _, win := range []Rect{
		{MinX: math.NaN(), MinY: 3, MaxX: 9, MaxY: 7},
		{MinX: 5, MinY: 3, MaxX: 9, MaxY: math.NaN()},
		{MinX: inf, MinY: 3, MaxX: inf, MaxY: 7},
	} {
		if r, ok := g.windowIndexRange(win); ok {
			t.Fatalf("window %+v: index range %+v, want no intersection", win, r)
		}
		_, stats, err := LocalizeSearchCtx(context.Background(), obs, testbedRoom, 0.1, 1, SearchConfig{Window: &win})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Mode != "coarse" {
			t.Fatalf("window %+v ran %q, want the full-grid coarse search", win, stats.Mode)
		}
	}
}

// Tracked localization with a fresh tracker (no prediction window yet) must
// be bit-identical to the stateless path on the same request — the
// guarantee the /v1/track fresh-session wire test builds on.
func TestLocalizeTrackedFreshMatchesStateless(t *testing.T) {
	est := engineTestEstimator(t)
	eng, err := NewEngine(est, 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs := engineTestRequests(t, 2, 3, 4100)

	stateless, err := eng.Localize(context.Background(), reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := NewTracker(0, 0, 0)
	tracked, err := eng.LocalizeTracked(context.Background(), reqs[0], tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "fresh tracked fix", tracked.Fix.Position, stateless.Position)
	if tracked.Windowed || tracked.Fallback {
		t.Fatalf("fresh track claimed a window: %+v", tracked)
	}
	if tracked.Track.Smoothed != tracked.Fix.Position {
		t.Fatalf("first tracked fix not passed through: %+v vs %+v", tracked.Track.Smoothed, tracked.Fix.Position)
	}
	if tracked.Fix.Search.Mode != stateless.Search.Mode || tracked.Fix.Search.Evaluated() != stateless.Search.Evaluated() {
		t.Fatalf("fresh tracked search differed: %+v vs %+v", tracked.Fix.Search, stateless.Search)
	}
}

// The verified-fallback gate: drive the tracker into a confident prediction,
// then teleport the target. The windowed attempt must be rejected and the
// accepted fix must be byte-identical to the stateless full search — the
// ErrSearchMismatch-style runtime re-proof for window mode.
func TestLocalizeTrackedOutOfGateFallsBackBitIdentical(t *testing.T) {
	est := engineTestEstimator(t)
	eng, err := NewEngine(est, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Epochs 0-2 hold the target near one corner; epoch 3 teleports it
	// across the room (same request re-used for the stateless reference).
	near := engineTestRequests(t, 3, 3, 7300)
	far := engineTestRequests(t, 4, 3, 9911)[3]

	tr, _ := NewTracker(0, 0, 0)
	for i, req := range near {
		if _, err := eng.LocalizeTracked(context.Background(), req, tr, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	stateless, err := eng.Localize(context.Background(), far)
	if err != nil {
		t.Fatal(err)
	}
	tracked, err := eng.LocalizeTracked(context.Background(), far, tr, float64(len(near)))
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "fallback fix", tracked.Fix.Position, stateless.Position)
	if tracked.Windowed {
		// The windowed attempt may only be accepted if the teleported fix
		// truly landed in-gate — which the bit-identity above then proves
		// harmless. But with a settled track and a cross-room jump the
		// window must have been rejected.
		prev := tracked.Track.Predicted
		if prev.Dist(stateless.Position) > 3 {
			t.Fatalf("cross-room jump accepted from the window: %+v", tracked)
		}
	} else if !tracked.Fallback && tr.State().Updates >= 2 {
		// No window ran at all — only legitimate if the tracker had no
		// prediction, which cannot happen after three updates.
		t.Fatalf("no windowed attempt before the fallback: %+v", tracked)
	}
	if tracked.Fallback && tracked.WindowStats.Mode != "window" {
		t.Fatalf("fallback did not record the rejected window attempt: %+v", tracked.WindowStats)
	}
}

// On a smooth low-noise walk the windowed path must engage and stay
// bit-identical to what the stateless full search would have returned for
// the same burst whenever the windowed fix is accepted in-gate and
// interior: the window contains the gate region, so the full argmin is
// inside it and index equality forces bit equality.
func TestLocalizeTrackedWindowedAcceptanceAgreesWithFull(t *testing.T) {
	est := engineTestEstimator(t)
	eng, err := NewEngine(est, 1)
	if err != nil {
		t.Fatal(err)
	}
	// One seeded walking target: regenerate the same bursts for both arms.
	mk := func() []*LocalizeRequest { return engineTestRequests(t, 6, 3, 5500) }
	reqsA, reqsB := mk(), mk()

	tr, _ := NewTracker(0, 0, 0)
	windowedEpochs := 0
	for i := range reqsA {
		tracked, err := eng.LocalizeTracked(context.Background(), reqsA[i], tr, float64(i))
		if err != nil {
			t.Fatal(err)
		}
		stateless, err := eng.Localize(context.Background(), reqsB[i])
		if err != nil {
			t.Fatal(err)
		}
		if tracked.Windowed {
			windowedEpochs++
			requireSameBits(t, "windowed epoch", tracked.Fix.Position, stateless.Position)
			if tracked.Fix.Search.Evaluated() >= stateless.Search.FlatCells/5 {
				t.Fatalf("epoch %d: window evaluated %d cells, full grid %d — shrinkage failed",
					i, tracked.Fix.Search.Evaluated(), stateless.Search.FlatCells)
			}
		} else {
			requireSameBits(t, "full epoch", tracked.Fix.Position, stateless.Position)
		}
	}
	_ = windowedEpochs // randomly-placed targets may legitimately always fall back
}

func TestLocalizeBatchItemsMixed(t *testing.T) {
	est := engineTestEstimator(t)
	eng, err := NewEngine(est, 2)
	if err != nil {
		t.Fatal(err)
	}
	reqs := engineTestRequests(t, 3, 3, 6200)
	tr, _ := NewTracker(0, 0, 0)
	items := []BatchItem{
		{Req: reqs[0]},
		{Req: reqs[1], Tracker: tr, T: 1},
		{Req: reqs[2]},
	}
	outs := eng.LocalizeBatchItems(context.Background(), items)
	for i, out := range outs {
		if out.Err != nil {
			t.Fatalf("slot %d: %v", i, out.Err)
		}
		if out.Res == nil {
			t.Fatalf("slot %d: nil result", i)
		}
	}
	if outs[1].Track == nil || outs[1].Track.Fix != outs[1].Res {
		t.Fatalf("tracked slot did not alias its fix: %+v", outs[1])
	}
	if outs[0].Track != nil || outs[2].Track != nil {
		t.Fatal("stateless slots grew track results")
	}
	// The tracked slot must have updated the tracker.
	if tr.State().Updates != 1 {
		t.Fatalf("tracker absorbed %d fixes, want 1", tr.State().Updates)
	}
	// Bit-identity with the serial paths.
	serialA, err := eng.Localize(context.Background(), reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "batch stateless slot", outs[0].Res.Position, serialA.Position)
	tr2, _ := NewTracker(0, 0, 0)
	serialB, err := eng.LocalizeTracked(context.Background(), reqs[1], tr2, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "batch tracked slot", outs[1].Track.Fix.Position, serialB.Fix.Position)
	if outs[1].Track.Track != serialB.Track {
		t.Fatalf("batch tracked filter outcome diverged: %+v vs %+v", outs[1].Track.Track, serialB.Track)
	}
}

// TestTrackFallbackCauseCounters: every tracked fallback names its cause,
// and the per-cause counters core.track.fallback_gate_total and
// core.track.fallback_edge_total sum to core.track.fallback_total. A walk
// that settles and then teleports across the room produces at least one
// gate rejection.
func TestTrackFallbackCauseCounters(t *testing.T) {
	cfg := engineTestEstimator(t).Config()
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	est, err := NewEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(est, 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs := append(engineTestRequests(t, 4, 3, 7300), engineTestRequests(t, 4, 3, 9911)[3])
	tr, _ := NewTracker(0, 0, 0)
	causes := map[string]int64{}
	for i, req := range reqs {
		res, err := eng.LocalizeTracked(context.Background(), req, tr, float64(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Fallback != (res.FallbackCause != "") {
			t.Fatalf("epoch %d: Fallback %v with cause %q", i, res.Fallback, res.FallbackCause)
		}
		if res.Fallback {
			causes[res.FallbackCause]++
		}
	}
	total := reg.Counter("core.track.fallback_total").Value()
	gate := reg.Counter("core.track.fallback_gate_total").Value()
	edge := reg.Counter("core.track.fallback_edge_total").Value()
	if gate+edge != total || gate != causes["gate"] || edge != causes["edge"] || len(causes) > 2 {
		t.Fatalf("fallback counters gate %d + edge %d vs total %d; results %v", gate, edge, total, causes)
	}
	if gate == 0 {
		t.Fatalf("the cross-room jump produced no gate rejection (results %v)", causes)
	}
}
