package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// localizeFlat runs the Eq. 19 reference flat scan serially.
func localizeFlat(obs []APObservation, bounds Rect, step float64) (Point, error) {
	p, _, err := LocalizeSearchCtx(context.Background(), obs, bounds, step, 1, SearchConfig{Mode: SearchFlat})
	return p, err
}

func TestExpectedAoAGeometry(t *testing.T) {
	ap := Point{X: 0, Y: 0}
	// Array axis along +x: a target straight "up" is at 90 degrees.
	if got := ExpectedAoA(ap, 0, Point{X: 0, Y: 5}); math.Abs(got-90) > 1e-9 {
		t.Fatalf("broadside AoA = %v, want 90", got)
	}
	// Target along the axis: 0 degrees.
	if got := ExpectedAoA(ap, 0, Point{X: 5, Y: 0}); math.Abs(got) > 1e-9 {
		t.Fatalf("endfire AoA = %v, want 0", got)
	}
	// Target opposite the axis: 180 degrees.
	if got := ExpectedAoA(ap, 0, Point{X: -5, Y: 0}); math.Abs(got-180) > 1e-9 {
		t.Fatalf("back endfire AoA = %v, want 180", got)
	}
	// Degenerate coincident point returns the broadside convention.
	if got := ExpectedAoA(ap, 0, ap); got != 90 {
		t.Fatalf("coincident AoA = %v, want 90", got)
	}
	// Rotating the axis rotates the measurement.
	if got := ExpectedAoA(ap, 90, Point{X: 0, Y: 5}); math.Abs(got) > 1e-9 {
		t.Fatalf("rotated axis AoA = %v, want 0", got)
	}
}

// Property: expected AoA is always within [0, 180].
func TestPropExpectedAoARange(t *testing.T) {
	f := func(ax, px, py, tx, ty float64) bool {
		if anyNaNInf(ax, px, py, tx, ty) {
			return true
		}
		// Skip magnitudes where coordinate subtraction itself overflows.
		for _, v := range []float64{px, py, tx, ty} {
			if math.Abs(v) > 1e150 {
				return true
			}
		}
		got := ExpectedAoA(Point{X: px, Y: py}, ax, Point{X: tx, Y: ty})
		return got >= 0 && got <= 180
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func anyNaNInf(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

func TestLocalizeExactAoAs(t *testing.T) {
	room := Rect{MinX: 0, MinY: 0, MaxX: 18, MaxY: 12}
	target := Point{X: 7.3, Y: 4.9}
	aps := []struct {
		pos  Point
		axis float64
	}{
		{Point{0, 0}, 0},
		{Point{18, 0}, 90},
		{Point{0, 12}, 0},
		{Point{18, 12}, 90},
	}
	obs := make([]APObservation, len(aps))
	for i, ap := range aps {
		obs[i] = APObservation{
			Pos:     ap.pos,
			AxisDeg: ap.axis,
			AoADeg:  ExpectedAoA(ap.pos, ap.axis, target),
			RSSIdBm: -50,
		}
	}
	got, err := localizeFlat(obs, room, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dist(target) > 0.15 {
		t.Fatalf("localized %v, want ~%v (err %v m)", got, target, got.Dist(target))
	}
}

func TestLocalizeRSSIWeighting(t *testing.T) {
	// Two APs agree on the target; a third, much weaker AP reports a wildly
	// wrong AoA. RSSI weighting must suppress it.
	room := Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	target := Point{X: 5, Y: 5}
	good1 := APObservation{Pos: Point{0, 0}, AxisDeg: 0, AoADeg: ExpectedAoA(Point{0, 0}, 0, target), RSSIdBm: -40}
	good2 := APObservation{Pos: Point{10, 0}, AxisDeg: 90, AoADeg: ExpectedAoA(Point{10, 0}, 90, target), RSSIdBm: -40}
	good3 := APObservation{Pos: Point{0, 10}, AxisDeg: 0, AoADeg: ExpectedAoA(Point{0, 10}, 0, target), RSSIdBm: -40}
	liar := APObservation{Pos: Point{10, 10}, AxisDeg: 90, AoADeg: 170, RSSIdBm: -85}
	got, err := localizeFlat([]APObservation{good1, good2, good3, liar}, room, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dist(target) > 0.5 {
		t.Fatalf("weighted localization %v too far from %v", got, target)
	}
}

func TestLocalizeValidation(t *testing.T) {
	room := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	if _, err := localizeFlat([]APObservation{{}}, room, 0.1); err == nil {
		t.Fatal("single observation should error")
	}
	obs := []APObservation{{}, {}}
	if _, err := localizeFlat(obs, Rect{MinX: 1, MaxX: 0, MinY: 0, MaxY: 1}, 0.1); err == nil {
		t.Fatal("empty bounds should error")
	}
	// Zero step defaults rather than hanging.
	if _, err := localizeFlat([]APObservation{
		{Pos: Point{0, 0}, AoADeg: 45, RSSIdBm: -40},
		{Pos: Point{1, 0}, AxisDeg: 90, AoADeg: 45, RSSIdBm: -40},
	}, room, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 3}
	if !r.Contains(Point{1, 1}) || r.Contains(Point{3, 1}) || r.Contains(Point{1, -1}) {
		t.Fatal("Rect.Contains wrong")
	}
}

func TestPointDist(t *testing.T) {
	if got := (Point{0, 0}).Dist(Point{3, 4}); got != 5 {
		t.Fatalf("Dist = %v, want 5", got)
	}
}

// Property: localization of noise-free observations from >= 3 random APs
// recovers the target within grid resolution.
func TestPropLocalizeConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	room := Rect{MinX: 0, MinY: 0, MaxX: 12, MaxY: 8}
	for trial := 0; trial < 10; trial++ {
		target := Point{X: 1 + 10*rng.Float64(), Y: 1 + 6*rng.Float64()}
		obs := make([]APObservation, 4)
		corners := []Point{{0, 0}, {12, 0}, {0, 8}, {12, 8}}
		for i, c := range corners {
			axis := float64(rng.Intn(4)) * 45
			obs[i] = APObservation{
				Pos:     c,
				AxisDeg: axis,
				AoADeg:  ExpectedAoA(c, axis, target),
				RSSIdBm: -45,
			}
		}
		got, err := localizeFlat(obs, room, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if got.Dist(target) > 0.3 {
			t.Fatalf("trial %d: localized %v, want %v", trial, got, target)
		}
	}
}
