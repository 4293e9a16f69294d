package core

import (
	"math"
	"math/rand"
	"testing"
)

func TestTrackerValidation(t *testing.T) {
	if _, err := NewTracker(2, 0, 0); err == nil {
		t.Fatal("alpha > 1 should error")
	}
	if _, err := NewTracker(0, -1, 0); err == nil {
		t.Fatal("negative beta should error")
	}
	if _, err := NewTracker(0, 0, -1); err == nil {
		t.Fatal("negative speed should error")
	}
	tr, err := NewTracker(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Alpha != 0.5 || tr.Beta != 0.1 || tr.MaxSpeed != 2.5 {
		t.Fatalf("defaults wrong: %+v", tr)
	}
}

func TestTrackerFirstFixPassesThrough(t *testing.T) {
	tr, _ := NewTracker(0, 0, 0)
	got, err := tr.Update(0, Point{X: 3, Y: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got.Smoothed.X != 3 || got.Smoothed.Y != 4 {
		t.Fatalf("first fix not passed through: %+v", got)
	}
}

func TestTrackerRejectsNonIncreasingTime(t *testing.T) {
	tr, _ := NewTracker(0, 0, 0)
	if _, err := tr.Update(1, Point{}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Update(1, Point{X: 1}); err == nil {
		t.Fatal("repeated timestamp should error")
	}
}

// Tracking a straight walk through noisy fixes must beat the raw fixes.
func TestTrackerSmoothsNoisyWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	tr, _ := NewTracker(0.4, 0.1, 3)
	tr.MeasStd = 0.8 // match the noise injected below so the gate stays open
	var rawErr, smoothErr float64
	n := 0
	for step := 0; step <= 60; step++ {
		tm := float64(step) * 0.5 // one fix every 500 ms
		truth := Point{X: 2 + 0.5*tm, Y: 4 + 0.25*tm}
		fix := Point{X: truth.X + rng.NormFloat64()*0.8, Y: truth.Y + rng.NormFloat64()*0.8}
		got, err := tr.Update(tm, fix)
		if err != nil {
			t.Fatal(err)
		}
		if step >= 15 { // skip convergence transient
			rawErr += fix.Dist(truth)
			smoothErr += got.Smoothed.Dist(truth)
			n++
		}
	}
	rawErr /= float64(n)
	smoothErr /= float64(n)
	if smoothErr >= rawErr {
		t.Fatalf("tracker (%.2f m) did not beat raw fixes (%.2f m)", smoothErr, rawErr)
	}
	// Velocity estimate should approximate the true walk speed.
	sp := math.Hypot(tr.State().Vel.X, tr.State().Vel.Y)
	want := math.Hypot(0.5, 0.25)
	if math.Abs(sp-want) > 0.3 {
		t.Fatalf("velocity %.2f m/s, want ~%.2f", sp, want)
	}
}

// A wildly wrong fix (e.g. a localization failure) must not teleport the
// track.
func TestTrackerGatesOutliers(t *testing.T) {
	tr, _ := NewTracker(0.5, 0.1, 2)
	if _, err := tr.Update(0, Point{X: 5, Y: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Update(1, Point{X: 5.1, Y: 5}); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Update(2, Point{X: 17, Y: 11}) // 13 m jump in 1 s
	if err != nil {
		t.Fatal(err)
	}
	if !got.GateMiss {
		t.Fatal("13 m jump did not trip the NIS gate")
	}
	if got.Smoothed.Dist(Point{X: 5.1, Y: 5}) > 3 {
		t.Fatalf("outlier teleported the track to %+v", got.Smoothed)
	}
}
