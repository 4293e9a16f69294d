package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// The property suite runs every metamorphic check over this many seeded
// random trajectories; RACE_PKGS includes this package, so the whole suite
// also runs under -race in make check.
const propertyTrajectories = 25

// propertyWalk synthesizes one noisy random-walk fix sequence: bounded
// speed, bounded turn rate, irregular epoch spacing, measurement noise.
type walkFix struct {
	t   float64
	fix Point
}

func propertyWalk(rng *rand.Rand, n int) []walkFix {
	pos := Point{X: 4 + 10*rng.Float64(), Y: 2 + 8*rng.Float64()}
	heading := rng.Float64() * 2 * math.Pi
	t := 0.0
	out := make([]walkFix, n)
	for i := 0; i < n; i++ {
		noise := Point{X: rng.NormFloat64() * 0.2, Y: rng.NormFloat64() * 0.2}
		out[i] = walkFix{t: t, fix: Point{X: pos.X + noise.X, Y: pos.Y + noise.Y}}
		dt := 0.5 + rng.Float64()
		speed := 0.3 + rng.Float64()
		heading += (rng.Float64() - 0.5) * math.Pi / 2 * dt
		pos.X += speed * dt * math.Cos(heading)
		pos.Y += speed * dt * math.Sin(heading)
		t += dt
	}
	return out
}

func trackAll(t *testing.T, tr *Tracker, fixes []walkFix) []TrackFix {
	t.Helper()
	out := make([]TrackFix, len(fixes))
	for i, f := range fixes {
		got, err := tr.Update(f.t, f.fix)
		if err != nil {
			t.Fatalf("fix %d: %v", i, err)
		}
		out[i] = got
	}
	return out
}

// Translating every fix by a constant offset must translate the smoothed
// track by the same offset: the filter has no absolute-position preference.
func TestTrackerTranslationEquivariance(t *testing.T) {
	for seed := int64(0); seed < propertyTrajectories; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		fixes := propertyWalk(rng, 30)
		off := Point{X: -50 + 100*rng.Float64(), Y: -50 + 100*rng.Float64()}
		a, _ := NewTracker(0, 0, 0)
		b, _ := NewTracker(0, 0, 0)
		sa := trackAll(t, a, fixes)
		shifted := make([]walkFix, len(fixes))
		for i, f := range fixes {
			shifted[i] = walkFix{t: f.t, fix: Point{X: f.fix.X + off.X, Y: f.fix.Y + off.Y}}
		}
		sb := trackAll(t, b, shifted)
		for i := range sa {
			want := Point{X: sa[i].Smoothed.X + off.X, Y: sa[i].Smoothed.Y + off.Y}
			if d := want.Dist(sb[i].Smoothed); d > 1e-6 {
				t.Fatalf("seed %d fix %d: translated track off by %g m", seed, i, d)
			}
			if sa[i].GateMiss != sb[i].GateMiss || sa[i].Reacquired != sb[i].Reacquired {
				t.Fatalf("seed %d fix %d: gate decisions changed under translation", seed, i)
			}
		}
	}
}

// Rotating every fix about the origin must rotate the smoothed track the
// same way: the filter (and its gate) is isotropic.
func TestTrackerRotationEquivariance(t *testing.T) {
	rot := func(p Point, th float64) Point {
		c, s := math.Cos(th), math.Sin(th)
		return Point{X: c*p.X - s*p.Y, Y: s*p.X + c*p.Y}
	}
	for seed := int64(0); seed < propertyTrajectories; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		fixes := propertyWalk(rng, 30)
		th := rng.Float64() * 2 * math.Pi
		a, _ := NewTracker(0, 0, 0)
		b, _ := NewTracker(0, 0, 0)
		sa := trackAll(t, a, fixes)
		rotated := make([]walkFix, len(fixes))
		for i, f := range fixes {
			rotated[i] = walkFix{t: f.t, fix: rot(f.fix, th)}
		}
		sb := trackAll(t, b, rotated)
		for i := range sa {
			want := rot(sa[i].Smoothed, th)
			if d := want.Dist(sb[i].Smoothed); d > 1e-6 {
				t.Fatalf("seed %d fix %d: rotated track off by %g m", seed, i, d)
			}
			if math.Abs(sa[i].NIS-sb[i].NIS) > 1e-6 {
				t.Fatalf("seed %d fix %d: NIS not rotation-invariant (%g vs %g)", seed, i, sa[i].NIS, sb[i].NIS)
			}
		}
	}
}

// NIS must grow strictly with the innovation radius: moving a hypothetical
// fix farther from the prediction can only make it less plausible.
func TestTrackerNISMonotonicity(t *testing.T) {
	for seed := int64(0); seed < propertyTrajectories; seed++ {
		rng := rand.New(rand.NewSource(3000 + seed))
		fixes := propertyWalk(rng, 10)
		tr, _ := NewTracker(0, 0, 0)
		trackAll(t, tr, fixes)
		tNext := fixes[len(fixes)-1].t + 1
		pred, _, ok := tr.predictAt(tNext)
		if !ok {
			t.Fatalf("seed %d: no prediction after %d fixes", seed, len(fixes))
		}
		dir := rng.Float64() * 2 * math.Pi
		prev := -1.0
		for _, r := range []float64{0, 0.1, 0.5, 1, 2, 5, 10, 50} {
			fix := Point{X: pred.X + r*math.Cos(dir), Y: pred.Y + r*math.Sin(dir)}
			nis, ok := tr.NISAt(tNext, fix)
			if !ok {
				t.Fatalf("seed %d: NISAt rejected a finite fix", seed)
			}
			if nis <= prev {
				t.Fatalf("seed %d: NIS not strictly increasing at radius %g (%g <= %g)", seed, r, nis, prev)
			}
			prev = nis
		}
	}
}

// A stationary target under bounded noise must converge: smoothed error
// below the raw noise level, velocity near zero, and the prediction window
// shrunk to a small fraction of the room.
func TestTrackerStationaryConvergence(t *testing.T) {
	for seed := int64(0); seed < propertyTrajectories; seed++ {
		rng := rand.New(rand.NewSource(4000 + seed))
		truth := Point{X: 9, Y: 6}
		tr, _ := NewTracker(0, 0, 0)
		var last TrackFix
		tm := 0.0
		var tailErr float64
		const epochs, tail = 40, 10
		for i := 0; i < epochs; i++ {
			fix := Point{X: truth.X + rng.NormFloat64()*0.2, Y: truth.Y + rng.NormFloat64()*0.2}
			got, err := tr.Update(tm, fix)
			if err != nil {
				t.Fatalf("seed %d fix %d: %v", seed, i, err)
			}
			last = got
			if i >= epochs-tail {
				tailErr += got.Smoothed.Dist(truth)
			}
			tm++
		}
		if d := tailErr / tail; d > 0.3 {
			t.Fatalf("seed %d: stationary track settled %g m off truth", seed, d)
		}
		if sp := math.Hypot(last.Velocity.X, last.Velocity.Y); sp > 0.25 {
			t.Fatalf("seed %d: stationary track kept %g m/s of velocity", seed, sp)
		}
		win, ok := tr.PredictWindow(tm, 0.1)
		if !ok {
			t.Fatalf("seed %d: no prediction window after convergence", seed)
		}
		area := (win.MaxX - win.MinX) * (win.MaxY - win.MinY)
		if room := 18.0 * 12.0; area > room/10 {
			t.Fatalf("seed %d: converged window %g m^2 exceeds 10%% of the room", seed, area)
		}
		if !win.Contains(truth) {
			t.Fatalf("seed %d: converged window %+v excludes the target", seed, win)
		}
	}
}

// The rejection table: every malformed input gets its typed error and
// leaves the filter state bit-identical.
func TestTrackerRejectionTable(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		t    float64
		fix  Point
		want error
	}{
		{"zero dt", 5, Point{X: 1, Y: 1}, ErrTrackTime},
		{"negative dt", 4, Point{X: 1, Y: 1}, ErrTrackTime},
		{"nan x", 6, Point{X: nan, Y: 1}, ErrTrackNonFinite},
		{"nan y", 6, Point{X: 1, Y: nan}, ErrTrackNonFinite},
		{"inf x", 6, Point{X: inf, Y: 1}, ErrTrackNonFinite},
		{"neg inf y", 6, Point{X: 1, Y: -inf}, ErrTrackNonFinite},
		{"nan t", nan, Point{X: 1, Y: 1}, ErrTrackNonFinite},
		{"inf t", inf, Point{X: 1, Y: 1}, ErrTrackNonFinite},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, _ := NewTracker(0, 0, 0)
			if _, err := tr.Update(4, Point{X: 2, Y: 3}); err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Update(5, Point{X: 2.2, Y: 3.1}); err != nil {
				t.Fatal(err)
			}
			before := tr.State()
			_, err := tr.Update(tc.t, tc.fix)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got err %v, want %v", err, tc.want)
			}
			if tr.State() != before {
				t.Fatalf("rejected update mutated state: %+v -> %+v", before, tr.State())
			}
		})
	}
}

// Regression for the pre-existing poisoning bug: a NaN fix used to slip
// past the speed gate (NaN comparisons are false) and set pos/vel to NaN
// forever. Now it must be rejected and the track must keep working.
func TestTrackerNaNFixDoesNotPoison(t *testing.T) {
	tr, _ := NewTracker(0, 0, 0)
	if _, err := tr.Update(0, Point{X: 3, Y: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Update(1, Point{X: 3.2, Y: 3.1}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Update(2, Point{X: math.NaN(), Y: math.NaN()}); !errors.Is(err, ErrTrackNonFinite) {
		t.Fatalf("NaN fix not rejected: %v", err)
	}
	got, err := tr.Update(3, Point{X: 3.6, Y: 3.3})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(got.Smoothed.X) || math.IsNaN(got.Smoothed.Y) ||
		math.IsNaN(tr.State().Vel.X) || math.IsNaN(tr.State().Vel.Y) {
		t.Fatalf("NaN leaked into the track: %+v vel %+v", got.Smoothed, tr.State().Vel)
	}
}
