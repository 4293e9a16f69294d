package core

import (
	"errors"
	"fmt"
	"math"
)

// Typed tracker rejections. Both leave the filter state untouched, so a bad
// epoch (a stale timestamp, a NaN fix from a poisoned upstream) can be
// dropped and the track resumed on the next good fix.
var (
	// ErrTrackTime reports a fix whose timestamp does not strictly increase.
	ErrTrackTime = errors.New("core: tracker time must strictly increase")
	// ErrTrackNonFinite reports a fix or timestamp containing NaN or Inf.
	ErrTrackNonFinite = errors.New("core: tracker rejected non-finite input")
)

// TrackState is the full filter state, as Tracker.State snapshots it.
type TrackState struct {
	// Initialized reports whether any fix has been absorbed.
	Initialized bool `json:"initialized,omitempty"`
	// Updates counts absorbed fixes. Velocity (and therefore prediction
	// windows) needs at least two.
	Updates int `json:"updates,omitempty"`
	// Pos is the smoothed position estimate.
	Pos Point `json:"pos"`
	// Vel is the velocity estimate in m/s.
	Vel Point `json:"vel"`
	// PVar is the isotropic position variance (m^2) the innovation gate and
	// prediction window are sized from.
	PVar float64 `json:"pvar"`
	// LastT is the timestamp of the last absorbed fix (seconds).
	LastT float64 `json:"lastT"`
	// Misses counts consecutive out-of-gate fixes. One miss is damped as an
	// outlier; a second consecutive miss re-anchors the track
	// (re-acquisition).
	Misses int `json:"misses,omitempty"`
}

// TrackFix is the outcome of absorbing one position fix.
type TrackFix struct {
	// Smoothed is the filtered position estimate after the update.
	Smoothed Point
	// Velocity is the velocity estimate after the update (m/s).
	Velocity Point
	// Predicted is the motion-model extrapolation the fix was compared
	// against (equals the fix itself on the first update).
	Predicted Point
	// InnovationM is the distance between the fix and the prediction.
	InnovationM float64
	// NIS is the normalized innovation squared (innovation^2 over predicted
	// innovation variance) — the gate statistic. Zero on the first update.
	NIS float64
	// GateMiss reports that the innovation failed the NIS gate. The first
	// consecutive miss is damped as a presumed outlier; the second
	// re-anchors (see Reacquired).
	GateMiss bool
	// Reacquired reports that a second consecutive out-of-gate fix made the
	// filter re-anchor on the fix instead of smoothing toward it. The
	// tracked search pipeline only feeds full-grid-verified fixes to Update,
	// so a re-acquisition is a genuine track jump (dropped epochs, a teleport
	// in the workload), not a search artifact.
	Reacquired bool
}

// Tracker smooths a sequence of per-epoch position fixes into a trajectory
// for a slowly moving client — the mobile use case the paper's multi-packet
// fusion targets ("slowly moving and static objects", Sec. III-D). It is a
// predict/update alpha-beta filter on (position, velocity) with a scalar
// variance model: the predicted position variance grows with elapsed time,
// and the normalized innovation squared (NIS) against that variance gates
// each fix. In-gate fixes are smoothed in; out-of-gate fixes re-anchor the
// track (re-acquisition). PredictWindow exposes the gate region as a search
// box so the Eq. 19 grid scan can be shrunk to where the next in-gate fix
// can possibly land.
type Tracker struct {
	// Alpha and Beta are the filter gains in (0, 1]; larger values trust
	// new fixes more. Zero values select 0.5 and 0.1.
	Alpha, Beta float64
	// MaxSpeed bounds plausible client motion (m/s); the velocity estimate
	// is clamped to it. Zero selects 2.5 m/s (brisk indoor walking).
	MaxSpeed float64
	// GateNIS is the innovation gate threshold on the NIS statistic. Zero
	// selects 9.21 (chi-squared, 2 dof, 99%).
	GateNIS float64
	// MeasStd is the fix measurement noise standard deviation in meters.
	// Zero selects 0.35 m (the grid-search fix accuracy on the committed
	// testbed).
	MeasStd float64
	// ProcessStd is the motion-model drift in m/s: how fast the predicted
	// position variance grows per second of extrapolation. Zero selects
	// 0.25 m/s.
	ProcessStd float64

	state TrackState
}

// NewTracker returns a tracker with the given gains (zeros select
// defaults).
func NewTracker(alpha, beta, maxSpeed float64) (*Tracker, error) {
	if alpha < 0 || alpha > 1 || beta < 0 || beta > 1 {
		return nil, fmt.Errorf("core: tracker gains alpha=%v beta=%v outside [0,1]", alpha, beta)
	}
	if maxSpeed < 0 {
		return nil, fmt.Errorf("core: negative max speed %v", maxSpeed)
	}
	t := &Tracker{Alpha: alpha, Beta: beta, MaxSpeed: maxSpeed}
	if t.Alpha == 0 {
		t.Alpha = 0.5
	}
	if t.Beta == 0 {
		t.Beta = 0.1
	}
	if t.MaxSpeed == 0 {
		t.MaxSpeed = 2.5
	}
	t.GateNIS = 9.21
	t.MeasStd = 0.35
	t.ProcessStd = 0.25
	return t, nil
}

func isFinitePoint(p Point) bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// predictAt extrapolates the state to time t without mutating it, returning
// the predicted position and the predicted innovation variance S (predicted
// position variance plus measurement variance). ok is false before the first
// update or when t does not advance the clock.
func (k *Tracker) predictAt(t float64) (pred Point, s float64, ok bool) {
	if !k.state.Initialized {
		return Point{}, 0, false
	}
	dt := t - k.state.LastT
	if dt <= 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		return Point{}, 0, false
	}
	pred = Point{X: k.state.Pos.X + k.state.Vel.X*dt, Y: k.state.Pos.Y + k.state.Vel.Y*dt}
	drift := k.ProcessStd * dt
	s = k.state.PVar + drift*drift + k.MeasStd*k.MeasStd
	return pred, s, true
}

// NISAt returns the normalized innovation squared a fix at time t would
// incur against the current prediction, without mutating the filter. ok is
// false when no prediction is available (uninitialized, non-advancing t, or
// a non-finite fix — which gates as an automatic failure).
func (k *Tracker) NISAt(t float64, fix Point) (nis float64, ok bool) {
	if !isFinitePoint(fix) {
		return math.Inf(1), false
	}
	pred, s, ok := k.predictAt(t)
	if !ok {
		return 0, false
	}
	d := fix.Dist(pred)
	return d * d / s, true
}

// PredictWindow returns the search box inside which a fix at time t can
// still pass the NIS gate: centered on the prediction with half-width
// sqrt(GateNIS * S) plus a margin of two grid steps (step <= 0 selects the
// default 0.1 m grid). Any fix strictly inside the window satisfies
// NIS <= GateNIS by construction, so a windowed grid search that lands in
// the interior never needs the gate re-checked — and one that lands on the
// window edge is the signal to fall back to the full scan. ok is false
// until the filter has absorbed two fixes (no velocity estimate yet) or
// when t does not advance the clock.
func (k *Tracker) PredictWindow(t, step float64) (Rect, bool) {
	if k.state.Updates < 2 {
		return Rect{}, false
	}
	pred, s, ok := k.predictAt(t)
	if !ok {
		return Rect{}, false
	}
	if step <= 0 {
		step = 0.1
	}
	gate := k.GateNIS
	if gate <= 0 {
		gate = 9.21
	}
	half := math.Sqrt(gate*s) + 2*step
	return Rect{
		MinX: pred.X - half, MinY: pred.Y - half,
		MaxX: pred.X + half, MaxY: pred.Y + half,
	}, true
}

// Update absorbs a position fix taken at time t (seconds, strictly
// increasing) and returns the filter outcome. Non-finite inputs are
// rejected with ErrTrackNonFinite and stale timestamps with ErrTrackTime;
// both leave the state exactly as it was.
func (k *Tracker) Update(t float64, fix Point) (TrackFix, error) {
	if math.IsNaN(t) || math.IsInf(t, 0) || !isFinitePoint(fix) {
		return TrackFix{}, fmt.Errorf("%w: t=%v fix=(%v, %v)", ErrTrackNonFinite, t, fix.X, fix.Y)
	}
	st := &k.state
	if !st.Initialized {
		st.Initialized = true
		st.Updates = 1
		st.Pos, st.LastT = fix, t
		st.Vel = Point{}
		st.PVar = k.MeasStd * k.MeasStd
		return TrackFix{Smoothed: fix, Predicted: fix}, nil
	}
	dt := t - st.LastT
	if dt <= 0 {
		return TrackFix{}, fmt.Errorf("%w: got dt=%v", ErrTrackTime, dt)
	}
	pred, s, _ := k.predictAt(t)
	innov := Point{X: fix.X - pred.X, Y: fix.Y - pred.Y}
	dist := math.Hypot(innov.X, innov.Y)
	out := TrackFix{Predicted: pred, InnovationM: dist, NIS: dist * dist / s}

	gate := k.GateNIS
	if gate <= 0 {
		gate = 9.21
	}
	switch {
	case out.NIS > gate && st.Misses >= 1:
		// Re-acquisition: a second consecutive fix inconsistent with the
		// motion model is a genuine track jump (dropped epochs, an abrupt
		// move), not a one-off outlier. Re-anchor on the fix, take the
		// implied displacement as the new velocity, and keep the variance
		// inflated so the next window stays wide until the track settles.
		prev := st.Pos
		st.Pos = fix
		st.Vel = clampSpeed(Point{X: (fix.X - prev.X) / dt, Y: (fix.Y - prev.Y) / dt}, k.MaxSpeed)
		st.PVar = s
		st.Misses = 0
		out.GateMiss = true
		out.Reacquired = true
	case out.NIS > gate:
		// First out-of-gate fix: damp it as a presumed outlier — absorb at
		// most a plausible-motion displacement — and inflate the variance so
		// the gate (and the search window) widens for the next epoch.
		out.GateMiss = true
		st.Misses++
		if limit := k.MaxSpeed * dt * 2; dist > limit && dist > 0 {
			scale := limit / dist
			innov.X *= scale
			innov.Y *= scale
		}
		st.Pos = Point{X: pred.X + k.Alpha*innov.X, Y: pred.Y + k.Alpha*innov.Y}
		st.Vel = clampSpeed(Point{X: st.Vel.X + k.Beta*innov.X/dt, Y: st.Vel.Y + k.Beta*innov.Y/dt}, k.MaxSpeed)
		st.PVar = s
	default:
		st.Misses = 0
		st.Pos = Point{X: pred.X + k.Alpha*innov.X, Y: pred.Y + k.Alpha*innov.Y}
		st.Vel = clampSpeed(Point{X: st.Vel.X + k.Beta*innov.X/dt, Y: st.Vel.Y + k.Beta*innov.Y/dt}, k.MaxSpeed)
		st.PVar = (1 - k.Alpha) * s
	}
	st.LastT = t
	st.Updates++
	out.Smoothed = st.Pos
	out.Velocity = st.Vel
	return out, nil
}

func clampSpeed(v Point, maxSpeed float64) Point {
	if maxSpeed <= 0 {
		return v
	}
	if sp := math.Hypot(v.X, v.Y); sp > maxSpeed {
		s := maxSpeed / sp
		v.X *= s
		v.Y *= s
	}
	return v
}

// State snapshots the filter for persistence between epochs.
func (k *Tracker) State() TrackState { return k.state }
