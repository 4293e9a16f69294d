package serve

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"roarray/internal/core"
	"roarray/internal/obs"
)

// TrackRequest is the JSON body of POST /v1/track: one epoch of a sticky
// tracking session. It embeds the /v1/localize request (links, room, grid
// step, deadline, venue) and adds the session coordinates — which target
// this epoch belongs to, where it sits in the target's timeline, and the
// epoch timestamp the motion filter integrates over.
type TrackRequest struct {
	Request
	// SessionID names the sticky session. Empty starts a fresh session with
	// a server-minted id (echoed in the response); a returning client sends
	// the id back each epoch. Honored ids are sanitized exactly like
	// X-Request-Id values.
	SessionID string `json:"sessionId,omitempty"`
	// Seq is the client's epoch sequence number. It must strictly increase
	// within a session; an epoch at or below the last claimed seq answers
	// 400 (out of order / replay). A failed epoch keeps its claim, so
	// retries must use a fresh seq — the session survives, the epoch is not
	// replayable.
	Seq int64 `json:"seq"`
	// TSeconds is the epoch timestamp on the client's own clock (seconds,
	// any epoch origin). The filter only consumes differences, which must
	// be positive: a non-increasing timestamp answers 400.
	TSeconds float64 `json:"tSeconds"`
}

// ValidateTrack checks the tracking fields; geometry/CSI validation is
// Request.ToCore. JSON cannot carry NaN/Inf, so HTTP traffic is finite by
// construction — this is the admission gate for in-process callers.
func (r *TrackRequest) ValidateTrack() error {
	if math.IsNaN(r.TSeconds) || math.IsInf(r.TSeconds, 0) {
		return fmt.Errorf("serve: non-finite tSeconds")
	}
	if r.Seq < 0 {
		return fmt.Errorf("serve: negative seq %d", r.Seq)
	}
	return nil
}

// TrackResponse is the JSON body of a successful tracking epoch. The
// embedded Response fields carry the raw per-epoch grid fix (x, y) exactly
// as /v1/localize would report it; the tracking fields add the filtered
// view of the target.
type TrackResponse struct {
	Response
	// SessionID and Seq echo (or mint) the session coordinates.
	SessionID string `json:"sessionId"`
	Seq       int64  `json:"seq"`
	// SmoothedX/Y is the filter's position after absorbing this epoch —
	// the estimate a consumer should display for a moving target.
	SmoothedX float64 `json:"smoothedX"`
	SmoothedY float64 `json:"smoothedY"`
	// VelocityX/Y is the filter's velocity estimate (m/s).
	VelocityX float64 `json:"velocityX"`
	VelocityY float64 `json:"velocityY"`
	// NIS is the normalized innovation squared of this epoch's fix against
	// the prediction (0 on the first epoch); GateMiss reports it exceeded
	// the filter's gate.
	NIS      float64 `json:"nis"`
	GateMiss bool    `json:"gateMiss,omitempty"`
	// Windowed reports the fix came from the prediction-shrunk window
	// search; Fallback that a windowed attempt was rejected and the full
	// search re-ran, with FallbackCause "gate" (the attempt failed the NIS
	// gate) or "edge" (its argmin sat on the window edge); Reacquired that
	// the filter re-anchored after consecutive gate misses.
	Windowed      bool   `json:"windowed,omitempty"`
	Fallback      bool   `json:"fallback,omitempty"`
	FallbackCause string `json:"fallbackCause,omitempty"`
	Reacquired    bool   `json:"reacquired,omitempty"`
	// SearchMode and CellsEvaluated describe the accepted search
	// ("window" with a small cell count when the shrinkage engaged).
	SearchMode     string `json:"searchMode"`
	CellsEvaluated int    `json:"cellsEvaluated"`
}

// handleTrack serves POST /v1/track: one epoch of a sticky tracking
// session. The handler resolves (or mints) the session, claims the epoch's
// sequence number, and holds the session lock across the whole epoch —
// admission, micro-batched solve, filter update, response — so concurrent
// epochs for one target serialize while different targets ride the same
// batches as stateless traffic. Every other step is the /v1/localize path.
func (s *Server) handleTrack(w http.ResponseWriter, r *http.Request) {
	c := s.newCall(w, r)
	defer c.end()
	wreq := &c.a.req
	if !c.decode(r, wreq) {
		return
	}
	c.seq = wreq.Seq
	if err := wreq.ValidateTrack(); err != nil {
		c.badRequest(http.StatusBadRequest, "validate", err.Error())
		return
	}
	creq, ok := c.validate(&wreq.Request)
	if !ok {
		return
	}
	// Session identity mirrors request identity: honor the client's id
	// (sanitized — deterministic, so a returning client always maps to the
	// same session) or mint a fresh one the response echoes back.
	c.session = obs.SanitizeRequestID(wreq.SessionID)
	if c.session == "" {
		c.session = obs.NewRequestID()
	}
	if !c.prepare(r, &wreq.Request) {
		return
	}

	// Session acquisition: the store returns with the session lock held, so
	// from here to the response this goroutine owns the target's timeline.
	sess, created, err := s.sessions.acquire(c.session, c.venue, time.Now())
	if err != nil {
		switch {
		case errors.Is(err, ErrSessionCapacity):
			c.turnAway(obs.RequestEvent{
				Outcome: "rejected_session_capacity", Status: http.StatusTooManyRequests,
				ErrorClass: "session_capacity", Error: err.Error(),
			}, err.Error(), s.cfg.RetryAfterFull)
		case errors.Is(err, ErrSessionVenue):
			c.badRequest(http.StatusBadRequest, "session_venue", err.Error())
		default:
			c.fail(obs.RequestEvent{DeadlineMillis: c.deadlineMs}, "session", err)
		}
		return
	}
	defer sess.mu.Unlock()
	countIf(s.met.trackStarted, created)
	s.met.trackSessions.Set(float64(s.sessions.Sessions()))
	if err := sess.claimSeq(wreq.Seq); err != nil {
		c.badRequest(http.StatusBadRequest, "track_seq", err.Error())
		return
	}

	// The tracker on the slot is what selects the prediction-shrunk
	// pipeline in the flush; everything else rides the stateless path.
	out, ok := c.submit(creq, sess.tracker, wreq.TSeconds)
	if !ok {
		return
	}
	if out.err != nil {
		// A filter rejection (bad epoch time, non-finite fix) is a client
		// error: the session survives with its state untouched and the seq
		// claimed, exactly like any other dropped epoch.
		if errors.Is(out.err, core.ErrTrackTime) || errors.Is(out.err, core.ErrTrackNonFinite) {
			c.badRequest(http.StatusBadRequest, "track_update", out.err.Error())
			return
		}
		c.fail(c.ev, "", out.err)
		return
	}
	tr := out.track
	if full := core.GridCells(creq.Bounds, creq.Step); tr.Windowed && full > 0 {
		s.met.trackWindowEff.Observe(float64(tr.Fix.Search.Evaluated()) / float64(full))
	}
	c.ev.Windowed = tr.Windowed
	c.ev.TrackFallback = tr.Fallback
	c.ev.Reacquired = tr.Track.Reacquired
	c.a.resp = TrackResponse{
		Response:       *c.response(&out),
		SessionID:      c.session,
		Seq:            wreq.Seq,
		SmoothedX:      tr.Track.Smoothed.X,
		SmoothedY:      tr.Track.Smoothed.Y,
		VelocityX:      tr.Track.Velocity.X,
		VelocityY:      tr.Track.Velocity.Y,
		NIS:            tr.Track.NIS,
		GateMiss:       tr.Track.GateMiss,
		Windowed:       tr.Windowed,
		Fallback:       tr.Fallback,
		FallbackCause:  tr.FallbackCause,
		Reacquired:     tr.Track.Reacquired,
		SearchMode:     tr.Fix.Search.Mode,
		CellsEvaluated: tr.Fix.Search.Evaluated(),
	}
	c.respond(&c.a.resp, out.res, tr.Track.Smoothed)
}
