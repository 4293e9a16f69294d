package serve

import (
	"context"
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
	// search; Fallback that a windowed attempt was rejected (gate or edge)
	// and the full search re-ran; Reacquired that the filter re-anchored
	// after consecutive gate misses.
	Windowed   bool `json:"windowed,omitempty"`
	Fallback   bool `json:"fallback,omitempty"`
	Reacquired bool `json:"reacquired,omitempty"`
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
// batches as stateless traffic.
func (s *Server) handleTrack(w http.ResponseWriter, r *http.Request) {
	rid := obs.SanitizeRequestID(r.Header.Get("X-Request-Id"))
	if rid == "" {
		rid = obs.NewRequestID()
	}
	w.Header().Set("X-Request-Id", rid)

	venueID, sid := "", ""
	var seq int64
	badRequest := func(status int, class, msg string) {
		writeError(w, status, msg)
		s.event(obs.RequestEvent{
			ID: rid, Outcome: "bad_request", Status: status,
			ErrorClass: class, Error: msg, Venue: venueID, Session: sid, Seq: seq,
		})
	}

	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		badRequest(http.StatusMethodNotAllowed, "method", "POST only")
		return
	}
	var wreq TrackRequest
	if err := decodeBody(w, r, &wreq); err != nil {
		badRequest(http.StatusBadRequest, "decode", fmt.Sprintf("decode request: %v", err))
		return
	}
	seq = wreq.Seq
	if err := wreq.ValidateTrack(); err != nil {
		badRequest(http.StatusBadRequest, "validate", err.Error())
		return
	}
	creq, err := wreq.ToCore()
	if err != nil {
		badRequest(http.StatusBadRequest, "validate", err.Error())
		return
	}
	if s.cfg.Search != nil {
		creq.Search = s.cfg.Search
	}

	// Session identity mirrors request identity: honor the client's id
	// (sanitized — deterministic, so a returning client always maps to the
	// same session) or mint a fresh one the response echoes back.
	sid = obs.SanitizeRequestID(wreq.SessionID)
	if sid == "" {
		sid = obs.NewRequestID()
	}

	t0 := time.Now()
	rctx := obs.WithRequestID(r.Context(), rid)
	if s.cfg.Tracer != nil {
		rctx = obs.WithTracer(rctx, s.cfg.Tracer)
	}
	timeout := s.cfg.RequestTimeout
	if d := wreq.Deadline(); d > 0 && (timeout == 0 || d < timeout) {
		timeout = d
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(rctx, timeout)
		defer cancel()
	}
	deadlineMs := float64(timeout) / float64(time.Millisecond)

	rv := s.resolveEngine(rctx, wreq.VenueID)
	if rv.attribute {
		venueID = wreq.VenueID
	}
	if rv.err != nil {
		if rv.status < http.StatusInternalServerError {
			badRequest(rv.status, rv.class, rv.err.Error())
			return
		}
		outcome := "error"
		switch rv.status {
		case http.StatusGatewayTimeout:
			outcome = "deadline"
		case http.StatusServiceUnavailable:
			outcome = "canceled"
		}
		writeError(w, rv.status, rv.err.Error())
		s.cfg.SLO.Observe(false, time.Since(t0))
		s.event(obs.RequestEvent{
			ID: rid, Outcome: outcome, Status: rv.status,
			ErrorClass: rv.class, Error: rv.err.Error(), Venue: venueID,
			Session: sid, Seq: seq,
			DeadlineMillis: deadlineMs, TotalMillis: time.Since(t0).Seconds() * 1e3,
		})
		return
	}
	eng := rv.eng
	if m, l := wreq.Dims(); m != rv.antennas || l != rv.subcarriers {
		badRequest(http.StatusBadRequest, "dimension", fmt.Sprintf(
			"CSI is %dx%d (antennas x subcarriers), server is configured for %dx%d",
			m, l, rv.antennas, rv.subcarriers))
		return
	}

	rctx = obs.WithVenue(rctx, venueID)
	pctx, pcancel := context.WithCancel(rctx)
	defer pcancel()
	stop := context.AfterFunc(s.hardCtx, pcancel)
	defer stop()

	if s.cfg.Disturb != nil {
		s.cfg.Disturb(pctx)
	}

	// Session acquisition: the store returns with the session lock held, so
	// from here to the response this goroutine owns the target's timeline.
	sess, created, err := s.sessions.acquire(sid, venueID, time.Now())
	if err != nil {
		switch {
		case errors.Is(err, ErrSessionCapacity):
			if s.met != nil {
				s.met.trackCapacity.Inc()
			}
			w.Header().Set("Retry-After", s.retryAfter(s.cfg.RetryAfterFull))
			writeError(w, http.StatusTooManyRequests, err.Error())
			s.cfg.SLO.Observe(false, time.Since(t0))
			s.event(obs.RequestEvent{
				ID: rid, Outcome: "rejected_session_capacity", Status: http.StatusTooManyRequests,
				ErrorClass: "session_capacity", Error: err.Error(), Venue: venueID,
				Session: sid, Seq: seq, DeadlineMillis: deadlineMs,
			})
		case errors.Is(err, ErrSessionVenue):
			badRequest(http.StatusBadRequest, "session_venue", err.Error())
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
			s.cfg.SLO.Observe(false, time.Since(t0))
			s.event(obs.RequestEvent{
				ID: rid, Outcome: "error", Status: http.StatusInternalServerError,
				ErrorClass: "session", Error: err.Error(), Venue: venueID,
				Session: sid, Seq: seq, DeadlineMillis: deadlineMs,
			})
		}
		return
	}
	defer sess.mu.Unlock()
	if s.met != nil {
		if created {
			s.met.trackStarted.Inc()
		}
		s.met.trackSessions.Set(float64(s.sessions.Sessions()))
	}
	if err := sess.claimSeq(wreq.Seq); err != nil {
		if s.met != nil {
			s.met.trackOutOfOrd.Inc()
		}
		badRequest(http.StatusBadRequest, "track_seq", err.Error())
		return
	}

	// Admission mirrors /v1/localize: same lanes, same drain discipline,
	// same backpressure. A tracked epoch rides the same micro-batches as
	// stateless requests — the tracker on the pending slot is what selects
	// the prediction-shrunk pipeline in the flush.
	enq := time.Now()
	p := &pending{
		req: creq, eng: eng, venue: venueID, ctx: pctx,
		tracker: sess.tracker, t: wreq.TSeconds,
		done: make(chan outcome, 1), enqueued: enq,
	}
	queue := s.queues[0]
	if s.ring != nil {
		queue = s.queues[s.ring.OwnerIndex(venueID)]
	}
	s.admitMu.RLock()
	if s.draining {
		s.admitMu.RUnlock()
		s.rejectedDraining.Add(1)
		if s.met != nil {
			s.met.rejectedDrn.Inc()
		}
		w.Header().Set("Retry-After", s.retryAfter(s.cfg.RetryAfterDraining))
		writeError(w, http.StatusServiceUnavailable, "draining")
		s.cfg.SLO.Observe(false, time.Since(t0))
		s.event(obs.RequestEvent{
			ID: rid, Outcome: "rejected_draining", Status: http.StatusServiceUnavailable,
			DeadlineMillis: deadlineMs, Venue: venueID, Session: sid, Seq: seq,
		})
		return
	}
	select {
	case queue <- p:
		s.admitMu.RUnlock()
	default:
		s.admitMu.RUnlock()
		s.rejectedFull.Add(1)
		if s.met != nil {
			s.met.rejectedFull.Inc()
		}
		w.Header().Set("Retry-After", s.retryAfter(s.cfg.RetryAfterFull))
		writeError(w, http.StatusTooManyRequests, "queue full")
		s.cfg.SLO.Observe(false, time.Since(t0))
		s.event(obs.RequestEvent{
			ID: rid, Outcome: "rejected_queue_full", Status: http.StatusTooManyRequests,
			DeadlineMillis: deadlineMs, Venue: venueID, Session: sid, Seq: seq,
		})
		return
	}
	s.accepted.Add(1)
	if s.met != nil {
		s.met.accepted.Inc()
		s.met.queueDepth.Set(float64(s.queuedTotal()))
	}

	out := <-p.done
	s.finished.Add(1)
	elapsed := time.Since(t0)
	if s.met != nil {
		s.met.e2e.ObserveExemplar(elapsed.Seconds(), rid)
		s.met.trackE2E.Observe(elapsed.Seconds())
	}
	queueMs := out.dequeued.Sub(enq).Seconds() * 1e3
	if out.dequeued.IsZero() {
		queueMs = 0
	}
	ev := obs.RequestEvent{
		ID:             rid,
		Venue:          venueID,
		Session:        sid,
		Seq:            wreq.Seq,
		QueueMillis:    queueMs,
		TotalMillis:    elapsed.Seconds() * 1e3,
		DeadlineMillis: deadlineMs,
		BatchID:        out.batchID,
		BatchSize:      out.batchSize,
	}
	if out.err != nil {
		// A filter rejection (bad epoch time, non-finite fix) is a client
		// error: the session survives with its state untouched and the seq
		// claimed, exactly like any other dropped epoch.
		if errors.Is(out.err, core.ErrTrackTime) || errors.Is(out.err, core.ErrTrackNonFinite) {
			badRequest(http.StatusBadRequest, "track_update", out.err.Error())
			s.failed.Add(1)
			if s.met != nil {
				s.met.failed.Inc()
			}
			return
		}
		s.failed.Add(1)
		if s.met != nil {
			s.met.failed.Inc()
		}
		switch {
		case errors.Is(out.err, context.DeadlineExceeded):
			ev.Outcome, ev.Status = "deadline", http.StatusGatewayTimeout
		case errors.Is(out.err, context.Canceled):
			ev.Outcome, ev.Status = "canceled", http.StatusServiceUnavailable
		default:
			ev.Outcome, ev.Status = "error", http.StatusInternalServerError
		}
		ev.ErrorClass, ev.Error = ev.Outcome, out.err.Error()
		writeError(w, ev.Status, out.err.Error())
		s.cfg.SLO.Observe(false, elapsed)
		s.event(ev)
		return
	}
	s.completed.Add(1)
	s.trackEpochs.Add(1)
	if s.met != nil {
		s.met.completed.Inc()
		s.met.trackEpochs.Inc()
	}
	tr := out.track
	sess.epochs++
	if s.met != nil {
		if tr.Windowed {
			s.met.trackWindowed.Inc()
			if full := core.GridCells(creq.Bounds, creq.Step); full > 0 {
				s.met.trackWindowEff.Observe(float64(tr.Fix.Search.Evaluated()) / float64(full))
			}
		}
		if tr.Fallback {
			s.met.trackFallback.Inc()
		}
		if tr.Track.Reacquired {
			s.met.trackReacq.Inc()
		}
	}

	resp := TrackResponse{
		Response: Response{
			RequestID:   rid,
			X:           tr.Fix.Position.X,
			Y:           tr.Fix.Position.Y,
			Links:       make([]LinkResult, len(tr.Fix.Links)),
			BatchSize:   out.batchSize,
			QueueMillis: queueMs,
			TotalMillis: elapsed.Seconds() * 1e3,
		},
		SessionID:      sid,
		Seq:            wreq.Seq,
		SmoothedX:      tr.Track.Smoothed.X,
		SmoothedY:      tr.Track.Smoothed.Y,
		VelocityX:      tr.Track.Velocity.X,
		VelocityY:      tr.Track.Velocity.Y,
		NIS:            tr.Track.NIS,
		GateMiss:       tr.Track.GateMiss,
		Windowed:       tr.Windowed,
		Fallback:       tr.Fallback,
		Reacquired:     tr.Track.Reacquired,
		SearchMode:     tr.Fix.Search.Mode,
		CellsEvaluated: tr.Fix.Search.Evaluated(),
	}
	for i, lr := range tr.Fix.Links {
		resp.Links[i].AoADeg = lr.AoADeg
		resp.Links[i].Confidence = lr.Confidence
		if lr.Err != nil {
			resp.Links[i].Error = lr.Err.Error()
		}
	}
	writeJSON(w, http.StatusOK, resp)
	s.cfg.SLO.Observe(true, elapsed)

	ev.Outcome, ev.Status = "ok", http.StatusOK
	ev.SearchMode = tr.Fix.Search.Mode
	ev.CellsEvaluated = tr.Fix.Search.Evaluated()
	ev.Est = []float64{tr.Track.Smoothed.X, tr.Track.Smoothed.Y}
	ev.Windowed = tr.Windowed
	ev.TrackFallback = tr.Fallback
	ev.Reacquired = tr.Track.Reacquired
	s.event(ev)
}
