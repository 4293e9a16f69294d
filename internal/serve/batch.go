package serve

import (
	"context"
	"fmt"
	"slices"
	"time"

	"roarray/internal/core"
)

// pending is one admitted request waiting for its batch to flush.
type pending struct {
	req *core.LocalizeRequest
	// eng is the engine that will run the request (the engine of its
	// venue's shape in multi-venue mode, the server default otherwise).
	eng *core.Engine
	// venue is the venue id the request resolved to ("" for single-venue).
	venue string
	// ctx is the fully merged per-request context: HTTP request context,
	// effective deadline, and the server hard-stop.
	ctx context.Context
	// tracker, when non-nil, selects the tracked pipeline for this slot
	// (/v1/track): prediction-shrunk search with verified fallback, then a
	// filter update at epoch time t. The handler holds the session lock
	// across the whole epoch, so the tracker is never shared between
	// concurrent slots.
	tracker *core.Tracker
	t       float64
	// res and track are where the engine writes the request's result: the
	// request's arena owns them.
	res   *core.LocalizeResult
	track *core.TrackResult
	// done receives exactly one outcome; buffered so the dispatcher never
	// blocks on a handler that is slow to collect.
	done     chan outcome
	enqueued time.Time
}

// outcome is the dispatcher's answer to one pending request.
type outcome struct {
	// res is the request's result, in its arena once the engine ran it.
	res *core.LocalizeResult
	// track is the tracked-pipeline outcome; nil for stateless slots. Its
	// Fix aliases res.
	track     *core.TrackResult
	err       error
	batchSize int
	// batchID numbers the flush that carried this request (1-based, shared
	// by every member of the flush) so the request log can group batchmates.
	batchID  int64
	dequeued time.Time
}

// lane is one dispatcher's reusable state: its admission queue and the
// scratch a flush groups and answers its batch with. Only the lane's
// dispatcher goroutine touches it, apart from the answer callback, which the
// engine's workers call for distinct slots of the group being flushed.
type lane struct {
	queue chan *pending
	batch []*pending
	// grouped is the batch reordered into engine groups; ends marks where
	// each group ends in it.
	grouped []*pending
	ends    []int
	// items, group and answered describe the group in flight: its engine
	// slots, its members, and which of them the engine has answered.
	items    []core.BatchItem
	group    []*pending
	answered []bool
	batchID  int64
	dequeued time.Time
	answer   func(i int, out core.BatchOutcome)
}

// dispatch is one lane's batching goroutine (continuous batching): it blocks
// for the first queued request, takes whatever else is already queued, up to
// the batch cap, and flushes at once. Requests that queue up during a flush
// form the next batch, so an idle lane answers a lone request with no added
// wait and a busy one batches as deep as its backlog. The loop ends once
// Drain has closed the queue and everything queued before the close is
// flushed. Each lane runs its own dispatcher, so a slow flush on one lane
// never delays another.
func (s *Server) dispatch(l *lane) {
	l.answer = l.answerSlot
	for p := range l.queue {
		// The dispatcher is the queue's only receiver, so a non-empty
		// queue never blocks this receive, closed or not.
		batch := append(l.batch[:0], p)
		for len(batch) < s.cfg.BatchSize && len(l.queue) > 0 {
			batch = append(batch, <-l.queue)
		}
		l.batch = batch
		s.flush(l, batch)
	}
}

// flush answers one collected batch, grouped by engine (arrival order kept
// within each group): one batch can mix venues of different estimation
// shapes, which must never share dictionaries. Venues of one shape share an
// engine and so a group; each request carries its own geometry, so no
// answer changes. With a single engine this is one group, bit-identical.
//
// The grouping is complete before any member is answered: an answered
// member's handler may release its arena, pending included, at once.
func (s *Server) flush(l *lane, batch []*pending) {
	if len(batch) == 0 {
		return
	}
	dequeued := time.Now()
	s.met.queueDepth.Set(float64(s.queuedTotal()))
	for _, p := range batch {
		s.met.queueWait.Observe(dequeued.Sub(p.enqueued).Seconds())
	}
	l.grouped, l.ends = l.grouped[:0], l.ends[:0]
	for i, p := range batch {
		if slices.ContainsFunc(batch[:i], func(q *pending) bool { return q.eng == p.eng }) {
			continue
		}
		for _, q := range batch[i:] {
			if q.eng == p.eng {
				l.grouped = append(l.grouped, q)
			}
		}
		l.ends = append(l.ends, len(l.grouped))
	}
	start := 0
	for _, end := range l.ends {
		s.flushGroup(l, l.grouped[start:end], dequeued)
		start = end
	}
	clear(batch)
	clear(l.grouped)
}

// flushGroup runs one single-engine micro-batch and answers each member from
// the worker that finished its slot, as soon as it finishes, so no member
// waits for a slower batchmate. Members whose context already died cost
// almost nothing: the engine rejects them at entry before any estimation
// work.
func (s *Server) flushGroup(l *lane, group []*pending, dequeued time.Time) {
	l.batchID = s.met.batches.Add(1)
	l.dequeued = dequeued
	s.met.batchSize.Observe(float64(len(group)))
	l.items = l.items[:0]
	for _, p := range group {
		l.items = append(l.items, core.BatchItem{
			Req: p.req, Ctx: p.ctx, Tracker: p.tracker, T: p.t, Res: p.res, Track: p.track,
		})
	}
	l.group = group
	l.answered = grow(l.answered, len(group))
	clear(l.answered)
	s.localizeBatch(group[0].eng, l)
	clear(l.items)
}

// answerSlot sends slot i's outcome to its member. It runs on the engine
// worker that finished the slot; after the send the member is the handler's
// again, so nothing here touches it later.
func (l *lane) answerSlot(i int, out core.BatchOutcome) {
	l.answered[i] = true
	l.group[i].done <- outcome{
		res: out.Res, track: out.Track, err: out.Err,
		batchSize: len(l.group), batchID: l.batchID, dequeued: l.dequeued,
	}
}

// localizeBatch wraps the engine call so that a panic escaping the engine
// itself (not one isolated per-request inside it) still answers every
// member of the group not yet answered, instead of killing the dispatcher.
func (s *Server) localizeBatch(eng *core.Engine, l *lane) {
	defer func() {
		if rec := recover(); rec != nil {
			s.met.panics.Inc()
			err := fmt.Errorf("serve: batch flush panicked: %v", rec)
			for i, done := range l.answered {
				if !done {
					l.answer(i, core.BatchOutcome{Err: err})
				}
			}
		}
	}()
	eng.LocalizeBatchEach(s.hardCtx, l.items, l.answer)
}
