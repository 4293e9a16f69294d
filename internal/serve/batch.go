package serve

import (
	"context"
	"fmt"
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
	// done receives exactly one outcome; buffered so the dispatcher never
	// blocks on a handler that is slow to collect.
	done     chan outcome
	enqueued time.Time
}

// outcome is the dispatcher's answer to one pending request.
type outcome struct {
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

// dispatch is one lane's batching goroutine: it blocks for the first queued
// request, collects more until the batch cap or the linger deadline, flushes
// the batch through the engine(s), and repeats until the queue closes
// (Drain). Each lane runs its own dispatcher, so a slow flush on one lane
// never delays collection on another.
func (s *Server) dispatch(queue chan *pending) {
	for {
		p, ok := <-queue
		if !ok {
			return
		}
		batch, closed := s.collect(queue, p)
		s.flush(batch)
		if closed {
			// Drain closed the queue mid-collect; take whatever arrived
			// before the close and exit after flushing it.
			for q := range queue {
				s.flush(s.collectClosed(queue, q))
			}
			return
		}
	}
}

// collect grows a batch from first until it reaches the size cap, the linger
// timer fires, or the queue closes (reported via closed so dispatch can wind
// down).
func (s *Server) collect(queue chan *pending, first *pending) (batch []*pending, closed bool) {
	batch = append(batch, first)
	if s.cfg.BatchSize == 1 {
		return batch, false
	}
	linger := time.NewTimer(s.cfg.BatchLinger)
	defer linger.Stop()
	for len(batch) < s.cfg.BatchSize {
		select {
		case p, ok := <-queue:
			if !ok {
				return batch, true
			}
			batch = append(batch, p)
		case <-linger.C:
			return batch, false
		}
	}
	return batch, false
}

// collectClosed drains the already-closed queue into one final batch,
// starting from first, bounded only by the batch size cap.
func (s *Server) collectClosed(queue chan *pending, first *pending) []*pending {
	batch := []*pending{first}
	for len(batch) < s.cfg.BatchSize {
		p, ok := <-queue
		if !ok {
			break
		}
		batch = append(batch, p)
	}
	return batch
}

// flush answers one collected batch, grouped by engine (arrival order kept
// within each group): a lane can collect venues of different estimation
// shapes, which must never share dictionaries. Venues of one shape share an
// engine and so a group; each request carries its own geometry, so no
// answer changes. With a single engine this is one group, bit-identical.
func (s *Server) flush(batch []*pending) {
	if len(batch) == 0 {
		return
	}
	dequeued := time.Now()
	s.met.queueDepth.Set(float64(s.queuedTotal()))
	for _, p := range batch {
		s.met.queueWait.Observe(dequeued.Sub(p.enqueued).Seconds())
	}
	var groups [][]*pending
	idx := make(map[*core.Engine]int, 1)
	for _, p := range batch {
		g, ok := idx[p.eng]
		if !ok {
			g = len(groups)
			idx[p.eng] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], p)
	}
	for _, g := range groups {
		s.flushGroup(g, dequeued)
	}
}

// flushGroup runs one single-engine micro-batch and answers every member.
// Members whose context already died cost almost nothing: the engine rejects
// them at entry before any estimation work.
func (s *Server) flushGroup(batch []*pending, dequeued time.Time) {
	batchID := s.met.batches.Add(1)
	s.met.batchSize.Observe(float64(len(batch)))
	items := make([]core.BatchItem, len(batch))
	for i, p := range batch {
		items[i] = core.BatchItem{Req: p.req, Ctx: p.ctx, Tracker: p.tracker, T: p.t}
	}
	outs := s.localizeBatch(batch[0].eng, items)
	for i, p := range batch {
		p.done <- outcome{
			res: outs[i].Res, track: outs[i].Track, err: outs[i].Err,
			batchSize: len(batch), batchID: batchID, dequeued: dequeued,
		}
	}
}

// localizeBatch wraps the engine call so that a panic escaping the engine
// itself (not one isolated per-request inside it) still answers the whole
// batch instead of killing the dispatcher.
func (s *Server) localizeBatch(eng *core.Engine, items []core.BatchItem) (outs []core.BatchOutcome) {
	defer func() {
		if rec := recover(); rec != nil {
			s.met.panics.Inc()
			outs = make([]core.BatchOutcome, len(items))
			for i := range outs {
				outs[i].Err = fmt.Errorf("serve: batch flush panicked: %v", rec)
			}
		}
	}()
	return eng.LocalizeBatchItems(s.hardCtx, items)
}
