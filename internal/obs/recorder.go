package obs

import (
	"slices"
	"sync"
)

// FlightRecorder is a bounded in-memory ring of the most recent request
// events and spans — the always-on "black box" a diagnostic bundle dumps
// when a trigger fires. It reuses the wide-event and trace schemas, so a
// ring dump is byte-compatible with the JSONL streams the event log and
// tracer write, and the same request ids join across all of them.
//
// Appends copy the event value into a preallocated slot under a mutex, and
// its estimate into the ring's own storage, so the caller may reuse the
// estimate's memory once the append returns: no per-event allocation
// (pinned by an AllocsPerRun test), and the enabled-but-idle recorder
// costs a lock and a struct copy per request. A nil *FlightRecorder is the
// disabled fast path: every method no-ops, mirroring the rest of this
// package.
type FlightRecorder struct {
	mu    sync.Mutex
	reqs  []RequestEvent
	spans []SpanEvent
	// est backs the retained events' estimates: slot k's [x, y] is
	// est[2k:2k+2].
	est []float64
	// reqTotal/spanTotal are lifetime append counts; total modulo capacity
	// locates the ring head.
	reqTotal  uint64
	spanTotal uint64
}

// NewFlightRecorder returns a recorder retaining the last reqCap request
// events and spanCap spans. Non-positive capacities select 256 requests and
// 1024 spans (spans outnumber requests by the pipeline's stage fan-out).
func NewFlightRecorder(reqCap, spanCap int) *FlightRecorder {
	if reqCap <= 0 {
		reqCap = 256
	}
	if spanCap <= 0 {
		spanCap = 1024
	}
	return &FlightRecorder{
		reqs:  make([]RequestEvent, reqCap),
		spans: make([]SpanEvent, spanCap),
		est:   make([]float64, 2*reqCap),
	}
}

// RecordRequest appends one request event to the ring, overwriting the
// oldest when full; the ring keeps a copy of ev.Est, not ev.Est itself.
// Nil-safe, allocation-free for an [x, y] estimate, concurrent-safe.
func (r *FlightRecorder) RecordRequest(ev RequestEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	k := r.reqTotal % uint64(len(r.reqs))
	if ev.Est != nil {
		ev.Est = append(r.est[2*k:2*k:2*k+2], ev.Est...)
	}
	r.reqs[k] = ev
	r.reqTotal++
	r.mu.Unlock()
}

// RecordSpan appends one completed span to the ring, overwriting the oldest
// when full. Its signature matches the Tracer's Mirror hook. Nil-safe,
// allocation-free, concurrent-safe.
func (r *FlightRecorder) RecordSpan(ev SpanEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[r.spanTotal%uint64(len(r.spans))] = ev
	r.spanTotal++
	r.mu.Unlock()
}

// Requests returns the retained request events, oldest first, each with an
// estimate of its own. Records with a zero schema are stamped with the
// current RequestEventSchema so the dump round-trips through
// ReadRequestEvents. Nil returns nil.
func (r *FlightRecorder) Requests() []RequestEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := ringCopy(r.reqs, r.reqTotal)
	for i := range out {
		out[i].Est = slices.Clone(out[i].Est)
		if out[i].Schema == 0 {
			out[i].Schema = RequestEventSchema
		}
	}
	return out
}

// Spans returns the retained spans, oldest first. Nil returns nil.
func (r *FlightRecorder) Spans() []SpanEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return ringCopy(r.spans, r.spanTotal)
}

// Totals reports the lifetime append counts (requests, spans) — how much
// traffic has passed through, not how much is retained. Nil returns zeros.
func (r *FlightRecorder) Totals() (requests, spans uint64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reqTotal, r.spanTotal
}

// Bind exports the recorder's lifetime append counts into reg as gauges
// refreshed on every snapshot: obs.flight.requests_total and
// obs.flight.spans_total. Nil-safe on both sides.
func (r *FlightRecorder) Bind(reg *Registry) {
	if r == nil || reg == nil {
		return
	}
	reqs := reg.Gauge("obs.flight.requests_total")
	spans := reg.Gauge("obs.flight.spans_total")
	reg.OnSnapshot(func() {
		nr, ns := r.Totals()
		reqs.Set(float64(nr))
		spans.Set(float64(ns))
	})
}

// ringCopy extracts a ring's live records oldest-first: the ring is full once
// total >= len, at which point total%len is the oldest slot.
func ringCopy[T any](ring []T, total uint64) []T {
	n := uint64(len(ring))
	if total == 0 {
		return nil
	}
	if total <= n {
		return append([]T(nil), ring[:total]...)
	}
	head := int(total % n)
	out := make([]T, 0, n)
	out = append(out, ring[head:]...)
	out = append(out, ring[:head]...)
	return out
}
