package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// SpanEvent is one completed span, as serialized to the JSONL trace stream.
// Parent is 0 for root spans; all spans of one call tree share Trace (the id
// of the tree's root span), so a stream interleaving many concurrent
// requests can be re-assembled into per-request wall-time trees.
type SpanEvent struct {
	Trace  uint64 `json:"trace"`
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Req is the request ID carried by the span's context (WithRequestID)
	// when one was set — the join key between a trace stream, the wide-event
	// request log, and histogram exemplars.
	Req string `json:"req,omitempty"`
	// Venue is the venue ID carried by the span's context (WithVenue) when
	// one was set — empty in single-venue mode, so pre-venue trace readers
	// see unchanged records.
	Venue string `json:"venue,omitempty"`
	// StartUnixNs is the span's wall-clock start (UnixNano).
	StartUnixNs int64 `json:"startNs"`
	// DurNs is the span's wall-time duration in nanoseconds.
	DurNs int64 `json:"durNs"`
}

// Tracer assigns span ids and streams completed spans as JSONL to a writer.
// It is safe for concurrent use: each event is encoded outside any lock and
// written under one, so lines never interleave. A nil *Tracer disables
// tracing (StartSpan returns a nil no-op span).
type Tracer struct {
	// mu serializes JSONL writes.
	mu     sync.Mutex
	sinks  atomic.Pointer[sinks]
	nextID atomic.Uint64
	errs   atomic.Int64
}

// sinks is where a tracer delivers ended spans: the in-process mirror and
// the JSONL writer. Mirror swaps the whole value, so ending a span reads
// both with one atomic load and takes no lock unless it writes JSON.
type sinks struct {
	mirror func(SpanEvent)
	w      io.Writer
}

// NewTracer returns a tracer streaming JSONL span events to w. A nil w is
// allowed: spans are then delivered only to the Mirror hook (no JSON is even
// encoded), which is how the flight recorder runs without a trace file.
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{}
	t.sinks.Store(&sinks{w: w})
	return t
}

// Mirror registers fn to receive every completed span event in-process, in
// addition to (and before) the JSONL stream — the flight recorder's tap
// (FlightRecorder.RecordSpan fits directly). fn must be fast and must not
// block; it runs on the goroutine ending the span. Nil-safe; a nil fn clears
// the mirror.
func (t *Tracer) Mirror(fn func(SpanEvent)) {
	if t == nil {
		return
	}
	var w io.Writer
	if old := t.sinks.Load(); old != nil {
		w = old.w
	}
	t.sinks.Store(&sinks{mirror: fn, w: w})
}

// WriteErrors reports how many span events failed to serialize or write
// (they are dropped, never propagated into the traced call).
func (t *Tracer) WriteErrors() int64 {
	if t == nil {
		return 0
	}
	return t.errs.Load()
}

func (t *Tracer) emit(ev SpanEvent) {
	sk := t.sinks.Load()
	if sk == nil {
		return
	}
	if sk.mirror != nil {
		sk.mirror(ev)
	}
	if sk.w == nil {
		return
	}
	line, err := json.Marshal(ev)
	if err != nil {
		t.errs.Add(1)
		return
	}
	line = append(line, '\n')
	t.mu.Lock()
	_, err = sk.w.Write(line)
	t.mu.Unlock()
	if err != nil {
		t.errs.Add(1)
	}
}

// Span is one live stage of a traced call. End records it; a nil *Span (the
// untraced fast path) makes End a no-op.
//
// A span is also the context its nested stages start under: it embeds the
// context it was started in and answers the span key itself. The request
// and venue ids its event carries are read from that context when the span
// ends.
//
// Spans are recycled, so opening one allocates nothing once the pool is
// warm. A span goes back to the pool only when it has ended and every span
// started under it has ended too: a span holds one reference on itself
// until End and one on its parent until it is released, so a child can
// always walk up through its parent's Value, and a long-lived root recycles
// each of its sequential children as it ends. The contract: neither a span
// nor the context StartSpan returned with it may be used after End. In
// -race builds a released span is poisoned instead of reused, so Value,
// Done, Err, Deadline or End on it panics with "span used after End".
type Span struct {
	context.Context
	tracer *Tracer
	// up is the span s was started under (nil for a root), on which s holds
	// a reference until s is released.
	up      *Span
	traceID uint64
	id      uint64
	parent  uint64
	name    string
	start   time.Time
	// refs counts what keeps s from the pool: one for s itself until End,
	// plus one per span started under s that has not been released.
	refs  atomic.Int32
	ended atomic.Bool
}

// spanPool recycles spans once they and all their descendants have ended.
var spanPool = sync.Pool{New: func() any { return new(Span) }}

// errUsedAfterEnd is the panic value of a poisoned span (-race builds).
const errUsedAfterEnd = "obs: span used after End"

// Value answers the span key with s and every other key from the context s
// was started in.
func (s *Span) Value(key any) any {
	if key == spanKey && s.tracer != nil {
		return s
	}
	return s.Context.Value(key)
}

// End completes the span and emits its event. Nil-safe, and idempotent
// while the span is live (until it and every span started under it have
// ended).
func (s *Span) End() {
	if s == nil {
		return
	}
	if s.ended.Swap(true) {
		if raceEnabled && s.tracer == nil {
			panic(errUsedAfterEnd)
		}
		return
	}
	s.tracer.emit(SpanEvent{
		Trace:       s.traceID,
		Span:        s.id,
		Parent:      s.parent,
		Name:        s.name,
		Req:         RequestIDFrom(s.Context),
		Venue:       VenueFrom(s.Context),
		StartUnixNs: s.start.UnixNano(),
		DurNs:       time.Since(s.start).Nanoseconds(),
	})
	s.release()
}

// release drops one reference on s; the last one recycles s and releases
// its parent in turn.
func (s *Span) release() {
	for s != nil && s.refs.Add(-1) == 0 {
		up := s.up
		s.recycle()
		s = up
	}
}

// recycle returns an unreferenced span to the pool, still marked ended so
// a stray second End on it does nothing until it is reused. In -race builds
// it is poisoned instead: its context panics on every call and End panics.
func (s *Span) recycle() {
	if raceEnabled {
		s.Context, s.tracer, s.up = usedAfterEnd{}, nil, nil
		return
	}
	*s = Span{}
	s.ended.Store(true)
	spanPool.Put(s)
}

// usedAfterEnd is a poisoned span's context (-race builds).
type usedAfterEnd struct{}

func (usedAfterEnd) Deadline() (time.Time, bool) { panic(errUsedAfterEnd) }
func (usedAfterEnd) Done() <-chan struct{}       { panic(errUsedAfterEnd) }
func (usedAfterEnd) Err() error                  { panic(errUsedAfterEnd) }
func (usedAfterEnd) Value(any) any               { panic(errUsedAfterEnd) }

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
)

// WithTracer returns a context that starts spans on t. Pass the result down
// the pipeline; StartSpan on a context without a tracer is a cheap no-op.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFrom returns the context's tracer, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// StartSpan opens a span named name under the context's current span (a new
// root if there is none) and returns a context carrying it as the parent for
// nested stages. Without a tracer in ctx it returns (ctx, nil) and does no
// work; the nil span's End is a no-op, so call sites need no conditionals.
// The span comes from a pool: neither it nor the returned context may be
// used after End (see Span).
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	return startSpan(ctx, t, name)
}

func startSpan(ctx context.Context, t *Tracer, name string) (context.Context, *Span) {
	id := t.nextID.Add(1)
	s := spanPool.Get().(*Span)
	s.Context, s.tracer, s.id, s.name, s.start = ctx, t, id, name, time.Now()
	s.refs.Store(1)
	s.ended.Store(false)
	if up, _ := ctx.Value(spanKey).(*Span); up != nil {
		up.refs.Add(1)
		s.up, s.parent, s.traceID = up, up.id, up.traceID
	} else {
		s.traceID = id
	}
	return s, s
}

// indexedSpanNames bounds the indices whose span names are precomputed.
const indexedSpanNames = 64

// indexedSpans holds, for each indexed span name format the pipeline opens
// once per link or per batch slot, its names for indices below
// indexedSpanNames, so naming such a span formats nothing.
var indexedSpans = map[string]*[indexedSpanNames]string{
	"estimate.ap%d":  spanNames("estimate.ap%d"),
	"localize.req%d": spanNames("localize.req%d"),
}

func spanNames(format string) *[indexedSpanNames]string {
	var names [indexedSpanNames]string
	for i := range names {
		names[i] = fmt.Sprintf(format, i)
	}
	return &names
}

// StartSpanf is StartSpan with a formatted name. The format arguments are
// only evaluated into a string when a tracer is present, keeping dynamic
// span names (e.g. "estimate.ap%d") allocation-free on the disabled path;
// the pipeline's indexed names come from a precomputed table.
func StartSpanf(ctx context.Context, format string, args ...any) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	if names := indexedSpans[format]; names != nil && len(args) == 1 {
		if i, ok := args[0].(int); ok && i >= 0 && i < len(names) {
			return startSpan(ctx, t, names[i])
		}
	}
	return startSpan(ctx, t, fmt.Sprintf(format, args...))
}

// ReadEvents decodes a JSONL span stream back into events — the round-trip
// counterpart of the Tracer's output, used by tests and offline analysis.
func ReadEvents(r io.Reader) ([]SpanEvent, error) {
	var out []SpanEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev SpanEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("obs: decode trace line %q: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: scan trace: %w", err)
	}
	return out, nil
}
