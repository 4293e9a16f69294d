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
// It is safe for concurrent use: each event is encoded and written under one
// lock, so lines never interleave. A nil *Tracer disables tracing (StartSpan
// returns a nil no-op span).
type Tracer struct {
	mu     sync.Mutex
	w      io.Writer
	mirror func(SpanEvent)
	nextID atomic.Uint64
	errs   atomic.Int64
}

// NewTracer returns a tracer streaming JSONL span events to w. A nil w is
// allowed: spans are then delivered only to the Mirror hook (no JSON is even
// encoded), which is how the flight recorder runs without a trace file.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w}
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
	t.mu.Lock()
	t.mirror = fn
	t.mu.Unlock()
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
	t.mu.Lock()
	mirror, w := t.mirror, t.w
	t.mu.Unlock()
	if mirror != nil {
		mirror(ev)
	}
	if w == nil {
		return
	}
	line, err := json.Marshal(ev)
	if err != nil {
		t.errs.Add(1)
		return
	}
	line = append(line, '\n')
	t.mu.Lock()
	_, err = w.Write(line)
	t.mu.Unlock()
	if err != nil {
		t.errs.Add(1)
	}
}

// Span is one live stage of a traced call. End records it; a nil *Span (the
// untraced fast path) makes End a no-op.
//
// A span is also the context its nested stages start under: it embeds the
// context it was started in and answers the span key itself, so opening a
// span costs one allocation. The request and venue ids its event carries
// are read from that context when the span ends.
type Span struct {
	context.Context
	tracer  *Tracer
	traceID uint64
	id      uint64
	parent  uint64
	name    string
	start   time.Time
	ended   atomic.Bool
}

// Value answers the span key with s and every other key from the context s
// was started in.
func (s *Span) Value(key any) any {
	if key == spanKey {
		return s
	}
	return s.Context.Value(key)
}

// End completes the span and emits its event. Idempotent and nil-safe.
func (s *Span) End() {
	if s == nil || s.ended.Swap(true) {
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
}

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
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	return startSpan(ctx, t, name)
}

func startSpan(ctx context.Context, t *Tracer, name string) (context.Context, *Span) {
	id := t.nextID.Add(1)
	s := &Span{Context: ctx, tracer: t, id: id, name: name, start: time.Now()}
	if parent, _ := ctx.Value(spanKey).(*Span); parent != nil {
		s.parent = parent.id
		s.traceID = parent.traceID
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
