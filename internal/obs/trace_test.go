package obs

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestSpanNesting builds a three-level tree and checks the emitted events
// carry the right parent links, a shared trace id, and nested durations.
func TestSpanNesting(t *testing.T) {
	var buf bytes.Buffer
	ctx := WithTracer(context.Background(), NewTracer(&buf))

	ctx, root := StartSpan(ctx, "localize")
	cctx, child := StartSpan(ctx, "estimate.ap0")
	_, grand := StartSpan(cctx, "estimate.solve")
	grand.End()
	child.End()
	root.End()

	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	byName := map[string]SpanEvent{}
	for _, ev := range events {
		byName[ev.Name] = ev
	}
	r, c, g := byName["localize"], byName["estimate.ap0"], byName["estimate.solve"]
	if r.Parent != 0 {
		t.Fatalf("root has parent %d", r.Parent)
	}
	if c.Parent != r.Span || g.Parent != c.Span {
		t.Fatalf("parent links wrong: root=%d child.parent=%d child=%d grand.parent=%d",
			r.Span, c.Parent, c.Span, g.Parent)
	}
	if r.Trace != r.Span || c.Trace != r.Span || g.Trace != r.Span {
		t.Fatalf("trace ids not shared: %+v %+v %+v", r, c, g)
	}
	if r.DurNs < c.DurNs || c.DurNs < g.DurNs {
		t.Fatalf("durations not nested: root %d, child %d, grand %d", r.DurNs, c.DurNs, g.DurNs)
	}
}

// TestSiblingSpans: ending one child must not steal the parent from the next
// — the context, not End order, defines the tree.
func TestSiblingSpans(t *testing.T) {
	var buf bytes.Buffer
	ctx := WithTracer(context.Background(), NewTracer(&buf))
	ctx, root := StartSpan(ctx, "batch")
	_, a := StartSpan(ctx, "req0")
	a.End()
	_, b := StartSpan(ctx, "req1")
	b.End()
	root.End()
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.Name != "batch" && ev.Parent == 0 {
			t.Fatalf("sibling %q lost its parent: %+v", ev.Name, ev)
		}
	}
}

// TestNoTracerFastPath: spans on an untraced context must be nil and End
// must be safe, including the formatted variant.
func TestNoTracerFastPath(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "x")
	if sp != nil {
		t.Fatal("untraced StartSpan must return a nil span")
	}
	if ctx2 != ctx {
		t.Fatal("untraced StartSpan must not derive a new context")
	}
	sp.End() // no-op
	_, spf := StartSpanf(ctx, "estimate.ap%d", 3)
	if spf != nil {
		t.Fatal("untraced StartSpanf must return a nil span")
	}
	spf.End()
	if TracerFrom(ctx) != nil {
		t.Fatal("bare context has no tracer")
	}
}

// TestSpanEndIdempotent: a second End on a live span — one ended while a
// child it started is still open — emits nothing.
func TestSpanEndIdempotent(t *testing.T) {
	var buf bytes.Buffer
	ctx := WithTracer(context.Background(), NewTracer(&buf))
	ctx, sp := StartSpan(ctx, "once")
	_, child := StartSpan(ctx, "child")
	sp.End()
	sp.End()
	child.End()
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("double End emitted %d events with its child, want 2", len(events))
	}
}

// TestTraceRoundTrip: every field written by the tracer survives the JSONL
// decode, and StartSpanf names are formatted.
func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	ctx := WithTracer(context.Background(), NewTracer(&buf))
	ctx, root := StartSpan(ctx, "root")
	for i := 0; i < 3; i++ {
		_, sp := StartSpanf(ctx, "estimate.ap%d", i)
		sp.End()
	}
	root.End()
	events, err := ReadEvents(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4", len(events))
	}
	names := map[string]bool{}
	for _, ev := range events {
		names[ev.Name] = true
		if ev.Span == 0 || ev.StartUnixNs == 0 || ev.DurNs < 0 {
			t.Fatalf("event missing fields: %+v", ev)
		}
	}
	for _, want := range []string{"root", "estimate.ap0", "estimate.ap1", "estimate.ap2"} {
		if !names[want] {
			t.Fatalf("missing span %q in %v", want, names)
		}
	}
}

// TestSpanAllocatesNothing pins the cost of a span on the serving path,
// where the flight recorder's mirror is always installed: once the span
// pool is warm, StartSpan plus End allocates nothing under a live root, nor
// does StartSpanf with an index from the precomputed name table, nor a
// fresh root per iteration. The mirrored events keep their names, parents,
// trace ids, request id and venue.
func TestSpanAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("-race builds poison ended spans instead of pooling them")
	}
	r := NewFlightRecorder(8, 8)
	tr := NewTracer(nil)
	tr.Mirror(r.RecordSpan)
	base := WithVenue(WithRequestID(WithTracer(context.Background(), tr), "alloc-probe"), "hq")
	ctx, root := StartSpan(base, "localize")
	defer root.End()
	rootID, rootTrace := root.id, root.traceID
	if allocs := testing.AllocsPerRun(200, func() {
		_, sp := StartSpan(ctx, "localize.grid")
		sp.End()
	}); allocs != 0 {
		t.Fatalf("StartSpan+End allocates %.1f objects, want 0", allocs)
	}
	i := 5
	if allocs := testing.AllocsPerRun(200, func() {
		_, sp := StartSpanf(ctx, "estimate.ap%d", i)
		sp.End()
	}); allocs != 0 {
		t.Fatalf("StartSpanf+End allocates %.1f objects, want 0", allocs)
	}
	spans := r.Spans()
	last := spans[len(spans)-1]
	if last.Name != "estimate.ap5" || last.Parent != rootID || last.Trace != rootTrace ||
		last.Req != "alloc-probe" || last.Venue != "hq" {
		t.Fatalf("mirrored span %+v, want estimate.ap5 under root %d with req and venue", last, rootID)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		rctx, fresh := StartSpan(base, "localize")
		_, sp := StartSpan(rctx, "localize.grid")
		sp.End()
		fresh.End()
	}); allocs != 0 {
		t.Fatalf("fresh root with a child allocates %.1f objects, want 0", allocs)
	}
	spans = r.Spans()
	child, top := spans[len(spans)-2], spans[len(spans)-1]
	if top.Name != "localize" || top.Parent != 0 || top.Trace != top.Span || top.Req != "alloc-probe" ||
		child.Name != "localize.grid" || child.Parent != top.Span || child.Trace != top.Span || child.Venue != "hq" {
		t.Fatalf("mirrored root %+v with child %+v, want a fresh tree with req and venue", top, child)
	}
	// An index past the table still formats its name.
	_, sp := StartSpanf(ctx, "localize.req%d", indexedSpanNames+1)
	sp.End()
	spans = r.Spans()
	if got, want := spans[len(spans)-1].Name, fmt.Sprintf("localize.req%d", indexedSpanNames+1); got != want {
		t.Fatalf("span name %q, want %q", got, want)
	}
}

// BenchmarkStartSpan opens and ends a root span and one child under it on
// a tracer whose only sink is the flight recorder's mirror, the serving
// stack's configuration.
func BenchmarkStartSpan(b *testing.B) {
	r := NewFlightRecorder(64, 1024)
	tr := NewTracer(nil)
	tr.Mirror(r.RecordSpan)
	base := WithRequestID(WithTracer(context.Background(), tr), "bench")
	b.ReportAllocs()
	for range b.N {
		ctx, root := StartSpan(base, "localize")
		_, sp := StartSpan(ctx, "localize.grid")
		sp.End()
		root.End()
	}
}

// TestTracerConcurrent emits spans from many goroutines — run under -race —
// and checks every line still decodes (writes are line-atomic).
func TestTracerConcurrent(t *testing.T) {
	var buf syncBuffer
	tr := NewTracer(&buf)
	base := WithTracer(context.Background(), tr)
	const goroutines = 16
	const perG = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ctx, sp := StartSpanf(base, "worker%d", g)
				_, inner := StartSpan(ctx, "stage")
				inner.End()
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	events, err := ReadEvents(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != goroutines*perG*2 {
		t.Fatalf("got %d events, want %d", len(events), goroutines*perG*2)
	}
	if tr.WriteErrors() != 0 {
		t.Fatalf("tracer reported %d write errors", tr.WriteErrors())
	}
}

// TestSpanConcurrentChildren: a root ended while its children are still
// open on other goroutines, each opening and ending a grandchild, stays
// live until the last child ends; every event keeps its parent, trace and
// request id. Its value is under -race, where a span released too early
// is poisoned and a child's End through it panics.
func TestSpanConcurrentChildren(t *testing.T) {
	var buf syncBuffer
	ctx := WithRequestID(WithTracer(context.Background(), NewTracer(&buf)), "fan")
	ctx, root := StartSpan(ctx, "batch")
	const children = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range children {
		cctx, child := StartSpanf(ctx, "localize.req%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, grand := StartSpan(cctx, "localize")
			grand.End()
			child.End()
		}()
	}
	root.End()
	close(start)
	wg.Wait()
	events, err := ReadEvents(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1+2*children {
		t.Fatalf("got %d events, want %d", len(events), 1+2*children)
	}
	rootEv := events[0]
	parents := map[uint64]uint64{}
	for _, ev := range events {
		parents[ev.Span] = ev.Parent
		if ev.Trace != rootEv.Span || ev.Req != "fan" {
			t.Fatalf("event %+v left the root's trace %d or lost its request id", ev, rootEv.Span)
		}
	}
	for _, ev := range events[1:] {
		up := parents[ev.Parent]
		if (ev.Name == "localize" && up != rootEv.Span) || (ev.Name != "localize" && ev.Parent != rootEv.Span) {
			t.Fatalf("event %+v has the wrong parent", ev)
		}
	}
}

// syncBuffer serializes writes; the tracer already locks, but the test reads
// concurrently-written bytes back, so keep the buffer itself race-free too.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
