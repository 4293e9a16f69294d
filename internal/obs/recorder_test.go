package obs

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

func TestFlightRecorderRoundTrip(t *testing.T) {
	r := NewFlightRecorder(4, 4)
	for i := 0; i < 3; i++ {
		r.RecordRequest(RequestEvent{ID: fmt.Sprintf("req-%d", i), Outcome: "ok", Status: 200})
		r.RecordSpan(SpanEvent{Trace: uint64(i + 1), Span: uint64(i + 1), Name: "serve.request", Req: fmt.Sprintf("req-%d", i)})
	}
	reqs := r.Requests()
	if len(reqs) != 3 {
		t.Fatalf("got %d requests, want 3", len(reqs))
	}
	for i, ev := range reqs {
		if ev.ID != fmt.Sprintf("req-%d", i) {
			t.Fatalf("request %d id %q (order broken)", i, ev.ID)
		}
		// The dump must round-trip through the wide-event decoder, which
		// rejects schema 0 — Requests stamps it.
		if ev.Schema != RequestEventSchema {
			t.Fatalf("request %d schema %d", i, ev.Schema)
		}
	}
	if spans := r.Spans(); len(spans) != 3 || spans[0].Req != "req-0" {
		t.Fatalf("spans %+v", spans)
	}
	nr, ns := r.Totals()
	if nr != 3 || ns != 3 {
		t.Fatalf("totals %d/%d", nr, ns)
	}
}

func TestFlightRecorderWrapsOldestFirst(t *testing.T) {
	r := NewFlightRecorder(3, 3)
	for i := 0; i < 7; i++ {
		r.RecordRequest(RequestEvent{ID: fmt.Sprintf("r%d", i)})
	}
	got := r.Requests()
	if len(got) != 3 {
		t.Fatalf("retained %d, want capacity 3", len(got))
	}
	for i, want := range []string{"r4", "r5", "r6"} {
		if got[i].ID != want {
			t.Fatalf("slot %d = %q, want %q (oldest-first after wrap)", i, got[i].ID, want)
		}
	}
	if nr, _ := r.Totals(); nr != 7 {
		t.Fatalf("lifetime total %d, want 7", nr)
	}
}

func TestFlightRecorderDefaultsAndNil(t *testing.T) {
	r := NewFlightRecorder(0, 0)
	if len(r.reqs) != 256 || len(r.spans) != 1024 {
		t.Fatalf("default capacities %d/%d", len(r.reqs), len(r.spans))
	}
	var nilRec *FlightRecorder
	nilRec.RecordRequest(RequestEvent{ID: "x"})
	nilRec.RecordSpan(SpanEvent{})
	if nilRec.Requests() != nil || nilRec.Spans() != nil {
		t.Fatal("nil recorder returned records")
	}
	nilRec.Bind(NewRegistry())
}

func TestFlightRecorderBind(t *testing.T) {
	reg := NewRegistry()
	r := NewFlightRecorder(8, 8)
	r.Bind(reg)
	r.RecordRequest(RequestEvent{ID: "a"})
	r.RecordSpan(SpanEvent{Span: 1})
	r.RecordSpan(SpanEvent{Span: 2})
	snap := reg.Snapshot()
	if got := snap["obs.flight.requests_total"].(float64); got != 1 {
		t.Fatalf("obs.flight.requests_total = %v", got)
	}
	if got := snap["obs.flight.spans_total"].(float64); got != 2 {
		t.Fatalf("obs.flight.spans_total = %v", got)
	}
}

// TestFlightRecorderAppendAllocs is the allocation budget gate for the
// enabled flight-recorder hot path: appending to the ring must not allocate
// anything beyond the event the caller already built — the ring slot is a
// preallocated value, so a record is a mutex and a struct copy.
func TestFlightRecorderAppendAllocs(t *testing.T) {
	r := NewFlightRecorder(64, 64)
	ev := RequestEvent{
		ID: "alloc-probe", Outcome: "ok", Status: 200,
		TotalMillis: 12.5, BatchID: 3, BatchSize: 4,
		Solver: "admm", Est: []float64{1, 2},
	}
	sp := SpanEvent{Trace: 1, Span: 2, Name: "core.solve", Req: "alloc-probe"}
	if allocs := testing.AllocsPerRun(200, func() { r.RecordRequest(ev) }); allocs != 0 {
		t.Fatalf("RecordRequest allocates %.1f objects per event, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { r.RecordSpan(sp) }); allocs != 0 {
		t.Fatalf("RecordSpan allocates %.1f objects per event, want 0", allocs)
	}
}

// TestFlightRecorderOwnsEstimates: the ring keeps a copy of each event's
// estimate, so the caller may reuse its memory once RecordRequest returns,
// and every Requests result has estimates of its own.
func TestFlightRecorderOwnsEstimates(t *testing.T) {
	r := NewFlightRecorder(2, 2)
	est := []float64{1, 2}
	r.RecordRequest(RequestEvent{ID: "a", Est: est})
	r.RecordRequest(RequestEvent{ID: "b"})
	est[0], est[1] = -1, -1
	got := r.Requests()
	if len(got) != 2 || len(got[0].Est) != 2 || got[0].Est[0] != 1 || got[0].Est[1] != 2 || got[1].Est != nil {
		t.Fatalf("ring after the caller reused its estimate: %+v", got)
	}
	got[0].Est[0] = -2
	if again := r.Requests(); again[0].Est[0] != 1 {
		t.Fatalf("a Requests result shares the ring's estimate: %v", again[0].Est)
	}
	r.RecordRequest(RequestEvent{ID: "c", Est: []float64{3, 4}}) // overwrites "a"'s slot
	if got := r.Requests(); got[0].ID != "b" || got[1].Est[0] != 3 || got[1].Est[1] != 4 {
		t.Fatalf("ring after wrapping: %+v", got)
	}
}

// TestTracerMirrorFeedsRecorder: a tracer with a nil writer and a recorder
// mirror delivers spans to the ring without encoding any JSON.
func TestTracerMirrorFeedsRecorder(t *testing.T) {
	r := NewFlightRecorder(8, 8)
	tr := NewTracer(nil)
	tr.Mirror(r.RecordSpan)

	ctx := WithTracer(WithRequestID(context.Background(), "mirrored"), tr)
	ctx, root := StartSpan(ctx, "outer")
	_, inner := StartSpan(ctx, "inner")
	inner.End()
	root.End()

	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("%d spans mirrored, want 2", len(spans))
	}
	for _, s := range spans {
		if s.Req != "mirrored" {
			t.Fatalf("span %q lost its request id: %+v", s.Name, s)
		}
	}
	if spans[0].Name != "inner" || spans[1].Name != "outer" {
		t.Fatalf("mirror order %q,%q (spans end inner-first)", spans[0].Name, spans[1].Name)
	}
	if tr.WriteErrors() != 0 {
		t.Fatalf("nil-writer tracer counted %d write errors", tr.WriteErrors())
	}
}

// TestTracerMirrorTees: with both a writer and a mirror, spans reach both.
func TestTracerMirrorTees(t *testing.T) {
	var buf strings.Builder
	r := NewFlightRecorder(8, 8)
	tr := NewTracer(&buf)
	tr.Mirror(r.RecordSpan)
	_, sp := StartSpan(WithTracer(context.Background(), tr), "teed")
	sp.End()
	if len(r.Spans()) != 1 {
		t.Fatal("mirror missed the span")
	}
	if !strings.Contains(buf.String(), `"name":"teed"`) {
		t.Fatalf("JSONL stream missed the span: %q", buf.String())
	}
}
