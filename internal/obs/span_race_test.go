//go:build race

package obs

import (
	"bytes"
	"context"
	"testing"
)

// mustPanicUsedAfterEnd fails t unless fn panics with the poisoned span's
// message.
func mustPanicUsedAfterEnd(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r != errUsedAfterEnd {
			t.Fatalf("%s after End: recovered %v, want %q", what, r, errUsedAfterEnd)
		}
	}()
	fn()
}

// TestSpanPoisonedAfterEnd: in -race builds an ended span with no open
// children is poisoned rather than pooled, so ending or querying it, or
// the context it returned, panics.
func TestSpanPoisonedAfterEnd(t *testing.T) {
	ctx := WithRequestID(WithTracer(context.Background(), NewTracer(nil)), "poison")
	sctx, sp := StartSpan(ctx, "leaf")
	sp.End()
	mustPanicUsedAfterEnd(t, "End", sp.End)
	mustPanicUsedAfterEnd(t, "Value", func() { sctx.Value(spanKey) })
	mustPanicUsedAfterEnd(t, "RequestIDFrom", func() { RequestIDFrom(sctx) })
	mustPanicUsedAfterEnd(t, "Done", func() { sctx.Done() })
	mustPanicUsedAfterEnd(t, "Err", func() { _ = sctx.Err() })
	mustPanicUsedAfterEnd(t, "StartSpan", func() { StartSpan(sctx, "late") })
}

// TestSpanParentOutlivesEnd: a parent ended before its child stays usable
// until the child ends — the child's event still reads the request id and
// parent through it — and only then is it released.
func TestSpanParentOutlivesEnd(t *testing.T) {
	var buf bytes.Buffer
	ctx := WithRequestID(WithTracer(context.Background(), NewTracer(&buf)), "outlive")
	pctx, parent := StartSpan(ctx, "parent")
	cctx, child := StartSpan(pctx, "child")
	parent.End()
	if got := RequestIDFrom(cctx); got != "outlive" {
		t.Fatalf("request id through an ended parent %q, want outlive", got)
	}
	if pctx.Value(spanKey) != parent {
		t.Fatal("an ended parent with an open child was released")
	}
	parent.End() // still live: a no-op
	child.End()
	mustPanicUsedAfterEnd(t, "parent Value", func() { pctx.Value(spanKey) })
	mustPanicUsedAfterEnd(t, "parent End", parent.End)
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	p, c := events[0], events[1]
	if p.Name != "parent" || c.Name != "child" || c.Parent != p.Span || c.Trace != p.Trace || c.Req != "outlive" {
		t.Fatalf("events %+v and %+v, want child under parent with the request id", p, c)
	}
}
