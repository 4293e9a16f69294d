package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRequestIDMintAndSanitize(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Fatalf("two minted ids collided: %q", a)
	}
	if len(a) != 16 {
		t.Fatalf("minted id %q has length %d, want 16", a, len(a))
	}
	for _, c := range a {
		if !strings.ContainsRune("0123456789abcdef", c) {
			t.Fatalf("minted id %q is not lowercase hex", a)
		}
	}

	cases := []struct{ in, want string }{
		{"", ""},
		{"abc-123", "abc-123"},
		{"has space", "has_space"},
		{"tab\there", "tab_here"},
		{"new\nline", "new_line"},
		{strings.Repeat("x", 200), strings.Repeat("x", MaxRequestIDLen)},
	}
	for _, c := range cases {
		if got := SanitizeRequestID(c.in); got != c.want {
			t.Errorf("SanitizeRequestID(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestRequestIDContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if got := RequestIDFrom(ctx); got != "" {
		t.Fatalf("empty context yields id %q", got)
	}
	ctx2 := WithRequestID(ctx, "")
	if ctx2 != ctx {
		t.Fatal("empty id should return the context unchanged")
	}
	ctx3 := WithRequestID(ctx, "req-7")
	if got := RequestIDFrom(ctx3); got != "req-7" {
		t.Fatalf("round trip lost the id: %q", got)
	}
}

func TestSpanEventsCarryRequestID(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	ctx := WithTracer(context.Background(), tr)
	ctx = WithRequestID(ctx, "trace-me")

	ctx, root := StartSpan(ctx, "outer")
	_, child := StartSpan(ctx, "inner")
	child.End()
	root.End()

	evs, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	for _, ev := range evs {
		if ev.Req != "trace-me" {
			t.Errorf("span %q has req %q, want trace-me", ev.Name, ev.Req)
		}
	}
}

func TestEventLogRoundTrip(t *testing.T) {
	var buf syncBuffer
	l := NewEventLog(&buf, 8)
	ev := RequestEvent{
		ID: "abc", Outcome: "ok", Status: 200,
		TotalMillis: 12.5, BatchID: 3, BatchSize: 2,
		SearchMode: "coarse", CellsEvaluated: 512,
		Solver: "admm", FallbackStage: "fista",
		SanitizeConfidence: 0.6,
		Est:                []float64{1.25, -3.5},
	}
	if !l.Log(ev) {
		t.Fatal("Log dropped with an empty buffer")
	}
	l.Close()
	if l.Logged() != 1 || l.Dropped() != 0 || l.WriteErrors() != 0 {
		t.Fatalf("counters logged=%d dropped=%d errs=%d", l.Logged(), l.Dropped(), l.WriteErrors())
	}

	got, err := ReadRequestEvents(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d events, want 1", len(got))
	}
	ev.Schema = RequestEventSchema // stamped by Log
	g := got[0]
	if g.Schema != RequestEventSchema || g.ID != "abc" || g.Outcome != "ok" ||
		g.SearchMode != "coarse" || g.CellsEvaluated != 512 || g.Solver != "admm" ||
		g.FallbackStage != "fista" || g.SanitizeConfidence != 0.6 ||
		len(g.Est) != 2 || g.Est[0] != 1.25 || g.Est[1] != -3.5 {
		t.Fatalf("round trip mangled the event:\n got %+v\nwant %+v", g, ev)
	}
}

// TestDecodeRequestEventWarmFields: event lines written before the warm-start
// fields were dropped from RequestEvent still carry "warm" and
// "warmRejected". They must keep decoding, with every other field intact.
func TestDecodeRequestEventWarmFields(t *testing.T) {
	line := `{"schema":1,"id":"old-1","tNs":1700000000000000000,"outcome":"ok","status":200,` +
		`"queueMs":1.5,"totalMs":9.25,"batchId":7,"batchSize":3,"searchMode":"bnb","cells":96,` +
		`"solver":"admm","fallback":"fista","warm":true,"warmRejected":true,"sanitizeConf":0.4,"est":[7.5,4.5]}`
	ev, err := DecodeRequestEvent([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	want := RequestEvent{
		Schema: 1, ID: "old-1", TimeUnixNs: 1700000000000000000, Outcome: "ok", Status: 200,
		QueueMillis: 1.5, TotalMillis: 9.25, BatchID: 7, BatchSize: 3,
		SearchMode: "bnb", CellsEvaluated: 96, Solver: "admm", FallbackStage: "fista",
		SanitizeConfidence: 0.4, Est: []float64{7.5, 4.5},
	}
	if !reflect.DeepEqual(ev, want) {
		t.Fatalf("old-format line decoded as\n %+v\nwant\n %+v", ev, want)
	}
}

func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	if l.Log(RequestEvent{ID: "x"}) {
		t.Fatal("nil log claims to have logged")
	}
	if l.Logged() != 0 || l.Dropped() != 0 || l.WriteErrors() != 0 {
		t.Fatal("nil log has nonzero counters")
	}
	l.Close() // must not panic
}

func TestEventLogDropsUnderPressure(t *testing.T) {
	// A writer that blocks until released: the buffer fills and further
	// logs must drop, not block.
	gate := make(chan struct{})
	l := NewEventLog(writerFunc(func(p []byte) (int, error) {
		<-gate
		return len(p), nil
	}), 2)
	defer func() { close(gate); l.Close() }()

	deadline := time.Now().Add(5 * time.Second)
	dropped := false
	for i := 0; i < 64 && time.Now().Before(deadline); i++ {
		if !l.Log(RequestEvent{ID: "x", Outcome: "ok"}) {
			dropped = true
			break
		}
	}
	if !dropped {
		t.Fatal("64 logs against a depth-2 wedged writer never dropped")
	}
	if l.Dropped() == 0 {
		t.Fatal("drop counter did not move")
	}
}

func TestEventLogCloseRace(t *testing.T) {
	var buf syncBuffer
	l := NewEventLog(&buf, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Log(RequestEvent{ID: "r", Outcome: "ok"})
			}
		}()
	}
	l.Close() // races the loggers; must neither panic nor deadlock
	wg.Wait()
	if l.Logged() < 0 {
		t.Fatal("unreachable")
	}
}

func TestDecodeRequestEventSchemaGate(t *testing.T) {
	if _, err := DecodeRequestEvent([]byte(`{"schema":0,"id":"x"}`)); err == nil {
		t.Fatal("schema 0 accepted")
	}
	future, _ := json.Marshal(RequestEvent{Schema: RequestEventSchema + 1, ID: "x"})
	if _, err := DecodeRequestEvent(future); err == nil {
		t.Fatal("future schema accepted")
	}
	if _, err := DecodeRequestEvent([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadRequestEvents(strings.NewReader("\n\n")); err != nil {
		t.Fatalf("blank lines should be skipped: %v", err)
	}
}

// syncBuffer (shared with trace_test.go) is a mutex-guarded bytes.Buffer for
// the writer-goroutine + test-reader pattern.

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
