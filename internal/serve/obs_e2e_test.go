package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"roarray/internal/obs"
	"roarray/internal/venue"
)

// obsSyncBuffer is a mutex-guarded buffer for sinks written by server
// goroutines and read back by the test.
type obsSyncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *obsSyncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *obsSyncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestIDEndToEnd is the acceptance path of the request-centric
// observability layer: a client-supplied X-Request-Id must come back in the
// HTTP response (header and body) and appear in the wide-event request log,
// in at least one trace span, and as a histogram exemplar in /metrics — one
// id joining all four telemetry surfaces.
func TestRequestIDEndToEnd(t *testing.T) {
	eng := serveTestEngine(t, 2)
	req := serveTestRequests(t, 1, 2, 71)[0]

	reg := obs.NewRegistry()
	var traceBuf, eventBuf obsSyncBuffer
	tracer := obs.NewTracer(&traceBuf)
	events := obs.NewEventLog(&eventBuf, 32)
	slo := obs.NewSLO(obs.SLOConfig{LatencyObjective: 30 * time.Second, Target: 0.99})
	slo.Bind(reg)

	srv, err := New(Config{
		Engine:      eng,
		BatchLinger: time.Millisecond,
		Metrics:     reg,
		Tracer:      tracer,
		Events:      events,
		SLO:         slo,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	body, err := json.Marshal(FromCore(req))
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/localize", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Request-Id", "foo")
	hres, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	respBody, _ := io.ReadAll(hres.Body)
	hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", hres.StatusCode, respBody)
	}

	// 1. The id echoes on the response header and in the body.
	if got := hres.Header.Get("X-Request-Id"); got != "foo" {
		t.Fatalf("response header X-Request-Id = %q, want foo", got)
	}
	var resp Response
	if err := json.Unmarshal(respBody, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.RequestID != "foo" {
		t.Fatalf("response body requestId = %q, want foo", resp.RequestID)
	}

	// 2. The wide-event request log has the record, with the solve summary.
	events.Close()
	evs, err := obs.ReadRequestEvents(strings.NewReader(eventBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	var ev *obs.RequestEvent
	for i := range evs {
		if evs[i].ID == "foo" {
			ev = &evs[i]
		}
	}
	if ev == nil {
		t.Fatalf("no request event with id foo in %d events", len(evs))
	}
	if ev.Outcome != "ok" || ev.Status != http.StatusOK {
		t.Fatalf("event outcome %q status %d", ev.Outcome, ev.Status)
	}
	if ev.BatchID <= 0 || ev.BatchSize < 1 {
		t.Fatalf("event batch fields: %+v", ev)
	}
	if ev.Solver == "" {
		t.Fatal("event missing solver summary")
	}
	if ev.SearchMode == "" || ev.CellsEvaluated <= 0 {
		t.Fatalf("event missing search stats: %+v", ev)
	}
	if len(ev.Est) != 2 {
		t.Fatalf("event estimate %v, want [x y]", ev.Est)
	}
	if ev.TotalMillis <= 0 || ev.TimeUnixNs <= 0 {
		t.Fatalf("event timings: %+v", ev)
	}

	// 3. At least one trace span carries the id.
	spans, err := obs.ReadEvents(strings.NewReader(traceBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	tagged := 0
	for _, s := range spans {
		if s.Req == "foo" {
			tagged++
		}
	}
	if tagged == 0 {
		t.Fatalf("none of %d spans carry req=foo", len(spans))
	}

	// 4. /metrics exposes the id as an exemplar on the e2e latency histogram,
	// and the SLO burn-rate gauges are present.
	mts := httptest.NewServer(obs.NewMux(reg))
	defer mts.Close()
	mres, err := http.Get(mts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(mres.Body)
	mres.Body.Close()
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatalf("bad /metrics JSON: %v", err)
	}
	var hist obs.HistogramSnapshot
	if err := json.Unmarshal(snap["serve.e2e.seconds"], &hist); err != nil {
		t.Fatalf("serve.e2e.seconds: %v", err)
	}
	found := false
	for _, ex := range hist.Exemplars {
		if ex == "foo" {
			found = true
		}
	}
	if !found {
		t.Fatalf("serve.e2e.seconds exemplars %v lack foo", hist.Exemplars)
	}
	for _, g := range []string{"slo.burn_rate.availability.5m", "slo.burn_rate.latency.1h", "slo.availability.1m"} {
		if _, ok := snap[g]; !ok {
			t.Fatalf("/metrics lacks %s", g)
		}
	}
	if w := slo.Windows()[0]; w.Total != 1 || w.OK != 1 {
		t.Fatalf("SLO did not observe the request: %+v", w)
	}
}

// TestRequestIDMintedAndSanitized: without a client id the server mints one;
// a hostile header is sanitized before echoing.
func TestRequestIDMintedAndSanitized(t *testing.T) {
	eng := serveTestEngine(t, 1)
	req := serveTestRequests(t, 1, 1, 72)[0]
	srv, err := New(Config{Engine: eng, BatchLinger: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	body, _ := json.Marshal(FromCore(req))

	status, respBody := postLocalize(t, ts.Client(), ts.URL, FromCore(req))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, respBody)
	}
	var resp Response
	if err := json.Unmarshal(respBody, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.RequestID) != 16 {
		t.Fatalf("minted id %q, want 16 hex chars", resp.RequestID)
	}

	hreq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/localize", bytes.NewReader(body))
	hreq.Header.Set("X-Request-Id", "has spaces\tand tabs")
	hres, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hres.Body) //nolint:errcheck
	hres.Body.Close()
	if got := hres.Header.Get("X-Request-Id"); got != "has_spaces_and_tabs" {
		t.Fatalf("sanitized header %q", got)
	}
}

// TestRequestEventsOnRejection: client errors and admission rejections
// answer the same way on /v1/localize and /v1/track — the same status, the
// same Retry-After advice, and a request-log record with the same outcome
// taxonomy the inspector filters on — and the SLO observes the rejections
// but not the client errors.
func TestRequestEventsOnRejection(t *testing.T) {
	eng := serveTestEngine(t, 1)
	var eventBuf obsSyncBuffer
	events := obs.NewEventLog(&eventBuf, 64)
	slo := obs.NewSLO(obs.SLOConfig{})
	venues := venue.NewRegistry(serveTestManifest("hq"), venue.RegistryConfig{})
	// One-deep queue, batches of one: a heavy solve wedges the dispatcher and
	// one more request fills the queue.
	srv, err := New(Config{Engine: eng, Venues: venues, BatchSize: 1, QueueDepth: 1, Events: events, SLO: slo})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	creq := serveTestRequests(t, 1, 1, 73)[0]
	paths := []string{"/v1/localize", "/v1/track"}
	body := func(path string, edit func(*Request)) []byte {
		wreq := FromCore(creq)
		if edit != nil {
			edit(wreq)
		}
		if path == "/v1/track" {
			return mustMarshal(t, &TrackRequest{Request: *wreq, Seq: 1})
		}
		return mustMarshal(t, wreq)
	}
	// status is what the client saw; evStatus is what the request log
	// recorded, and every case expects the two to agree.
	type answer struct {
		status         int
		retryAfter     bool
		outcome, class string
		evStatus       int
	}
	cases := []struct {
		name   string
		method string
		edit   func(*Request)
		raw    string
		want   answer
	}{
		{name: "method", method: http.MethodGet,
			want: answer{http.StatusMethodNotAllowed, false, "bad_request", "method", http.StatusMethodNotAllowed}},
		{name: "decode", raw: "{junk",
			want: answer{http.StatusBadRequest, false, "bad_request", "decode", http.StatusBadRequest}},
		{name: "dimension", edit: func(r *Request) {
			for _, l := range r.Links {
				for _, p := range l.Packets {
					for m := range p.Data {
						p.Data[m] = p.Data[m][:len(p.Data[m])-1]
					}
				}
			}
		}, want: answer{http.StatusBadRequest, false, "bad_request", "dimension", http.StatusBadRequest}},
		{name: "venue", edit: func(r *Request) { r.VenueID = "ghost" },
			want: answer{http.StatusNotFound, false, "bad_request", "venue_unknown", http.StatusNotFound}},
		{name: "full", want: answer{http.StatusTooManyRequests, true, "rejected_queue_full", "", http.StatusTooManyRequests}},
		{name: "draining", want: answer{http.StatusServiceUnavailable, true, "rejected_draining", "", http.StatusServiceUnavailable}},
	}
	got := map[string]answer{}
	send := func(name, method, path string, b []byte) {
		t.Helper()
		if method == "" {
			method = http.MethodPost
		}
		rid := name + "-" + strings.TrimPrefix(path, "/v1/")
		hreq, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("X-Request-Id", rid)
		hres, err := ts.Client().Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, hres.Body) //nolint:errcheck
		hres.Body.Close()
		if echoed := hres.Header.Get("X-Request-Id"); echoed != rid {
			t.Fatalf("%s: error response header X-Request-Id = %q", rid, echoed)
		}
		got[rid] = answer{status: hres.StatusCode, retryAfter: hres.Header.Get("Retry-After") != ""}
	}

	for _, tc := range cases[:4] {
		for _, path := range paths {
			b := []byte(tc.raw)
			if tc.raw == "" {
				b = body(path, tc.edit)
			}
			send(tc.name, tc.method, path, b)
		}
	}

	// Queue full: wedge the dispatcher behind a heavy solve, occupy the
	// queue's only slot, then overflow on each path.
	await := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	statuses := make(chan int, 2)
	post := func(b []byte) {
		resp, err := ts.Client().Post(ts.URL+"/v1/localize", "application/json", bytes.NewReader(b))
		if err != nil {
			statuses <- -1
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		statuses <- resp.StatusCode
	}
	go post(mustMarshal(t, FromCore(serveTestRequests(t, 1, 96, 323)[0])))
	await("wedge pickup", func() bool { return srv.Stats().Accepted == 1 && srv.queuedTotal() == 0 })
	go post(body("/v1/localize", nil))
	await("filler admission", func() bool { return srv.Stats().Accepted == 2 })
	for _, path := range paths {
		send("full", "", path, body(path, nil))
	}
	for i := 0; i < 2; i++ {
		if st := <-statuses; st != http.StatusOK {
			t.Fatalf("accepted request finished with status %d", st)
		}
	}

	srv.Drain(context.Background())
	for _, path := range paths {
		send("draining", "", path, body(path, nil))
	}

	events.Close()
	evs, err := obs.ReadRequestEvents(strings.NewReader(eventBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if a, ok := got[ev.ID]; ok {
			a.outcome, a.class, a.evStatus = ev.Outcome, ev.ErrorClass, ev.Status
			got[ev.ID] = a
		}
	}
	for _, tc := range cases {
		for _, path := range paths {
			rid := tc.name + "-" + strings.TrimPrefix(path, "/v1/")
			if a := got[rid]; a != tc.want {
				t.Errorf("%s: got %+v, want %+v", rid, a, tc.want)
			}
		}
	}
	// The SLO saw the two accepted requests and the four rejections, not
	// the client errors.
	if w := slo.Windows()[2]; w.Total != 6 || w.OK != 2 {
		t.Fatalf("SLO 1h window %+v, want 2 ok of 6", w)
	}
}

// TestServeObservedMatchesPlain pins non-perturbation at the serving layer:
// the same request served with the full observability stack enabled and with
// it disabled produces bit-identical positions and AoAs.
func TestServeObservedMatchesPlain(t *testing.T) {
	req := serveTestRequests(t, 1, 2, 74)[0]
	wire := FromCore(req)

	run := func(observed bool) Response {
		eng := serveTestEngine(t, 2)
		cfg := Config{Engine: eng, BatchLinger: time.Millisecond}
		if observed {
			reg := obs.NewRegistry()
			cfg.Metrics = reg
			cfg.Tracer = obs.NewTracer(io.Discard)
			cfg.Events = obs.NewEventLog(io.Discard, 16)
			cfg.SLO = obs.NewSLO(obs.SLOConfig{})
			cfg.SLO.Bind(reg)
			// The self-diagnosis layer rides too: flight recorder fed by both
			// the event fan-out and the tracer mirror, runtime collector on
			// the registry. Metered must still mean bit-identical.
			cfg.Recorder = obs.NewFlightRecorder(16, 64)
			cfg.Recorder.Bind(reg)
			cfg.Tracer.Mirror(cfg.Recorder.RecordSpan)
			obs.NewRuntimeCollector(reg, time.Millisecond)
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()
		defer srv.Drain(context.Background())
		status, body := postLocalize(t, ts.Client(), ts.URL, wire)
		if status != http.StatusOK {
			t.Fatalf("observed=%v: status %d: %s", observed, status, body)
		}
		var resp Response
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	plain := run(false)
	full := run(true)
	if plain.X != full.X || plain.Y != full.Y {
		t.Fatalf("position perturbed by observability: (%v,%v) vs (%v,%v)", plain.X, plain.Y, full.X, full.Y)
	}
	for i := range plain.Links {
		if plain.Links[i].AoADeg != full.Links[i].AoADeg {
			t.Fatalf("link %d AoA perturbed: %v vs %v", i, plain.Links[i].AoADeg, full.Links[i].AoADeg)
		}
	}
}
