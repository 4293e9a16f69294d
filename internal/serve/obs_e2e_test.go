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
		Engine:  eng,
		Metrics: reg,
		Tracer:  tracer,
		Events:  events,
		SLO:     slo,
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
	srv, err := New(Config{Engine: eng})
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

// TestRequestEventsOnRejection: every outcome answers the same way on
// /v1/localize and /v1/track — the same status, the same Retry-After
// advice, and a request-log record with the same outcome taxonomy the
// inspector filters on — and moves the request ledger by exactly its own
// counts: the Stats fields and their serve.* twins, the track rejections,
// the venue's RED row and the SLO window, which observes 200s, 429s and
// 5xx but not client errors. A server without Metrics keeps the same
// ledger in a private registry, so its Stats match a metered one's.
func TestRequestEventsOnRejection(t *testing.T) {
	metered := requestLedgerRun(t, obs.NewRegistry())
	plain := requestLedgerRun(t, nil)
	if plain != metered {
		t.Fatalf("Stats without Metrics %+v, metered %+v", plain, metered)
	}
}

// ledgerCounts is what one request adds to the request ledger: Stats
// (Accepted, Completed, Failed, RejectedQueueFull, RejectedDraining,
// TrackEpochs), the serve.track.rejected_{out_of_order,capacity}_total
// counters, the hq venue's ok and error counts, and the SLO's requests and
// good requests.
type ledgerCounts struct {
	acc, ok, fail, full, drn, epochs int64
	seq, cap                         int64
	vOK, vErr                        int64
	slo, sloOK                       int64
}

// add expands c into the exact change it makes to every ledger entry and
// adds it to into: each Stats count has its serve.* twin, every admitted
// request rides a batch of its own (BatchSize 1) and lands once in the e2e
// histogram — and, on /v1/track, in the track one.
func (c ledgerCounts) add(into map[string]int64, track bool) {
	fin, trackFin := c.ok+c.fail, int64(0)
	if track {
		trackFin = fin
	}
	for k, v := range map[string]int64{
		"Accepted": c.acc, "serve.accepted_total": c.acc,
		"Completed": c.ok, "serve.completed_total": c.ok,
		"Failed": c.fail, "serve.failed_total": c.fail,
		"Finished": fin, "serve.e2e.seconds": fin,
		"RejectedQueueFull": c.full, "serve.rejected_queue_full_total": c.full,
		"RejectedDraining": c.drn, "serve.rejected_draining_total": c.drn,
		"Batches": c.acc, "Batched": c.acc, "serve.batches_total": c.acc,
		"TrackEpochs": c.epochs, "serve.track.epochs_total": c.epochs,
		"serve.track.rejected_out_of_order_total": c.seq,
		"serve.track.rejected_capacity_total":     c.cap,
		"serve.venue.hq.requests_total":           c.vOK + c.vErr,
		"serve.venue.hq.ok_total":                 c.vOK,
		"serve.venue.hq.errors_total":             c.vErr,
		"slo.requests":                            c.slo,
		"slo.ok":                                  c.sloOK,
		"serve.track.e2e.seconds":                 trackFin,
	} {
		into[k] += v
	}
}

// requestLedgerRun drives every outcome through a server built on reg
// (nil: no Metrics), checks each request's answer, event and ledger
// delta, and returns the final Stats.
func requestLedgerRun(t *testing.T, reg *obs.Registry) Stats {
	t.Helper()
	eng := serveTestEngine(t, 1)
	var eventBuf obsSyncBuffer
	events := obs.NewEventLog(&eventBuf, 128)
	slo := obs.NewSLO(obs.SLOConfig{})
	venues := venue.NewRegistry(serveTestManifest("hq"), venue.RegistryConfig{})
	// One-deep queue, batches of one: a heavy solve wedges the dispatcher and
	// one more request fills the queue. One session fits, so a second one is
	// turned away; a request with a deadline is held until it expires, so it
	// fails in its batch with 504.
	srv, err := New(Config{
		Engine: eng, Venues: venues, BatchSize: 1, QueueDepth: 1, Events: events, SLO: slo,
		Metrics: reg, TrackMaxSessions: 1,
		Disturb: func(ctx context.Context) {
			if _, ok := ctx.Deadline(); ok {
				<-ctx.Done()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if reg != nil && srv.met.reg != reg {
		t.Fatal("server does not count on Config.Metrics")
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	creq := serveTestRequests(t, 1, 1, 73)[0]
	paths := []string{"/v1/localize", "/v1/track"}
	// Requests run on venue hq; tracked ones ride session "walker" unless
	// the case's track edit says otherwise.
	body := func(path string, edit func(*Request), track func(*TrackRequest)) []byte {
		wreq := FromCore(creq)
		wreq.VenueID = "hq"
		if edit != nil {
			edit(wreq)
		}
		if path == "/v1/track" {
			treq := &TrackRequest{Request: *wreq, SessionID: "walker", Seq: 1, TSeconds: 1}
			if track != nil {
				track(treq)
			}
			return mustMarshal(t, treq)
		}
		return mustMarshal(t, wreq)
	}
	epoch := func(seq int64, ts float64) func(*TrackRequest) {
		return func(r *TrackRequest) { r.Seq, r.TSeconds = seq, ts }
	}
	// status is what the client saw; evStatus is what the request log
	// recorded, and every case expects the two to agree.
	type answer struct {
		status         int
		retryAfter     bool
		outcome, class string
		evStatus       int
	}
	// Cases run in order (the walker's epochs depend on it): the sequential
	// ones, then "full" behind a wedged dispatcher, then "draining" after
	// Drain. A case with a path runs on that endpoint only.
	type ledgerCase struct {
		name   string
		path   string
		method string
		edit   func(*Request)
		track  func(*TrackRequest)
		raw    string
		want   answer
		counts ledgerCounts
	}
	cases := []ledgerCase{
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
		}, want: answer{http.StatusBadRequest, false, "bad_request", "dimension", http.StatusBadRequest},
			counts: ledgerCounts{vErr: 1}},
		{name: "venue", edit: func(r *Request) { r.VenueID = "ghost" },
			want: answer{http.StatusNotFound, false, "bad_request", "venue_unknown", http.StatusNotFound}},
		{name: "ok", path: "/v1/localize",
			want:   answer{http.StatusOK, false, "ok", "", http.StatusOK},
			counts: ledgerCounts{acc: 1, ok: 1, vOK: 1, slo: 1, sloOK: 1}},
		{name: "ok", path: "/v1/track",
			want:   answer{http.StatusOK, false, "ok", "", http.StatusOK},
			counts: ledgerCounts{acc: 1, ok: 1, epochs: 1, vOK: 1, slo: 1, sloOK: 1}},
		{name: "deadline", edit: func(r *Request) { r.DeadlineMillis = 50 }, track: epoch(2, 2),
			want:   answer{http.StatusGatewayTimeout, false, "deadline", "deadline", http.StatusGatewayTimeout},
			counts: ledgerCounts{acc: 1, fail: 1, vErr: 1, slo: 1}},
		// A stale epoch time fails the filter after the batch ran: a client
		// error, but of an admitted request.
		{name: "track_update", path: "/v1/track", track: epoch(3, 1),
			want:   answer{http.StatusBadRequest, false, "bad_request", "track_update", http.StatusBadRequest},
			counts: ledgerCounts{acc: 1, fail: 1, vErr: 1}},
		{name: "out_of_order", path: "/v1/track", track: epoch(3, 5),
			want:   answer{http.StatusBadRequest, false, "bad_request", "track_seq", http.StatusBadRequest},
			counts: ledgerCounts{seq: 1, vErr: 1}},
		{name: "capacity", path: "/v1/track", track: func(r *TrackRequest) { r.SessionID = "intruder" },
			want:   answer{http.StatusTooManyRequests, true, "rejected_session_capacity", "session_capacity", http.StatusTooManyRequests},
			counts: ledgerCounts{cap: 1, vErr: 1, slo: 1}},
		{name: "full", track: epoch(4, 6),
			want:   answer{http.StatusTooManyRequests, true, "rejected_queue_full", "", http.StatusTooManyRequests},
			counts: ledgerCounts{full: 1, vErr: 1, slo: 1}},
		{name: "draining", track: epoch(5, 7),
			want:   answer{http.StatusServiceUnavailable, true, "rejected_draining", "", http.StatusServiceUnavailable},
			counts: ledgerCounts{drn: 1, vErr: 1, slo: 1}},
	}
	// ledger reads every entry one request can move: Stats, the serve.*
	// counters and e2e histogram counts, the hq venue's RED row and the
	// SLO's 1h window.
	ledger := func() map[string]int64 {
		st, w, r := srv.Stats(), slo.Windows()[2], srv.met.reg
		m := map[string]int64{
			"Accepted": st.Accepted, "Finished": st.Finished, "Completed": st.Completed, "Failed": st.Failed,
			"RejectedQueueFull": st.RejectedQueueFull, "RejectedDraining": st.RejectedDraining,
			"Batches": st.Batches, "Batched": st.Batched, "TrackEpochs": st.TrackEpochs,
			"slo.requests": w.Total, "slo.ok": w.OK,
		}
		for _, name := range []string{
			"serve.accepted_total", "serve.completed_total", "serve.failed_total",
			"serve.rejected_queue_full_total", "serve.rejected_draining_total", "serve.batches_total",
			"serve.track.epochs_total", "serve.track.rejected_out_of_order_total",
			"serve.track.rejected_capacity_total", "serve.venue.hq.requests_total",
			"serve.venue.hq.ok_total", "serve.venue.hq.errors_total",
		} {
			m[name] = r.Counter(name).Value()
		}
		for _, name := range []string{"serve.e2e.seconds", "serve.track.e2e.seconds"} {
			m[name] = r.Histogram(name).Count()
		}
		return m
	}
	// expectDelta checks that the ledger moved from before by exactly want.
	expectDelta := func(what string, before map[string]int64, want map[string]int64) {
		t.Helper()
		after := ledger()
		if len(want) != len(after) {
			t.Fatalf("%s: ledger has %d entries, expectation %d", what, len(after), len(want))
		}
		for k, v := range after {
			if d := v - before[k]; d != want[k] {
				t.Errorf("%s: %s moved by %d, want %d", what, k, d, want[k])
			}
		}
	}
	rid := func(tc ledgerCase, path string) string { return tc.name + "-" + strings.TrimPrefix(path, "/v1/") }
	got := map[string]answer{}
	send := func(tc ledgerCase, path string, b []byte) {
		t.Helper()
		method := tc.method
		if method == "" {
			method = http.MethodPost
		}
		id := rid(tc, path)
		hreq, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("X-Request-Id", id)
		hres, err := ts.Client().Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, hres.Body) //nolint:errcheck
		hres.Body.Close()
		if echoed := hres.Header.Get("X-Request-Id"); echoed != id {
			t.Fatalf("%s: response header X-Request-Id = %q", id, echoed)
		}
		got[id] = answer{status: hres.StatusCode, retryAfter: hres.Header.Get("Retry-After") != ""}
	}
	// each runs fn on every endpoint of every case in cs, with its body.
	each := func(cs []ledgerCase, fn func(tc ledgerCase, path string, b []byte)) {
		for _, tc := range cs {
			for _, path := range paths {
				if tc.path != "" && tc.path != path {
					continue
				}
				b := []byte(tc.raw)
				if tc.raw == "" {
					b = body(path, tc.edit, tc.track)
				}
				fn(tc, path, b)
			}
		}
	}
	// alone sends one request by itself and checks its exact ledger delta.
	alone := func(tc ledgerCase, path string, b []byte) {
		before, want := ledger(), map[string]int64{}
		send(tc, path, b)
		tc.counts.add(want, path == "/v1/track")
		expectDelta(rid(tc, path), before, want)
	}
	n := len(cases)
	each(cases[:n-2], alone)

	// Queue full: wedge the dispatcher behind a heavy solve, occupy the
	// queue's only slot, then overflow on each path. The wedge and the
	// filler complete while the overflow is turned away, so the phase moves
	// the ledger by two completions and the two rejections.
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
	before := ledger()
	want := map[string]int64{}
	ledgerCounts{acc: 1, ok: 1, slo: 1, sloOK: 1}.add(want, false)         // the wedge, venue-less
	ledgerCounts{acc: 1, ok: 1, vOK: 1, slo: 1, sloOK: 1}.add(want, false) // the filler
	accepted := before["Accepted"]
	go post(mustMarshal(t, FromCore(serveTestRequests(t, 1, 96, 323)[0])))
	await(t, "wedge pickup", func() bool { return srv.Stats().Accepted == accepted+1 && srv.queuedTotal() == 0 })
	go post(body("/v1/localize", nil, nil))
	await(t, "filler admission", func() bool { return srv.Stats().Accepted == accepted+2 })
	each(cases[n-2:n-1], func(tc ledgerCase, path string, b []byte) {
		send(tc, path, b)
		tc.counts.add(want, path == "/v1/track")
	})
	for i := 0; i < 2; i++ {
		if st := <-statuses; st != http.StatusOK {
			t.Fatalf("accepted request finished with status %d", st)
		}
	}
	expectDelta("full phase", before, want)

	srv.Drain(context.Background())
	each(cases[n-1:], alone)

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
	each(cases, func(tc ledgerCase, path string, _ []byte) {
		if a := got[rid(tc, path)]; a != tc.want {
			t.Errorf("%s: got %+v, want %+v", rid(tc, path), a, tc.want)
		}
	})
	// The SLO saw the two 200s and two 504s of the cases, the wedge and the
	// filler, and the five rejections, not the client errors.
	if w := slo.Windows()[2]; w.Total != 11 || w.OK != 4 {
		t.Fatalf("SLO 1h window %+v, want 4 ok of 11", w)
	}
	return srv.Stats()
}

// TestServeObservedMatchesPlain pins non-perturbation at the serving layer:
// the same request served with the full observability stack enabled and with
// it disabled produces bit-identical positions and AoAs.
func TestServeObservedMatchesPlain(t *testing.T) {
	req := serveTestRequests(t, 1, 2, 74)[0]
	wire := FromCore(req)

	run := func(observed bool) Response {
		eng := serveTestEngine(t, 2)
		cfg := Config{Engine: eng}
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
