package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"roarray/internal/obs"
)

// postTrack marshals a tracking epoch and POSTs it to /v1/track.
func postTrack(t testing.TB, client *http.Client, url string, wreq *TrackRequest) (int, []byte) {
	t.Helper()
	resp, err := client.Post(url+"/v1/track", "application/json", bytes.NewReader(mustMarshal(t, wreq)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestTrackFreshSessionMatchesLocalize is the wire-level bit-identity gate:
// the first epoch of a fresh session has no prediction window, so /v1/track
// must produce the byte-identical position (and per-link AoAs) that
// /v1/localize returns for the same payload, while minting a session id and
// passing the raw fix through the filter unchanged.
func TestTrackFreshSessionMatchesLocalize(t *testing.T) {
	eng := serveTestEngine(t, 2)
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	req := serveTestRequests(t, 1, 2, 4242)[0]
	status, body := postLocalize(t, ts.Client(), ts.URL, FromCore(req))
	if status != http.StatusOK {
		t.Fatalf("localize: status %d: %s", status, body)
	}
	var stateless Response
	if err := json.Unmarshal(body, &stateless); err != nil {
		t.Fatal(err)
	}

	status, body = postTrack(t, ts.Client(), ts.URL, &TrackRequest{Request: *FromCore(req), Seq: 0, TSeconds: 0})
	if status != http.StatusOK {
		t.Fatalf("track: status %d: %s", status, body)
	}
	var tracked TrackResponse
	if err := json.Unmarshal(body, &tracked); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(tracked.X) != math.Float64bits(stateless.X) ||
		math.Float64bits(tracked.Y) != math.Float64bits(stateless.Y) {
		t.Fatalf("fresh-session fix (%v,%v) != stateless (%v,%v)", tracked.X, tracked.Y, stateless.X, stateless.Y)
	}
	for i := range stateless.Links {
		if math.Float64bits(tracked.Links[i].AoADeg) != math.Float64bits(stateless.Links[i].AoADeg) {
			t.Fatalf("link %d AoA differs: %v vs %v", i, tracked.Links[i].AoADeg, stateless.Links[i].AoADeg)
		}
	}
	if tracked.SessionID == "" {
		t.Fatal("no session id minted")
	}
	if tracked.Windowed || tracked.Fallback {
		t.Fatalf("fresh session claimed a window: %+v", tracked)
	}
	if math.Float64bits(tracked.SmoothedX) != math.Float64bits(tracked.X) ||
		math.Float64bits(tracked.SmoothedY) != math.Float64bits(tracked.Y) {
		t.Fatalf("first epoch not passed through the filter unchanged: %+v", tracked)
	}
	if st := srv.Stats(); st.TrackSessions != 1 || st.TrackEpochs != 1 {
		t.Fatalf("stats after one epoch: %+v", st)
	}
}

// TestTrackStickySessionWalk drives a walking target through a sticky
// session: the minted session id is honored across epochs, the filter
// converges onto the walk, the prediction-shrunk window engages once the
// track settles, and an out-of-order epoch is rejected without damaging the
// session.
func TestTrackStickySessionWalk(t *testing.T) {
	reg := obs.NewRegistry()
	eng := serveTestEngine(t, 2)
	srv, err := New(Config{Engine: eng, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	const epochs = 10
	reqs, truth := serveWalkRequests(t, epochs, 2, 9000)
	sid := ""
	windowed := 0
	var last TrackResponse
	for e := 0; e < epochs; e++ {
		wreq := &TrackRequest{Request: *FromCore(reqs[e]), SessionID: sid, Seq: int64(e + 1), TSeconds: float64(e)}
		status, body := postTrack(t, ts.Client(), ts.URL, wreq)
		if status != http.StatusOK {
			t.Fatalf("epoch %d: status %d: %s", e, status, body)
		}
		if err := json.Unmarshal(body, &last); err != nil {
			t.Fatal(err)
		}
		if sid == "" {
			sid = last.SessionID
		} else if last.SessionID != sid {
			t.Fatalf("epoch %d: session id drifted %q -> %q", e, sid, last.SessionID)
		}
		if last.Seq != int64(e+1) {
			t.Fatalf("epoch %d: seq echoed %d", e, last.Seq)
		}
		if last.Windowed {
			windowed++
			if last.SearchMode != "window" {
				t.Fatalf("epoch %d: windowed with mode %q", e, last.SearchMode)
			}
		}
	}
	if windowed == 0 {
		t.Fatal("prediction-shrunk window never engaged over a smooth walk")
	}
	final := truth[epochs-1]
	if d := math.Hypot(last.SmoothedX-final.X, last.SmoothedY-final.Y); d > 1.0 {
		t.Fatalf("smoothed track %0.2f m from truth after %d epochs", d, epochs)
	}
	if st := srv.Stats(); st.TrackSessions != 1 || st.TrackEpochs != epochs {
		t.Fatalf("stats: %+v", st)
	}

	// Replay the last seq: 400, session intact, and the next fresh seq works.
	wreq := &TrackRequest{Request: *FromCore(reqs[epochs-1]), SessionID: sid, Seq: epochs, TSeconds: epochs - 1}
	status, body := postTrack(t, ts.Client(), ts.URL, wreq)
	if status != http.StatusBadRequest {
		t.Fatalf("replayed seq: status %d: %s", status, body)
	}
	wreq.Seq, wreq.TSeconds = epochs+1, epochs
	status, body = postTrack(t, ts.Client(), ts.URL, wreq)
	if status != http.StatusOK {
		t.Fatalf("post-replay epoch: status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &last); err != nil {
		t.Fatal(err)
	}
	if last.Windowed {
		windowed++
	}

	snap := reg.Snapshot()
	if n, _ := snap["serve.track.rejected_out_of_order_total"].(int64); n != 1 {
		t.Errorf("serve.track.rejected_out_of_order_total = %v, want 1", snap["serve.track.rejected_out_of_order_total"])
	}
	if n, _ := snap["serve.track.windowed_total"].(int64); n != int64(windowed) {
		t.Errorf("serve.track.windowed_total = %v, want %d", snap["serve.track.windowed_total"], windowed)
	}
	if n, _ := snap["serve.track.sessions_started_total"].(int64); n != 1 {
		t.Errorf("serve.track.sessions_started_total = %v, want 1", snap["serve.track.sessions_started_total"])
	}
	if h, ok := snap["serve.track.e2e.seconds"].(obs.HistogramSnapshot); !ok || h.Count != epochs+1 {
		t.Errorf("serve.track.e2e.seconds = %+v, want %d observations", snap["serve.track.e2e.seconds"], epochs+1)
	}
}

// TestTrackOutOfOrderAndBadTime covers the 400 family: replayed seq, stale
// seq, negative seq, non-increasing epoch time (the filter's typed error
// surfaced as a client error with the session left intact, its event still
// carrying the batch it rode), and a non-finite tSeconds rejected at
// validation. It also pins the tracked ok event to the stateless one: the
// solver summary and the sanitize confidence of a burst with a dead antenna.
func TestTrackOutOfOrderAndBadTime(t *testing.T) {
	eng := serveTestEngine(t, 1)
	var eventBuf obsSyncBuffer
	events := obs.NewEventLog(&eventBuf, 64)
	srv, err := New(Config{Engine: eng, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	creq := serveTestRequests(t, 1, 1, 31)[0]
	req := FromCore(creq)
	sid := "target-7"
	ok := func(seq int64, tsec float64) {
		t.Helper()
		status, body := postTrack(t, ts.Client(), ts.URL, &TrackRequest{Request: *req, SessionID: sid, Seq: seq, TSeconds: tsec})
		if status != http.StatusOK {
			t.Fatalf("seq %d t %v: status %d: %s", seq, tsec, status, body)
		}
	}
	bad := func(seq int64, tsec float64, wantClass string) {
		t.Helper()
		status, body := postTrack(t, ts.Client(), ts.URL, &TrackRequest{Request: *req, SessionID: sid, Seq: seq, TSeconds: tsec})
		if status != http.StatusBadRequest {
			t.Fatalf("seq %d t %v (%s): status %d: %s", seq, tsec, wantClass, status, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Fatalf("seq %d: malformed error body %q", seq, body)
		}
	}

	ok(5, 0)
	bad(5, 1, "replayed seq")
	bad(4, 1, "stale seq")
	bad(-1, 1, "negative seq")
	// Non-increasing epoch time: the engine's filter rejects with its typed
	// error, the epoch's seq stays claimed, and the session keeps working
	// on the next fresh (seq, t).
	bad(6, 0, "non-increasing time")
	bad(6, 1, "seq claimed by failed epoch")
	ok(7, 1)

	// A second target does not share the first's timeline.
	status, _ := postTrack(t, ts.Client(), ts.URL, &TrackRequest{Request: *req, SessionID: "target-8", Seq: 1, TSeconds: 0})
	if status != http.StatusOK {
		t.Fatalf("independent session: status %d", status)
	}
	if st := srv.Stats(); st.TrackSessions != 2 {
		t.Fatalf("TrackSessions = %d, want 2", st.TrackSessions)
	}

	// A dead antenna on one link flags its burst: the same payload through
	// both endpoints must log the same solver summary and sanitize
	// confidence.
	dirty := FromCore(creq)
	for _, pkt := range dirty.Links[0].Packets {
		for l := range pkt.Data[0] {
			pkt.Data[0][l] = [2]float64{}
		}
	}
	if status, body := postLocalize(t, ts.Client(), ts.URL, dirty); status != http.StatusOK {
		t.Fatalf("dirty localize: status %d: %s", status, body)
	}
	if status, body := postTrack(t, ts.Client(), ts.URL, &TrackRequest{Request: *dirty, SessionID: "target-9", Seq: 1}); status != http.StatusOK {
		t.Fatalf("dirty track: status %d: %s", status, body)
	}

	events.Close()
	evs, err := obs.ReadRequestEvents(strings.NewReader(eventBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	var stateless, tracked, update *obs.RequestEvent
	for i, ev := range evs {
		switch {
		case ev.Outcome == "ok" && ev.Session == "":
			stateless = &evs[i]
		case ev.Outcome == "ok" && ev.Session == "target-9":
			tracked = &evs[i]
		case ev.ErrorClass == "track_update":
			update = &evs[i]
		}
		if ev.Outcome == "ok" && ev.Solver == "" {
			t.Errorf("ok event without a solver: %+v", ev)
		}
	}
	if stateless == nil || tracked == nil || update == nil {
		t.Fatalf("missing events: stateless %v, tracked %v, track_update %v", stateless, tracked, update)
	}
	if tracked.SanitizeConfidence <= 0 || tracked.SanitizeConfidence >= 1 {
		t.Errorf("tracked sanitize confidence %v, want the dead antenna's reduced weight", tracked.SanitizeConfidence)
	}
	if tracked.Solver != stateless.Solver || tracked.FallbackStage != stateless.FallbackStage ||
		tracked.SanitizeConfidence != stateless.SanitizeConfidence {
		t.Errorf("tracked event (solver %q, fallback %q, sanitize %v) != stateless (%q, %q, %v)",
			tracked.Solver, tracked.FallbackStage, tracked.SanitizeConfidence,
			stateless.Solver, stateless.FallbackStage, stateless.SanitizeConfidence)
	}
	if update.Outcome != "bad_request" || update.Status != http.StatusBadRequest || update.Session != sid ||
		update.QueueMillis <= 0 || update.TotalMillis <= 0 || update.BatchID <= 0 || update.BatchSize < 1 {
		t.Errorf("track_update event lost what its epoch accrued in the batch: %+v", *update)
	}
}

// TestTrackSessionCapacity429 pins the capacity gate: with 2 session slots,
// a third distinct target answers 429 with Retry-After while the existing
// sessions keep serving.
func TestTrackSessionCapacity429(t *testing.T) {
	eng := serveTestEngine(t, 1)
	srv, err := New(Config{Engine: eng, TrackMaxSessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	req := FromCore(serveTestRequests(t, 1, 1, 32)[0])
	for i, sid := range []string{"cap-a", "cap-b"} {
		status, body := postTrack(t, ts.Client(), ts.URL, &TrackRequest{Request: *req, SessionID: sid, Seq: 1, TSeconds: 0})
		if status != http.StatusOK {
			t.Fatalf("session %d: status %d: %s", i, status, body)
		}
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/track", "application/json",
		bytes.NewReader(mustMarshal(t, &TrackRequest{Request: *req, SessionID: "cap-c", Seq: 1, TSeconds: 0})))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third session: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Existing sessions still serve.
	status, body2 := postTrack(t, ts.Client(), ts.URL, &TrackRequest{Request: *req, SessionID: "cap-a", Seq: 2, TSeconds: 1})
	if status != http.StatusOK {
		t.Fatalf("existing session after capacity hit: status %d: %s", status, body2)
	}
}

// TestTrackDrainRejects pins drain discipline on the tracking surface: after
// Drain, /v1/track answers 503 + Retry-After like /v1/localize.
func TestTrackDrainRejects(t *testing.T) {
	eng := serveTestEngine(t, 1)
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	srv.Drain(context.Background())

	req := FromCore(serveTestRequests(t, 1, 1, 33)[0])
	resp, err := ts.Client().Post(ts.URL+"/v1/track", "application/json",
		bytes.NewReader(mustMarshal(t, &TrackRequest{Request: *req, Seq: 1, TSeconds: 0})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("post-drain track: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestTrackWindowedBitIdentity re-proves the windowed search at the wire:
// whenever an epoch reports Windowed, re-running the same payload through
// /v1/localize (stateless full search) must return the byte-identical
// position — the window only skips cells that provably cannot win.
func TestTrackWindowedBitIdentity(t *testing.T) {
	eng := serveTestEngine(t, 2)
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	const epochs = 8
	reqs, _ := serveWalkRequests(t, epochs, 2, 13000)
	sid := "bitid-1"
	checked := 0
	for e := 0; e < epochs; e++ {
		wire := FromCore(reqs[e])
		status, body := postTrack(t, ts.Client(), ts.URL, &TrackRequest{Request: *wire, SessionID: sid, Seq: int64(e + 1), TSeconds: float64(e)})
		if status != http.StatusOK {
			t.Fatalf("epoch %d: status %d: %s", e, status, body)
		}
		var tr TrackResponse
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatal(err)
		}
		status, body = postLocalize(t, ts.Client(), ts.URL, wire)
		if status != http.StatusOK {
			t.Fatalf("epoch %d stateless: status %d: %s", e, status, body)
		}
		var full Response
		if err := json.Unmarshal(body, &full); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(tr.X) != math.Float64bits(full.X) || math.Float64bits(tr.Y) != math.Float64bits(full.Y) {
			t.Fatalf("epoch %d (windowed=%v fallback=%v): tracked fix (%v,%v) != stateless (%v,%v)",
				e, tr.Windowed, tr.Fallback, tr.X, tr.Y, full.X, full.Y)
		}
		if tr.Windowed {
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no epoch engaged the window; bit-identity claim untested")
	}
}
