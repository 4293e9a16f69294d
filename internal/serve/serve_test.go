package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"roarray/internal/core"
	"roarray/internal/obs"
	"roarray/internal/sparse"
	"roarray/internal/spectra"
	"roarray/internal/wireless"
)

// serveTestOFDM is a cut-down subcarrier layout that keeps the sparse
// dictionary small enough for HTTP-level tests to hammer the server.
func serveTestOFDM() wireless.OFDM {
	return wireless.OFDM{NumSubcarriers: 8, SubcarrierSpacing: 4e6}
}

// serveTestEngine builds an engine over a small-grid estimator: 3 antennas x
// 8 subcarriers, 19 x 8 dictionary grid, capped solver iterations.
func serveTestEngine(t testing.TB, workers int) *core.Engine {
	t.Helper()
	ofdm := serveTestOFDM()
	est, err := core.NewEstimator(core.Config{
		Array:         wireless.Intel5300Array(),
		OFDM:          ofdm,
		ThetaGrid:     spectra.UniformGrid(0, 180, 19),
		TauGrid:       spectra.UniformGrid(0, ofdm.MaxToA(), 8),
		SolverOptions: []sparse.Option{sparse.WithMaxIters(60)},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(est, workers)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// serveTestRoom and serveTestAPs are the fixed geometry behind the serve
// test fixtures: a 6 m x 5 m room with 3 wall APs.
var serveTestRoom = core.Rect{MinX: 0, MinY: 0, MaxX: 6, MaxY: 5}

var serveTestAPs = []struct {
	pos  core.Point
	axis float64
}{
	{core.Point{X: 0.1, Y: 2.5}, 90},
	{core.Point{X: 5.9, Y: 2.5}, 90},
	{core.Point{X: 3, Y: 0.1}, 0},
}

// serveTestRequestAt synthesizes one request for a client at a fixed
// position, drawing burst noise and clutter from rng.
func serveTestRequestAt(t testing.TB, client core.Point, packets int, rng *rand.Rand) *core.LocalizeRequest {
	t.Helper()
	arr := wireless.Intel5300Array()
	ofdm := serveTestOFDM()
	links := make([]core.LinkInput, len(serveTestAPs))
	for i, ap := range serveTestAPs {
		dist := ap.pos.Dist(client)
		cfg := &wireless.ChannelConfig{
			Array: arr,
			OFDM:  ofdm,
			Paths: []wireless.Path{
				{AoADeg: core.ExpectedAoA(ap.pos, ap.axis, client), ToA: dist / wireless.SpeedOfLight, Gain: complex(1/dist, 0)},
				{AoADeg: 30 + 120*rng.Float64(), ToA: (dist + 3) / wireless.SpeedOfLight, Gain: complex(0.3/dist, 0)},
			},
			SNRdB:             15,
			MaxDetectionDelay: 60e-9,
		}
		burst, err := wireless.GenerateBurst(cfg, packets, rng)
		if err != nil {
			t.Fatal(err)
		}
		links[i] = core.LinkInput{Pos: ap.pos, AxisDeg: ap.axis, RSSIdBm: -50, Packets: burst}
	}
	return &core.LocalizeRequest{Links: links, Bounds: serveTestRoom, Step: 0.25}
}

// serveTestRequests synthesizes n requests over the test room, each request
// from its own seeded RNG so any subset reproduces.
func serveTestRequests(t testing.TB, n, packets int, baseSeed int64) []*core.LocalizeRequest {
	t.Helper()
	reqs := make([]*core.LocalizeRequest, n)
	for r := 0; r < n; r++ {
		rng := rand.New(rand.NewSource(baseSeed + int64(r)))
		client := core.Point{X: 1 + 4*rng.Float64(), Y: 1 + 3*rng.Float64()}
		reqs[r] = serveTestRequestAt(t, client, packets, rng)
	}
	return reqs
}

// serveWalkRequests synthesizes one request per epoch for a target walking
// a slow diagonal across the test room, 1 s per epoch. Returns the requests
// and the true position at each epoch.
func serveWalkRequests(t testing.TB, epochs, packets int, baseSeed int64) ([]*core.LocalizeRequest, []core.Point) {
	t.Helper()
	reqs := make([]*core.LocalizeRequest, epochs)
	truth := make([]core.Point, epochs)
	for e := 0; e < epochs; e++ {
		rng := rand.New(rand.NewSource(baseSeed + int64(e)))
		truth[e] = core.Point{X: 1.2 + 0.25*float64(e), Y: 1.5 + 0.15*float64(e)}
		if truth[e].X > 5 {
			truth[e].X = 5
		}
		if truth[e].Y > 4 {
			truth[e].Y = 4
		}
		reqs[e] = serveTestRequestAt(t, truth[e], packets, rng)
	}
	return reqs, truth
}

// postLocalize marshals a wire request and POSTs it.
func postLocalize(t testing.TB, client *http.Client, url string, wreq *Request) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(wreq)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url+"/v1/localize", "application/json", bytes.NewReader(body))
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

// TestWireRoundTrip pins that FromCore -> JSON -> ToCore reproduces the
// original request bit-for-bit: float64 survives Go's JSON encoding exactly,
// so the serving path cannot perturb results through the wire format.
func TestWireRoundTrip(t *testing.T) {
	req := serveTestRequests(t, 1, 2, 11)[0]
	blob, err := json.Marshal(FromCore(req))
	if err != nil {
		t.Fatal(err)
	}
	var decoded Request
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	back, err := decoded.ToCore()
	if err != nil {
		t.Fatal(err)
	}
	if back.Bounds != req.Bounds || back.Step != req.Step {
		t.Fatalf("geometry changed: %+v %v vs %+v %v", back.Bounds, back.Step, req.Bounds, req.Step)
	}
	for i, in := range req.Links {
		got := back.Links[i]
		if got.Pos != in.Pos || got.AxisDeg != in.AxisDeg || got.RSSIdBm != in.RSSIdBm {
			t.Fatalf("link %d geometry changed", i)
		}
		for p, csi := range in.Packets {
			for a := 0; a < csi.NumAntennas; a++ {
				for s := 0; s < csi.NumSubcarriers; s++ {
					if got.Packets[p].Data[a][s] != csi.Data[a][s] {
						t.Fatalf("link %d packet %d [%d][%d]: %v != %v after round trip",
							i, p, a, s, got.Packets[p].Data[a][s], csi.Data[a][s])
					}
				}
			}
		}
	}
}

// TestWireValidation exercises ToCore's rejection paths.
func TestWireValidation(t *testing.T) {
	good := FromCore(serveTestRequests(t, 1, 1, 12)[0])
	cases := []struct {
		name   string
		mutate func(*Request)
	}{
		{"one link", func(r *Request) { r.Links = r.Links[:1] }},
		{"empty room", func(r *Request) { r.Room.MaxX = r.Room.MinX }},
		{"no packets", func(r *Request) { r.Links[1].Packets = nil }},
		{"ragged packet", func(r *Request) {
			r.Links[0].Packets[0].Data[1] = r.Links[0].Packets[0].Data[1][:3]
		}},
		{"dim mismatch across links", func(r *Request) {
			r.Links[1].Packets[0].Data = r.Links[1].Packets[0].Data[:2]
		}},
		{"no antennas", func(r *Request) { r.Links[0].Packets[0].Data = nil }},
	}
	for _, tc := range cases {
		blob, err := json.Marshal(good)
		if err != nil {
			t.Fatal(err)
		}
		var r Request
		if err := json.Unmarshal(blob, &r); err != nil {
			t.Fatal(err)
		}
		tc.mutate(&r)
		if _, err := r.ToCore(); err == nil {
			t.Errorf("%s: ToCore accepted a bad request", tc.name)
		}
	}
}

// TestServeSingleRequestMatchesEngine pins the end-to-end contract: a
// request POSTed through the server produces the bit-identical position and
// per-link AoAs as calling Engine.Localize directly, and a lone client is
// answered within a batch of one.
func TestServeSingleRequestMatchesEngine(t *testing.T) {
	eng := serveTestEngine(t, 2)
	reqs := serveTestRequests(t, 2, 2, 500)

	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	for i, req := range reqs {
		want, err := eng.Localize(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		status, body := postLocalize(t, ts.Client(), ts.URL, FromCore(req))
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, body)
		}
		var resp Response
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("request %d: bad response JSON: %v\n%s", i, err, body)
		}
		if math.Float64bits(resp.X) != math.Float64bits(want.Position.X) ||
			math.Float64bits(resp.Y) != math.Float64bits(want.Position.Y) {
			t.Fatalf("request %d: served position (%v,%v) != engine (%v,%v)",
				i, resp.X, resp.Y, want.Position.X, want.Position.Y)
		}
		if len(resp.Links) != len(want.Links) {
			t.Fatalf("request %d: %d link results, want %d", i, len(resp.Links), len(want.Links))
		}
		for l, lr := range want.Links {
			if math.Float64bits(resp.Links[l].AoADeg) != math.Float64bits(lr.AoADeg) {
				t.Fatalf("request %d link %d: AoA %v != engine %v", i, l, resp.Links[l].AoADeg, lr.AoADeg)
			}
		}
		if resp.BatchSize != 1 {
			t.Fatalf("request %d: lone client reported batch size %d", i, resp.BatchSize)
		}
		if resp.TotalMillis <= 0 || resp.QueueMillis < 0 {
			t.Fatalf("request %d: nonsense timings %+v", i, resp)
		}
	}
	st := srv.Stats()
	if st.Accepted != 2 || st.Completed != 2 || st.Failed != 0 {
		t.Fatalf("stats after 2 requests: %+v", st)
	}
}

// TestServeRejectsBadRequests covers the 4xx paths: wrong method, junk
// body, semantically invalid request, and a dimension mismatch against the
// server's configured estimator.
func TestServeRejectsBadRequests(t *testing.T) {
	eng := serveTestEngine(t, 1)
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	if resp, err := ts.Client().Get(ts.URL + "/v1/localize"); err != nil {
		t.Fatal(err)
	} else if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/localize: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	resp, err := ts.Client().Post(ts.URL+"/v1/localize", "application/json", bytes.NewReader([]byte("{junk")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("junk body: status %d", resp.StatusCode)
	}

	one := FromCore(serveTestRequests(t, 1, 1, 77)[0])
	one.Links = one.Links[:1]
	status, body := postLocalize(t, ts.Client(), ts.URL, one)
	if status != http.StatusBadRequest {
		t.Fatalf("1-link request: status %d: %s", status, body)
	}

	// 2 antennas instead of the server's 3: passes ToCore (self-consistent)
	// but must fail the server's dimension check.
	short := FromCore(serveTestRequests(t, 1, 1, 78)[0])
	for l := range short.Links {
		for p := range short.Links[l].Packets {
			short.Links[l].Packets[p].Data = short.Links[l].Packets[p].Data[:2]
		}
	}
	status, body = postLocalize(t, ts.Client(), ts.URL, short)
	if status != http.StatusBadRequest || !bytes.Contains(body, []byte("antennas")) {
		t.Fatalf("wrong-dims request: status %d: %s", status, body)
	}

	if st := srv.Stats(); st.Accepted != 0 {
		t.Fatalf("bad requests were admitted: %+v", st)
	}
}

// TestServeHealthEndpoints pins /healthz (always up) and /readyz (flips to
// 503 once draining).
func TestServeHealthEndpoints(t *testing.T) {
	eng := serveTestEngine(t, 1)
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz: %d", got)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz before drain: %d", got)
	}

	srv.Drain(context.Background())

	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz after drain: %d", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain: %d, want 503", got)
	}
	// Admission after drain: 503 with Retry-After.
	resp, err := ts.Client().Post(ts.URL+"/v1/localize", "application/json",
		bytes.NewReader(mustMarshal(t, FromCore(serveTestRequests(t, 1, 1, 9)[0]))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("post-drain POST: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if st := srv.Stats(); st.RejectedDraining != 1 {
		t.Fatalf("RejectedDraining = %d, want 1", st.RejectedDraining)
	}
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServeDeadlineYields504 posts a request whose own deadline is far too
// tight to solve; the server must answer 504 promptly rather than letting
// the solve run to completion.
func TestServeDeadlineYields504(t *testing.T) {
	eng := serveTestEngine(t, 1)
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	wreq := FromCore(serveTestRequests(t, 1, 2, 44)[0])
	wreq.DeadlineMillis = 0.001
	status, body := postLocalize(t, ts.Client(), ts.URL, wreq)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", status, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Fatalf("error body malformed: %v %s", err, body)
	}
	st := srv.Stats()
	if st.Accepted != 1 || st.Failed != 1 || st.Completed != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestServeQueueFull429 wedges the dispatcher behind a deliberately heavy
// solve, fills the one-deep queue with a second request, and checks an
// overflow request bounces with 429 + Retry-After immediately instead of
// queueing.
func TestServeQueueFull429(t *testing.T) {
	eng := serveTestEngine(t, 1)
	// One-deep queue, batches of one: a single in-flight solve plus one
	// queued request is all the server will hold.
	srv, err := New(Config{Engine: eng, BatchSize: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	// Wedge: a 96-packet request keeps the dispatcher solving for well over
	// 100 ms; wait until the dispatcher has pulled it off the queue.
	wedgeBody := mustMarshal(t, FromCore(serveTestRequests(t, 1, 96, 321)[0]))
	statuses := make(chan int, 2)
	post := func(body []byte) {
		resp, err := ts.Client().Post(ts.URL+"/v1/localize", "application/json", bytes.NewReader(body))
		if err != nil {
			statuses <- -1
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		statuses <- resp.StatusCode
	}
	go post(wedgeBody)
	await(t, "wedge pickup", func() bool { return srv.Stats().Accepted == 1 && srv.queuedTotal() == 0 })

	// Filler: occupies the queue's only slot.
	fillerBody := mustMarshal(t, FromCore(serveTestRequests(t, 1, 2, 322)[0]))
	go post(fillerBody)
	await(t, "filler admission", func() bool { return srv.Stats().Accepted == 2 })

	// Overflow: dispatcher busy, queue full — must 429 right now.
	resp, err := ts.Client().Post(ts.URL+"/v1/localize", "application/json", bytes.NewReader(fillerBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Both accepted requests must still complete normally.
	for i := 0; i < 2; i++ {
		if got := <-statuses; got != http.StatusOK {
			t.Fatalf("accepted request finished with status %d", got)
		}
	}
	st := srv.Stats()
	if st.RejectedQueueFull != 1 || st.Accepted != 2 || st.Completed != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestServePanicIsolation posts a request that makes the engine panic (a
// null CSI packet slips past wire validation only by direct construction, so
// the panic is injected through a handler-level probe instead: the recovery
// middleware must turn it into a 500 and count it).
func TestServePanicIsolation(t *testing.T) {
	eng := serveTestEngine(t, 1)
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	srv.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	resp, err := ts.Client().Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !bytes.Contains(body, []byte("kaboom")) {
		t.Fatalf("panicking handler: status %d body %s", resp.StatusCode, body)
	}
	if st := srv.Stats(); st.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", st.Panics)
	}
}

// TestServeMetricsRecorded checks the obs wiring end to end: counters,
// batch-size histogram, and latency histograms all move after traffic.
func TestServeMetricsRecorded(t *testing.T) {
	reg := obs.NewRegistry()
	eng := serveTestEngine(t, 2)
	srv, err := New(Config{Engine: eng, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	status, body := postLocalize(t, ts.Client(), ts.URL, FromCore(serveTestRequests(t, 1, 2, 55)[0]))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	srv.Drain(context.Background())

	snap := reg.Snapshot()
	for _, name := range []string{
		"serve.accepted_total", "serve.completed_total", "serve.batches_total",
	} {
		c, ok := snap[name].(int64)
		if !ok || c != 1 {
			t.Errorf("%s = %v (%T), want 1", name, snap[name], snap[name])
		}
	}
	for _, name := range []string{"serve.batch_size", "serve.queue_wait.seconds", "serve.e2e.seconds"} {
		h, ok := snap[name].(obs.HistogramSnapshot)
		if !ok || h.Count != 1 {
			t.Errorf("%s = %+v, want 1 observation", name, snap[name])
		}
	}
}

// TestDrainIdempotent pins that a second Drain is safe and reports no
// pending work.
func TestDrainIdempotent(t *testing.T) {
	eng := serveTestEngine(t, 1)
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	first := srv.Drain(context.Background())
	if first.Forced || first.Pending != 0 {
		t.Fatalf("first drain: %+v", first)
	}
	second := srv.Drain(context.Background())
	if second.Forced || second.Pending != 0 {
		t.Fatalf("second drain: %+v", second)
	}
}

// TestNewRejectsNilEngine pins config validation.
func TestNewRejectsNilEngine(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil engine")
	}
}

// TestServeForcedDrainCancelsInflight starts slow work, drains with an
// already-expired context, and checks the drain is forced, returns quickly,
// and the in-flight request still gets exactly one (error) response wrapping
// a context error.
func TestServeForcedDrainCancelsInflight(t *testing.T) {
	eng := serveTestEngine(t, 1)
	srv, err := New(Config{Engine: eng, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A large burst makes per-link estimation slow enough to straddle the
	// drain reliably.
	big := FromCore(serveTestRequests(t, 1, 24, 987)[0])
	done := make(chan int, 1)
	go func() {
		status, _ := postLocalize(t, ts.Client(), ts.URL, big)
		done <- status
	}()
	// Wait for admission.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Accepted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := srv.Drain(ctx)
	if !rep.Forced {
		t.Fatalf("drain not forced: %+v", rep)
	}
	select {
	case status := <-done:
		// The request must have been answered with a context-flavored error
		// status (or completed, if the solve won the race).
		if status != http.StatusOK && status != http.StatusServiceUnavailable && status != http.StatusGatewayTimeout {
			t.Fatalf("in-flight request answered %d", status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never answered after forced drain")
	}
	if st := srv.Stats(); st.Finished != st.Accepted {
		t.Fatalf("accepted %d but finished %d after forced drain", st.Accepted, st.Finished)
	}
}
