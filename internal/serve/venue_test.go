package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"roarray/internal/obs"
	"roarray/internal/venue"
)

// serveTestManifest declares venues matching serveTestRequests' geometry and
// the smoke CSI layout (3 antennas x 8 subcarriers, 19 x 8 grids), so wire
// requests synthesized by the existing helpers are valid for every venue.
func serveTestManifest(ids ...string) *venue.Manifest {
	m := &venue.Manifest{Schema: 1}
	for _, id := range ids {
		m.Venues = append(m.Venues, venue.Spec{
			ID:   id,
			Room: venue.RoomSpec{MinX: 0, MinY: 0, MaxX: 6, MaxY: 5},
			APs: []venue.APSpec{
				{X: 0.1, Y: 2.5, AxisDeg: 90},
				{X: 5.9, Y: 2.5, AxisDeg: 90},
				{X: 3, Y: 0.1, AxisDeg: 0},
			},
			Subcarriers:         8,
			SubcarrierSpacingHz: 4e6,
			ThetaPoints:         19,
			TauPoints:           8,
			MaxIters:            60,
		})
	}
	return m
}

// TestShardedBitIdenticalSingleVenue is the pre-shard equivalence gate: the
// same requests served through a 2-shard server must reproduce the direct
// engine call bit for bit — sharding moves work between lanes, it must never
// change answers.
func TestShardedBitIdenticalSingleVenue(t *testing.T) {
	eng := serveTestEngine(t, 1)
	reqs := serveTestRequests(t, 4, 2, 910)

	direct := make([][2]float64, len(reqs))
	for i, req := range reqs {
		res, err := eng.Localize(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		direct[i] = [2]float64{res.Position.X, res.Position.Y}
	}

	srv, err := New(Config{Engine: serveTestEngine(t, 1), Shards: 2, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	for i, req := range reqs {
		status, body := postLocalize(t, ts.Client(), ts.URL, FromCore(req))
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, body)
		}
		var resp Response
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(resp.X) != math.Float64bits(direct[i][0]) ||
			math.Float64bits(resp.Y) != math.Float64bits(direct[i][1]) {
			t.Fatalf("request %d: sharded (%v,%v) != direct (%v,%v)",
				i, resp.X, resp.Y, direct[i][0], direct[i][1])
		}
	}
}

// TestVenueRoutingAndEvents drives a multi-venue server: venue requests
// succeed and stamp the venue into the wide-event log and per-venue RED
// metrics; unknown venues answer 404; venue-less requests answer 400 when no
// default engine exists.
func TestVenueRoutingAndEvents(t *testing.T) {
	reg := obs.NewRegistry()
	var evBuf bytes.Buffer
	events := obs.NewEventLog(&evBuf, 0)
	venues := venue.NewRegistry(serveTestManifest("hq", "lab"), venue.RegistryConfig{Metrics: reg})
	srv, err := New(Config{Venues: venues, Shards: 2, Metrics: reg, Events: events, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	reqs := serveTestRequests(t, 2, 2, 911)
	for i, id := range []string{"hq", "lab"} {
		wreq := FromCore(reqs[i])
		wreq.VenueID = id
		status, body := postLocalize(t, ts.Client(), ts.URL, wreq)
		if status != http.StatusOK {
			t.Fatalf("venue %s: status %d: %s", id, status, body)
		}
	}

	// Unknown venue: 404, not 500 — the client named a thing that does not
	// exist, the server did not fail. The second id carries bytes outside
	// the manifest alphabet: neither may mint per-venue metric handles (a
	// client-invented id per request would grow the registry without bound
	// and dotted ids would break roastat's metric-name parsing).
	wreq := FromCore(reqs[0])
	var status int
	var body []byte
	for _, bogus := range []string{"ghost", "e.vil id"} {
		wreq.VenueID = bogus
		status, body = postLocalize(t, ts.Client(), ts.URL, wreq)
		if status != http.StatusNotFound {
			t.Fatalf("unknown venue %q: status %d: %s", bogus, status, body)
		}
	}

	// No default engine: venue-less requests cannot be served.
	wreq.VenueID = ""
	status, body = postLocalize(t, ts.Client(), ts.URL, wreq)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "venueId required") {
		t.Fatalf("venue-less on engine-less server: status %d: %s", status, body)
	}

	srv.Drain(context.Background())
	events.Close()
	evs, err := obs.ReadRequestEvents(&evBuf)
	if err != nil {
		t.Fatal(err)
	}
	byVenue := make(map[string]int)
	unknownEvents := 0
	for _, ev := range evs {
		byVenue[ev.Venue]++
		if ev.ErrorClass == "venue_unknown" {
			unknownEvents++
			if ev.Venue != "" {
				t.Fatalf("unknown-venue event attributed to venue %q", ev.Venue)
			}
			if !strings.Contains(ev.Error, "ghost") && !strings.Contains(ev.Error, "e.vil id") {
				t.Fatalf("unknown-venue event lost the offending id: %q", ev.Error)
			}
		}
	}
	if byVenue["hq"] != 1 || byVenue["lab"] != 1 || unknownEvents != 2 {
		t.Fatalf("event venue attribution %v (unknown events %d)", byVenue, unknownEvents)
	}

	snap := reg.Snapshot()
	for _, name := range []string{
		"serve.venue.hq.requests_total",
		"serve.venue.hq.ok_total",
		"serve.venue.lab.requests_total",
	} {
		if got, _ := snap[name].(int64); got != 1 {
			t.Fatalf("%s = %v, want 1", name, snap[name])
		}
	}
	// hq and lab share one estimation shape, so the first request builds
	// its engine and the second finds it resident.
	if got, _ := snap["venue.cache.misses_total"].(int64); got != 1 {
		t.Fatalf("venue.cache.misses_total = %v, want 1 build for the shared shape", snap["venue.cache.misses_total"])
	}
	if got, _ := snap["venue.cache.hits_total"].(int64); got != 1 {
		t.Fatalf("venue.cache.hits_total = %v, want the second venue to hit", snap["venue.cache.hits_total"])
	}
	// Client-invented ids must never reach the metric namespace.
	for name := range snap {
		if strings.HasPrefix(name, "serve.venue.") &&
			!strings.HasPrefix(name, "serve.venue.hq.") && !strings.HasPrefix(name, "serve.venue.lab.") {
			t.Fatalf("bogus venue id minted metric %q", name)
		}
	}
}

// TestMixedVenueFlushBitIdentical pins that venues of one shape may share a
// micro-batch: one lane collects two hq and two lab requests into a single
// flush on their shared engine, and every answer still equals a direct
// Localize on an engine built from that venue's own spec, bit for bit.
func TestMixedVenueFlushBitIdentical(t *testing.T) {
	man := serveTestManifest("hq", "lab")
	man.Venues[1].Room = venue.RoomSpec{MaxX: 8, MaxY: 6}
	venues := venue.NewRegistry(man, venue.RegistryConfig{})
	if _, err := venues.Get(context.Background(), "hq"); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Venues: venues, BatchSize: 4, Disturb: armGate})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.Drain(context.Background()) })

	// The four requests queue up behind a parked dispatcher, so they
	// flush together once it is released.
	wedge := FromCore(serveTestRequests(t, 1, 2, 914)[0])
	wedge.VenueID = "hq"
	park, parked := parkDispatcher(t, srv, mustMarshal(t, wedge))
	reqs := serveTestRequests(t, 4, 2, 915)
	ids := []string{"hq", "lab", "hq", "lab"}
	resps := make([]Response, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wreq := FromCore(reqs[i])
		wreq.VenueID = ids[i]
		body, err := json.Marshal(wreq)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/localize", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d (%s): status %d", i, ids[i], resp.StatusCode)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&resps[i]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	waitAccepted(t, srv, int64(1+len(reqs)))
	park.open()
	decodeOK(t, "parking request", <-parked)
	wg.Wait()
	if t.Failed() {
		return
	}

	own := make(map[string]*venue.Venue)
	for _, spec := range man.Venues {
		v, err := venue.Build(spec, venue.BuildConfig{})
		if err != nil {
			t.Fatal(err)
		}
		own[spec.ID] = v
	}
	for i, req := range reqs {
		if resps[i].BatchSize != len(reqs) {
			t.Fatalf("request %d rode a batch of %d, want one flush of %d", i, resps[i].BatchSize, len(reqs))
		}
		want, err := own[ids[i]].Engine.Localize(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got := resps[i]
		if math.Float64bits(got.X) != math.Float64bits(want.Position.X) ||
			math.Float64bits(got.Y) != math.Float64bits(want.Position.Y) {
			t.Fatalf("request %d (%s): flushed (%v,%v) != direct (%v,%v)",
				i, ids[i], got.X, got.Y, want.Position.X, want.Position.Y)
		}
		for j, l := range want.Links {
			if math.Float64bits(got.Links[j].AoADeg) != math.Float64bits(l.AoADeg) {
				t.Fatalf("request %d link %d: AoA %v != direct %v", i, j, got.Links[j].AoADeg, l.AoADeg)
			}
		}
	}
}

// TestVenueIDOnSingleVenueServer pins the compatibility contract: a server
// without a registry rejects venue-tagged requests loudly instead of
// silently serving them with the wrong geometry.
func TestVenueIDOnSingleVenueServer(t *testing.T) {
	srv, err := New(Config{Engine: serveTestEngine(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	wreq := FromCore(serveTestRequests(t, 1, 2, 912)[0])
	wreq.VenueID = "hq"
	status, body := postLocalize(t, ts.Client(), ts.URL, wreq)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "single-venue") {
		t.Fatalf("status %d: %s", status, body)
	}
}

// TestColdVenueLoadSpendsRequestBudget pins the backpressure contract for
// cold venues: a request that lands on a venue whose dictionary build is
// stuck spends its own RequestTimeout waiting and answers 504 — handler
// goroutines must not pile up indefinitely behind a wedged load.
func TestColdVenueLoadSpendsRequestBudget(t *testing.T) {
	release := make(chan struct{})
	venues := venue.NewRegistry(serveTestManifest("hq"), venue.RegistryConfig{
		Build: venue.BuildConfig{Disturb: func() { <-release }},
	})
	srv, err := New(Config{Venues: venues, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The tight budget rides the request (deadlineMillis), so the follow-up
	// request below keeps the server's unbounded default.
	wreq := FromCore(serveTestRequests(t, 1, 2, 914)[0])
	wreq.VenueID = "hq"
	wreq.DeadlineMillis = 50
	start := time.Now()
	status, body := postLocalize(t, ts.Client(), ts.URL, wreq)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("stuck cold load: status %d: %s", status, body)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("504 took %v, want roughly the 50ms request budget", waited)
	}

	// Release the build; the venue must finish loading and serve.
	close(release)
	if !venues.WaitIdle(10 * time.Second) {
		t.Fatal("venue build never completed after release")
	}
	wreq.DeadlineMillis = 0
	status, body = postLocalize(t, ts.Client(), ts.URL, wreq)
	if status != http.StatusOK {
		t.Fatalf("after build completed: status %d: %s", status, body)
	}
	srv.Drain(context.Background())
}

// TestVenueSpanAttribution checks the trace stream carries the venue id on
// request spans (satellite: roastat joins show which venue served an id).
func TestVenueSpanAttribution(t *testing.T) {
	var traceBuf bytes.Buffer
	tracer := obs.NewTracer(&traceBuf)
	venues := venue.NewRegistry(serveTestManifest("hq"), venue.RegistryConfig{})
	srv, err := New(Config{Venues: venues, Tracer: tracer, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	wreq := FromCore(serveTestRequests(t, 1, 2, 913)[0])
	wreq.VenueID = "hq"
	if status, body := postLocalize(t, ts.Client(), ts.URL, wreq); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	srv.Drain(context.Background())

	evs, err := obs.ReadEvents(bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("no spans recorded")
	}
	stamped := 0
	for _, ev := range evs {
		if ev.Venue == "hq" {
			stamped++
		} else if ev.Venue != "" {
			t.Fatalf("span %s carries unexpected venue %q", ev.Name, ev.Venue)
		}
	}
	if stamped == 0 {
		t.Fatal("no span carried the venue id")
	}
}

// TestProxyRoutesByVenue drives the cross-process router against stub
// backends: same venue always lands on the same backend whichever endpoint
// it posts to, the endpoint's path is kept, headers and error statuses pass
// through untouched, and a dead backend answers 502.
func TestProxyRoutesByVenue(t *testing.T) {
	type hit struct {
		venue string
		rid   string
		path  string
	}
	mkBackend := func(hits *[]hit, status int, retryAfter string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var peek struct {
				VenueID string `json:"venueId"`
			}
			json.NewDecoder(r.Body).Decode(&peek) //nolint:errcheck
			*hits = append(*hits, hit{venue: peek.VenueID, rid: r.Header.Get("X-Request-Id"), path: r.URL.Path})
			w.Header().Set("X-Request-Id", r.Header.Get("X-Request-Id"))
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(status)
			w.Write([]byte(`{"ok":true}`)) //nolint:errcheck
		}))
	}
	var hitsA, hitsB []hit
	ba := mkBackend(&hitsA, http.StatusOK, "")
	defer ba.Close()
	bb := mkBackend(&hitsB, http.StatusTooManyRequests, "7")
	defer bb.Close()

	// Backend B is named as bare host:port, the roaserve -backends form:
	// the proxy takes it as http, and owns the same venues as its URL.
	members := []string{ba.URL, strings.TrimPrefix(bb.URL, "http://")}
	p, err := NewProxy(ProxyConfig{Backends: members, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if members[1] == bb.URL {
		t.Fatal("NewProxy rewrote the caller's backend list")
	}
	ring, err := NewRing([]string{ba.URL, bb.URL}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p)
	defer ts.Close()

	post := func(path, venueID, rid string) *http.Response {
		body := []byte(`{"venueId":"` + venueID + `"}`)
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", rid)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	paths := []string{"/v1/localize", "/v1/track"}
	for i := 0; i < 12; i++ {
		vid := []string{"hq", "lab", "warehouse"}[i%3]
		resp := post(paths[i/6], vid, "rid-"+vid)
		want := http.StatusOK
		if ring.Owner(vid) == bb.URL {
			want = http.StatusTooManyRequests
			if resp.Header.Get("Retry-After") != "7" {
				t.Fatalf("Retry-After not passed through: %q", resp.Header.Get("Retry-After"))
			}
		}
		if resp.StatusCode != want {
			t.Fatalf("venue %s: status %d, want %d", vid, resp.StatusCode, want)
		}
		if resp.Header.Get("X-Request-Id") != "rid-"+vid {
			t.Fatalf("request id not echoed: %q", resp.Header.Get("X-Request-Id"))
		}
		resp.Body.Close()
	}
	// Each endpoint reached a backend on its own path.
	byPath := map[string]int{}
	for _, hits := range [][]hit{hitsA, hitsB} {
		for _, h := range hits {
			byPath[h.path]++
		}
	}
	if len(byPath) != 2 || byPath["/v1/localize"] != 6 || byPath["/v1/track"] != 6 {
		t.Fatalf("backend hits by path %v, want 6 on each endpoint", byPath)
	}
	// Consistency: each venue's hits all landed on one backend.
	seen := make(map[string]string)
	for _, h := range hitsA {
		if prev, ok := seen[h.venue]; ok && prev != "A" {
			t.Fatalf("venue %s split across backends", h.venue)
		}
		seen[h.venue] = "A"
	}
	for _, h := range hitsB {
		if prev, ok := seen[h.venue]; ok && prev != "B" {
			t.Fatalf("venue %s split across backends", h.venue)
		}
		seen[h.venue] = "B"
	}

	// Dead backend: transport failure surfaces as 502, not a hang.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()
	p2, err := NewProxy(ProxyConfig{Backends: []string{deadURL}, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(p2)
	defer ts2.Close()
	resp, err := ts2.Client().Post(ts2.URL+"/v1/localize", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("dead backend: status %d, want 502", resp.StatusCode)
	}
}

// TestPresetNamesEnumerated pins the satellite contract: the unknown-preset
// error names every registered preset.
func TestPresetNamesEnumerated(t *testing.T) {
	names := PresetNames()
	if len(names) < 2 {
		t.Fatalf("PresetNames = %v", names)
	}
	_, err := LookupPreset("no-such-preset")
	if err == nil {
		t.Fatal("unknown preset resolved")
	}
	for _, n := range names {
		if !strings.Contains(err.Error(), `"`+n+`"`) {
			t.Fatalf("error %q does not enumerate preset %q", err, n)
		}
		if p, perr := LookupPreset(n); perr != nil || p.Name != n {
			t.Fatalf("LookupPreset(%q) = %+v, %v", n, p, perr)
		}
	}
}
