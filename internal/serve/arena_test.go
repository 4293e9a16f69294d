package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"roarray/internal/core"
	"roarray/internal/obs"
	"roarray/internal/wireless"
)

// scribble overwrites every buffer of a released arena, so anything still
// pointing into it after the reply reads garbage.
func scribble(a *arena) {
	fill(a.body.Bytes(), 'x')
	fill(a.out.buf.Bytes(), 'x')
	nan := math.NaN()
	fill(a.wire.vals[:cap(a.wire.vals)], [2]float64{nan, nan})
	fill(a.csi.vals[:cap(a.csi.vals)], complex(nan, nan))
	fill(a.csi.csis[:cap(a.csi.csis)], wireless.CSI{NumAntennas: -1, NumSubcarriers: -1})
	fill(a.csi.links[:cap(a.csi.links)], core.LinkInput{RSSIdBm: nan})
	fill(a.wire.links[:cap(a.wire.links)], Link{X: nan})
	fill(a.links[:cap(a.links)], LinkResult{AoADeg: nan, Error: "scribbled"})
	a.csi.req = core.LocalizeRequest{Step: nan}
	fill(a.res.Links[:cap(a.res.Links)], core.LinkResult{
		AoADeg: nan, Confidence: nan, Err: errors.New("scribbled"), Sanitize: &core.BurstReport{Repaired: -1},
	})
	a.res.Position, a.res.Search = core.Point{X: nan, Y: nan}, core.SearchStats{Mode: "scribbled"}
	a.track = core.TrackResult{
		Fix:   &core.LocalizeResult{Position: core.Point{X: nan}},
		Track: core.TrackFix{Smoothed: core.Point{X: nan, Y: nan}, NIS: nan},
		State: core.TrackState{Pos: core.Point{X: nan}, Updates: -1}, FallbackCause: "scribbled",
	}
}

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// isolationRequest synthesizes a request over the test room from 3 or 4
// APs with the given burst depth.
func isolationRequest(t *testing.T, links, packets int, seed int64) *core.LocalizeRequest {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	client := core.Point{X: 1 + 4*rng.Float64(), Y: 1 + 3*rng.Float64()}
	req := serveTestRequestAt(t, client, packets, rng)
	if links == 4 {
		ap := core.Point{X: 3, Y: 4.9}
		dist := ap.Dist(client)
		burst, err := wireless.GenerateBurst(&wireless.ChannelConfig{
			Array: wireless.Intel5300Array(),
			OFDM:  serveTestOFDM(),
			Paths: []wireless.Path{
				{AoADeg: core.ExpectedAoA(ap, 0, client), ToA: dist / wireless.SpeedOfLight, Gain: complex(1/dist, 0)},
			},
			SNRdB: 15,
		}, packets, rng)
		if err != nil {
			t.Fatal(err)
		}
		req.Links = append(req.Links, core.LinkInput{Pos: ap, AxisDeg: 0, RSSIdBm: -55, Packets: burst})
	}
	return req
}

// TestArenaIsolation serves requests of different shapes (2 and 4 packets,
// 3 and 4 links, stateless and tracked interleaved) through one server and
// overwrites each released arena. Every answer must equal, bit for bit, a
// direct engine call on the same input, and nothing the server keeps after
// a reply may change when the arena it came from is overwritten: earlier
// responses, the flight ring's request events, the latency exemplars, and
// the session's tracker. The engine writes each result into its request's
// arena, so the scribble covers the LocalizeResult and TrackResult too.
func TestArenaIsolation(t *testing.T) {
	eng := serveTestEngine(t, 2)
	rec := obs.NewFlightRecorder(64, 64)
	reg := obs.NewRegistry()
	srv, err := New(Config{Engine: eng, Recorder: rec, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(context.Background())
	released := 0
	srv.arenaReleased = func(a *arena) {
		released++
		scribble(a)
	}

	type answer struct {
		body []byte
		x, y float64
		// est is what the request's event logs: the fix, or a tracked
		// epoch's smoothed position.
		est [2]float64
	}
	var answers []answer
	var events []obs.RequestEvent
	ref, err := core.NewTracker(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	const sid = "isolation-walker"
	exemplars := 0
	shapes := []struct{ links, packets int }{{3, 2}, {4, 4}, {3, 4}, {4, 2}}
	seq := 0
	for i := 0; i < 12; i++ {
		shape := shapes[i%len(shapes)]
		req := isolationRequest(t, shape.links, shape.packets, int64(5200+i))
		wire := FromCore(req)
		tracked := i%3 == 1
		var body []byte
		path := "/v1/localize"
		if tracked {
			seq++
			path = "/v1/track"
			body = mustMarshal(t, &TrackRequest{Request: *wire, SessionID: sid, Seq: int64(seq), TSeconds: float64(seq)})
		} else {
			body = mustMarshal(t, wire)
		}
		r := httptest.NewRequest(http.MethodPost, path, nil)
		r.Header.Set("X-Request-Id", fmt.Sprintf("isolation-%d", i))
		r.Body = &bodyReader{}
		r.Body.(*bodyReader).Reset(body)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("request %d (%s, %+v): status %d: %s", i, path, shape, w.Code, w.Body.Bytes())
		}
		var got TrackResponse
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}

		var want *core.LocalizeResult
		if tracked {
			tr, err := eng.LocalizeTracked(context.Background(), req, ref, float64(seq))
			if err != nil {
				t.Fatal(err)
			}
			want = tr.Fix
			if math.Float64bits(got.SmoothedX) != math.Float64bits(tr.Track.Smoothed.X) ||
				math.Float64bits(got.SmoothedY) != math.Float64bits(tr.Track.Smoothed.Y) {
				t.Fatalf("request %d: smoothed (%v, %v), direct (%v, %v)", i, got.SmoothedX, got.SmoothedY,
					tr.Track.Smoothed.X, tr.Track.Smoothed.Y)
			}
		} else if want, err = eng.Localize(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.X) != math.Float64bits(want.Position.X) ||
			math.Float64bits(got.Y) != math.Float64bits(want.Position.Y) {
			t.Fatalf("request %d (%s, %+v): served (%v, %v), direct (%v, %v)", i, path, shape,
				got.X, got.Y, want.Position.X, want.Position.Y)
		}
		if len(got.Links) != len(want.Links) {
			t.Fatalf("request %d: %d links served, %d direct", i, len(got.Links), len(want.Links))
		}
		for k, l := range got.Links {
			if math.Float64bits(l.AoADeg) != math.Float64bits(want.Links[k].AoADeg) {
				t.Fatalf("request %d link %d: served AoA %v, direct %v", i, k, l.AoADeg, want.Links[k].AoADeg)
			}
		}
		if released != i+1 {
			t.Fatalf("after request %d: %d arenas released, want %d", i, released, i+1)
		}

		est := [2]float64{got.X, got.Y}
		if tracked {
			est = [2]float64{got.SmoothedX, got.SmoothedY}
		}
		answers = append(answers, answer{body: append([]byte(nil), w.Body.Bytes()...), x: got.X, y: got.Y, est: est})
		ring := rec.Requests()
		events = append(events, ring[len(ring)-1])
		for k, ev := range ring {
			if !reflect.DeepEqual(ev, events[k]) {
				t.Fatalf("after request %d: ring event %d changed:\n%+v\nwas\n%+v", i, k, ev, events[k])
			}
			a := answers[k]
			var again TrackResponse
			if err := json.Unmarshal(a.body, &again); err != nil || again.X != a.x || again.Y != a.y {
				t.Fatalf("after request %d: response %d changed", i, k)
			}
			if len(ev.Est) != 2 || ev.Est[0] != a.est[0] || ev.Est[1] != a.est[1] {
				t.Fatalf("after request %d: ring event %d est %v, answer %v", i, k, ev.Est, a.est)
			}
		}
		// Every exemplar names a request served so far: none reads from a
		// released arena.
		for name, v := range reg.Snapshot() {
			h, ok := v.(obs.HistogramSnapshot)
			if !ok {
				continue
			}
			for _, id := range h.Exemplars {
				exemplars += len(id)
				var k int
				if n, err := fmt.Sscanf(id, "isolation-%d", &k); id != "" && (n != 1 || err != nil || k > i || id != fmt.Sprintf("isolation-%d", k)) {
					t.Fatalf("after request %d: %s exemplar %q", i, name, id)
				}
			}
		}
		if seq > 0 {
			sess, _, err := srv.sessions.acquire(sid, "", time.Now())
			if err != nil {
				t.Fatal(err)
			}
			state := sess.tracker.State()
			sess.mu.Unlock()
			if !reflect.DeepEqual(state, ref.State()) {
				t.Fatalf("after request %d: session state %+v, reference %+v", i, state, ref.State())
			}
		}
	}
	if exemplars == 0 {
		t.Fatal("no latency exemplar recorded")
	}
}
