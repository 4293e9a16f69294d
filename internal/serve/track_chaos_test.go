package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"roarray/internal/fault"
)

// TestTrackChaos is the tracking fault-tolerance gate (run it under -race):
// a walking target streams epochs through a sticky session while two fault
// layers fire at once — an antenna-dropout injector corrupts the CSI of a
// mid-walk window of epochs (dead RF chains on the client), and a
// slow/stuck-request Disturb hook wedges random handlers server-side until
// their deadline kills them. Every epoch must land one well-formed terminal
// status from {200, 400, 429, 503, 504} (never 500), the session must
// survive every dropped epoch (later epochs on fresh seqs keep serving),
// and after the dropout window ends the filter must re-acquire the walk
// within 3 successful epochs.
func TestTrackChaos(t *testing.T) {
	eng := serveTestEngine(t, 2)

	const epochs = 18
	// Epochs [dropFrom, dropTo) ship corrupted CSI: 2 of 3 antenna rows dead
	// on every packet of every link.
	const dropFrom, dropTo = 7, 10
	reqs, truth := serveWalkRequests(t, epochs, 2, 20250)
	drop, err := fault.New(fault.Plan{Kind: fault.KindAntennaDropout, Antennas: 2}, 99)
	if err != nil {
		t.Fatal(err)
	}
	for e := dropFrom; e < dropTo; e++ {
		for li := range reqs[e].Links {
			reqs[e].Links[li].Packets = drop.TransformBurst(reqs[e].Links[li].Packets)
		}
	}
	if drop.Injected() == 0 {
		t.Fatal("dropout injector corrupted nothing")
	}

	disturb, err := fault.New(fault.Plan{
		Kind:      fault.KindSlowRequest,
		Prob:      0.5,
		Delay:     2 * time.Millisecond,
		StuckProb: 0.25,
	}, 31)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Engine:         eng,
		BatchSize:      4,
		RequestTimeout: 400 * time.Millisecond,
		Disturb:        disturb.Disturb,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	allowed := map[int]bool{
		http.StatusOK:                 true,
		http.StatusBadRequest:         true,
		http.StatusTooManyRequests:    true,
		http.StatusServiceUnavailable: true,
		http.StatusGatewayTimeout:     true,
	}
	type epochResult struct {
		status int
		resp   TrackResponse
	}
	results := make([]epochResult, epochs)
	sid := "chaos-target"
	dropped := 0
	for e := 0; e < epochs; e++ {
		wreq := &TrackRequest{Request: *FromCore(reqs[e]), SessionID: sid, Seq: int64(e + 1), TSeconds: float64(e)}
		status, body := postTrack(t, ts.Client(), ts.URL, wreq)
		results[e].status = status
		if status == http.StatusInternalServerError {
			t.Fatalf("epoch %d: server 500ed: %s", e, body)
		}
		if !allowed[status] {
			t.Fatalf("epoch %d: status %d outside the allowed set: %s", e, status, body)
		}
		if status != http.StatusOK {
			dropped++
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
				t.Fatalf("epoch %d: status %d body is not a well-formed error: %q", e, status, body)
			}
			continue
		}
		if err := json.Unmarshal(body, &results[e].resp); err != nil {
			t.Fatalf("epoch %d: malformed 200 body: %v", e, err)
		}
		if results[e].resp.SessionID != sid {
			t.Fatalf("epoch %d: session id drifted to %q", e, results[e].resp.SessionID)
		}
	}
	rep := srv.Drain(context.Background())
	if rep.Pending != 0 {
		t.Fatalf("drain left pending work: %+v", rep)
	}

	// The session must have survived the chaos: the store still holds
	// exactly one session, and epochs after every failure kept serving.
	if st := srv.Stats(); st.TrackSessions != 1 {
		t.Fatalf("TrackSessions = %d after chaos, want 1", st.TrackSessions)
	}
	lastOK := -1
	for e := 0; e < epochs; e++ {
		if results[e].status == http.StatusOK {
			lastOK = e
		}
	}
	if lastOK < dropTo {
		t.Fatalf("no successful epoch after the dropout window (last 200 at %d)", lastOK)
	}
	for e := 0; e < epochs-1; e++ {
		if results[e].status == http.StatusOK {
			continue
		}
		recovered := false
		for n := e + 1; n < epochs; n++ {
			if results[n].status == http.StatusOK {
				recovered = true
				break
			}
		}
		if !recovered && lastOK < e {
			t.Fatalf("session never answered again after epoch %d failed", e)
		}
	}

	// Re-acquisition: within 3 successful epochs after the dropout window
	// the smoothed track must be back within 1.5 m of the true walk.
	okAfter := 0
	reacquired := false
	for e := dropTo; e < epochs && okAfter < 3; e++ {
		if results[e].status != http.StatusOK {
			continue
		}
		okAfter++
		r := results[e].resp
		if math.Hypot(r.SmoothedX-truth[e].X, r.SmoothedY-truth[e].Y) <= 1.5 {
			reacquired = true
			break
		}
	}
	if okAfter == 0 {
		t.Fatal("no successful epoch within the re-acquisition budget")
	}
	if !reacquired {
		t.Fatalf("track not re-acquired within 3 successful epochs after the dropout window")
	}
	if disturb.Injected() == 0 {
		t.Error("disturb injector never fired; the walk was not actually disturbed")
	}
	_ = dropped // informational; chaos may or may not drop epochs each seed
}
