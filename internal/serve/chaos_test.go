package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"roarray/internal/fault"
)

// chaosClass is one kind of traffic in the chaos mix, with the statuses it
// is allowed to draw.
type chaosClass struct {
	name string
	body []byte
	ok   map[int]bool
}

// TestServeChaos is the fault-tolerance gate (run it under -race): a mix of
// valid, malformed, and fault-injected requests hammers the server while a
// fault.Injector's Disturb hook randomly delays or wedges request handlers.
// Every request must receive exactly one well-formed terminal status, bad
// input must be rejected with 400 (never 500), and degraded-but-usable CSI
// (all-zero bursts) must still yield a 200 with the faulty links flagged at
// reduced confidence.
func TestServeChaos(t *testing.T) {
	eng := serveTestEngine(t, 2)
	valid := serveTestRequests(t, 2, 2, 777)

	validBody := mustMarshal(t, FromCore(valid[0]))

	// Deadline so tight the solve cannot finish: deterministic 504.
	tight := FromCore(valid[1])
	tight.DeadlineMillis = 0.001
	tightBody := mustMarshal(t, tight)

	// All-zero CSI: passes wire validation (finite, rectangular, right
	// dimensions) but every antenna is dead, so core's sanitizer floors the
	// link confidence and the request degrades instead of failing.
	zeroed := FromCore(valid[0])
	for li := range zeroed.Links {
		for pi := range zeroed.Links[li].Packets {
			data := zeroed.Links[li].Packets[pi].Data
			for a := range data {
				for s := range data[a] {
					data[a][s] = [2]float64{0, 0}
				}
			}
		}
	}
	zeroBody := mustMarshal(t, zeroed)

	// Wrong per-packet dimensions for this server (2x3 instead of 3x8).
	misshapen := FromCore(valid[0])
	misshapen.Links[0].Packets[0].Data = [][][2]float64{
		{{1, 0}, {0, 1}, {1, 1}},
		{{0, 0}, {1, 0}, {0, 1}},
	}
	misshapenBody := mustMarshal(t, misshapen)

	// Ragged packet: second antenna row is shorter than the first.
	ragged := FromCore(valid[0])
	raggedData := ragged.Links[0].Packets[0].Data
	raggedData[1] = raggedData[1][:len(raggedData[1])-2]
	raggedBody := mustMarshal(t, ragged)

	// One link only: below the >= 2 AP floor.
	lonely := FromCore(valid[0])
	lonely.Links = lonely.Links[:1]
	lonelyBody := mustMarshal(t, lonely)

	okOnly := map[int]bool{
		http.StatusOK:              true,
		http.StatusTooManyRequests: true,
		http.StatusGatewayTimeout:  true,
	}
	badOnly := map[int]bool{http.StatusBadRequest: true}
	classes := []chaosClass{
		{"valid", validBody, okOnly},
		{"zero-csi", zeroBody, okOnly},
		{"tight-deadline", tightBody, map[int]bool{
			http.StatusGatewayTimeout:  true,
			http.StatusTooManyRequests: true,
		}},
		{"truncated-json", []byte(`{"links":[{"x":1,`), badOnly},
		{"not-json", []byte("csi csi csi"), badOnly},
		{"empty-body", nil, badOnly},
		{"misshapen", misshapenBody, badOnly},
		{"ragged", raggedBody, badOnly},
		{"one-link", lonelyBody, badOnly},
	}

	inj, err := fault.New(fault.Plan{
		Kind:      fault.KindSlowRequest,
		Prob:      0.5,
		Delay:     2 * time.Millisecond,
		StuckProb: 0.2,
	}, 31)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Engine:         eng,
		BatchSize:      4,
		QueueDepth:     64,
		RequestTimeout: 400 * time.Millisecond,
		Disturb:        inj.Disturb,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const rounds = 4
	type outcome struct {
		class  string
		status int
		body   []byte
	}
	results := make(chan outcome, rounds*len(classes))
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for _, cl := range classes {
			wg.Add(1)
			go func(cl chaosClass) {
				defer wg.Done()
				var rd io.Reader
				if cl.body != nil {
					rd = bytes.NewReader(cl.body)
				}
				req, err := http.NewRequestWithContext(context.Background(),
					http.MethodPost, ts.URL+"/v1/localize", rd)
				if err != nil {
					t.Errorf("%s: build request: %v", cl.name, err)
					return
				}
				req.Header.Set("Content-Type", "application/json")
				resp, err := ts.Client().Do(req)
				if err != nil {
					t.Errorf("%s: transport error (request vanished): %v", cl.name, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("%s: read body: %v", cl.name, err)
					return
				}
				results <- outcome{cl.name, resp.StatusCode, body}
			}(cl)
		}
	}
	wg.Wait()
	close(results)

	allowed := map[string]map[int]bool{}
	for _, cl := range classes {
		allowed[cl.name] = cl.ok
	}
	got := 0
	degraded200 := 0
	for out := range results {
		got++
		if out.status == http.StatusInternalServerError {
			t.Fatalf("%s: server 500ed: %s", out.class, out.body)
		}
		if !allowed[out.class][out.status] {
			t.Errorf("%s: status %d not in allowed set: %s", out.class, out.status, out.body)
			continue
		}
		if out.status == http.StatusOK {
			var r Response
			if err := json.Unmarshal(out.body, &r); err != nil {
				t.Errorf("%s: malformed 200 body: %v", out.class, err)
				continue
			}
			if out.class == "zero-csi" {
				degraded200++
				for i, lr := range r.Links {
					if lr.Confidence <= 0 || lr.Confidence > 0.1 {
						t.Errorf("zero-csi link %d: confidence %v, want floored in (0, 0.1]", i, lr.Confidence)
					}
					if lr.Error == "" {
						t.Errorf("zero-csi link %d: degraded link missing error", i)
					}
				}
			}
		} else {
			var er ErrorResponse
			if err := json.Unmarshal(out.body, &er); err != nil || er.Error == "" {
				t.Errorf("%s: status %d body is not a well-formed error: %q", out.class, out.status, out.body)
			}
		}
	}
	if want := rounds * len(classes); got != want {
		t.Fatalf("answered %d requests, posted %d: some vanished or doubled", got, want)
	}
	if degraded200 == 0 {
		t.Log("note: no zero-csi request completed with 200 this run (all timed out under chaos)")
	}
	if inj.Injected() == 0 {
		t.Error("disturb injector never fired; chaos mix was not actually disturbed")
	}
}
