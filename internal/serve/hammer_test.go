package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roarray/internal/core"
)

// TestServeHammer is the concurrency gate (run it under -race): many client
// goroutines POST a fixed request mix at once, every request receives
// exactly one terminal status out of {200, 429, 504}, and every 200 carries
// the bit-identical position a direct Engine.Localize call produces for the
// same request. With clients >> batch size the micro-batcher must also
// actually coalesce: the mean flush size has to exceed one.
func TestServeHammer(t *testing.T) {
	const (
		distinct  = 6  // distinct request payloads
		clients   = 16 // concurrent posting goroutines
		perClient = 3  // posts per goroutine
	)
	eng := serveTestEngine(t, 2)
	reqs := serveTestRequests(t, distinct, 2, 1234)

	// Reference answers, computed directly against the engine. Serving the
	// same bytes must reproduce these exactly.
	want := make([]*core.LocalizeResult, distinct)
	for i, req := range reqs {
		res, err := eng.Localize(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	bodies := make([][]byte, distinct)
	for i, req := range reqs {
		bodies[i] = mustMarshal(t, FromCore(req))
	}

	srv, err := New(Config{
		Engine:     eng,
		BatchSize:  8,
		QueueDepth: 2 * clients,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	ts.Config.SetKeepAlivesEnabled(true)
	defer ts.Close()

	var (
		mu       sync.Mutex
		statuses = map[int]int{}
		answered atomic.Int64
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				idx := (c + k*5) % distinct
				resp, err := ts.Client().Post(ts.URL+"/v1/localize", "application/json", bytes.NewReader(bodies[idx]))
				if err != nil {
					t.Errorf("client %d post %d: %v", c, k, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("client %d post %d: read: %v", c, k, err)
					return
				}
				answered.Add(1)
				mu.Lock()
				statuses[resp.StatusCode]++
				mu.Unlock()
				switch resp.StatusCode {
				case http.StatusOK:
					var r Response
					if err := json.Unmarshal(body, &r); err != nil {
						t.Errorf("client %d post %d: bad 200 body: %v", c, k, err)
						return
					}
					w := want[idx]
					if math.Float64bits(r.X) != math.Float64bits(w.Position.X) ||
						math.Float64bits(r.Y) != math.Float64bits(w.Position.Y) {
						t.Errorf("request %d served (%v,%v), engine says (%v,%v)",
							idx, r.X, r.Y, w.Position.X, w.Position.Y)
						return
					}
					for l := range w.Links {
						if math.Float64bits(r.Links[l].AoADeg) != math.Float64bits(w.Links[l].AoADeg) {
							t.Errorf("request %d link %d: AoA %v != engine %v",
								idx, l, r.Links[l].AoADeg, w.Links[l].AoADeg)
							return
						}
					}
				case http.StatusTooManyRequests, http.StatusGatewayTimeout:
					// Acceptable under load; the client would retry.
				default:
					t.Errorf("client %d post %d: unexpected status %d: %s", c, k, resp.StatusCode, body)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	if got := answered.Load(); got != clients*perClient {
		t.Fatalf("%d requests answered, want %d (every request gets exactly one response)",
			got, clients*perClient)
	}
	st := srv.Stats()
	if st.Finished != st.Accepted {
		t.Fatalf("accepted %d != finished %d", st.Accepted, st.Finished)
	}
	if int(st.Accepted) != statuses[http.StatusOK]+statuses[http.StatusGatewayTimeout] {
		t.Fatalf("accepted %d but saw %d 200s + %d 504s (statuses: %v)",
			st.Accepted, statuses[http.StatusOK], statuses[http.StatusGatewayTimeout], statuses)
	}
	if st.Batches == 0 {
		t.Fatal("no batches flushed")
	}
	if mean := float64(st.Batched) / float64(st.Batches); mean <= 1 {
		t.Errorf("mean batch size %.2f with %d concurrent clients; micro-batching never coalesced", mean, clients)
	}

	rep := srv.Drain(context.Background())
	if rep.Forced || rep.Pending != 0 {
		t.Fatalf("post-hammer drain: %+v", rep)
	}
}

// TestServeDrainLosesNothing shuts the server down in the middle of a load
// burst and checks the zero-loss contract: every request that was answered
// 200-or-accepted is accounted for — accepted = completed + failed, failed
// is zero (the drain was not forced), and clients that were turned away got
// clean 429/503s, never a dropped connection or a hung request.
func TestServeDrainLosesNothing(t *testing.T) {
	const clients = 12
	eng := serveTestEngine(t, 2)
	body := mustMarshal(t, FromCore(serveTestRequests(t, 1, 2, 777)[0]))

	srv, err := New(Config{
		Engine:     eng,
		BatchSize:  4,
		QueueDepth: clients,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	statuses := make(chan int, clients)
	for c := 0; c < clients; c++ {
		go func() {
			resp, err := ts.Client().Post(ts.URL+"/v1/localize", "application/json", bytes.NewReader(body))
			if err != nil {
				statuses <- -1
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}

	// Shut down as soon as some of the burst has been admitted, while the
	// rest is still in flight toward the server.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Accepted < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no requests admitted")
		}
	}
	rep := srv.Drain(context.Background())
	if rep.Forced {
		t.Fatalf("unforced drain reported forced: %+v", rep)
	}

	counts := map[int]int{}
	for c := 0; c < clients; c++ {
		select {
		case s := <-statuses:
			counts[s]++
		case <-time.After(30 * time.Second):
			t.Fatalf("request hung across drain; so far: %v", counts)
		}
	}
	if counts[-1] > 0 {
		t.Fatalf("dropped connections during drain: %v", counts)
	}
	st := srv.Stats()
	if int64(counts[http.StatusOK]) != st.Accepted {
		t.Fatalf("accepted %d requests but %d clients got 200 (counts %v, drain %+v)",
			st.Accepted, counts[http.StatusOK], counts, rep)
	}
	if st.Failed != 0 {
		t.Fatalf("graceful drain failed %d accepted requests: %+v", st.Failed, rep)
	}
	turnedAway := counts[http.StatusTooManyRequests] + counts[http.StatusServiceUnavailable]
	if counts[http.StatusOK]+turnedAway != clients {
		t.Fatalf("unexpected statuses during drain: %v", counts)
	}
	if rep.Pending+st.Completed-rep.Drained < 0 || rep.Drained+rep.Failed < rep.Pending {
		t.Fatalf("drain report does not cover its pending work: %+v (stats %+v)", rep, st)
	}
}
