package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestRetryAfterDerivation pins the advice math: ceil((1 + fill) * seed)
// seconds, floored at 1, on an idle server (fill 0).
func TestRetryAfterDerivation(t *testing.T) {
	srv, err := New(Config{Engine: serveTestEngine(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(context.Background())
	cases := []struct {
		seed time.Duration
		want string
	}{
		{time.Second, "1"},
		{5 * time.Second, "5"},
		{100 * time.Millisecond, "1"}, // sub-second seeds still advise >= 1 s
		{10 * time.Second, "10"},
	}
	for _, c := range cases {
		if got := srv.retryAfter(c.seed); got != c.want {
			t.Fatalf("retryAfter(%v) on empty queue = %q, want %q", c.seed, got, c.want)
		}
	}
	if fill := srv.QueueFill(); fill != 0 {
		t.Fatalf("idle QueueFill = %v", fill)
	}
}

// TestRetryAfterHeader503Draining pins the Retry-After a draining server
// sends: the preset-configurable draining seed (default 5 s) with an empty
// queue renders as exactly "5".
func TestRetryAfterHeader503Draining(t *testing.T) {
	srv, err := New(Config{Engine: serveTestEngine(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	srv.Drain(context.Background())

	body := mustMarshal(t, FromCore(serveTestRequests(t, 1, 2, 77)[0]))
	resp, err := ts.Client().Post(ts.URL+"/v1/localize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "5" {
		t.Fatalf("draining Retry-After = %q, want \"5\" (default seed, empty queue)", got)
	}
}

// TestRetryAfterHeader503ConfiguredSeed pins that the per-preset seed reaches
// the header: a 10 s draining seed (the paper preset's value) renders "10".
func TestRetryAfterHeader503ConfiguredSeed(t *testing.T) {
	srv, err := New(Config{Engine: serveTestEngine(t, 1), RetryAfterDraining: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	srv.Drain(context.Background())

	body := mustMarshal(t, FromCore(serveTestRequests(t, 1, 2, 78)[0]))
	resp, err := ts.Client().Post(ts.URL+"/v1/localize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if got := resp.Header.Get("Retry-After"); got != "10" {
		t.Fatalf("configured draining Retry-After = %q, want \"10\"", got)
	}
}

// TestRetryAfterHeader429QueueFull pins the Retry-After on the queue-full
// path: a one-deep queue at overflow is 100% full, so the default 1 s seed
// scales to ceil((1 + 1.0) * 1) = "2" — a saturated server asks for twice the
// idle backoff.
func TestRetryAfterHeader429QueueFull(t *testing.T) {
	eng := serveTestEngine(t, 1)
	srv, err := New(Config{Engine: eng, BatchSize: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

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

	// Wedge the dispatcher behind a heavy solve, then occupy the queue's only
	// slot, exactly as TestServeQueueFull429 does.
	go post(mustMarshal(t, FromCore(serveTestRequests(t, 1, 96, 323)[0])))
	await(t, "wedge pickup", func() bool { return srv.Stats().Accepted == 1 && srv.queuedTotal() == 0 })
	go post(mustMarshal(t, FromCore(serveTestRequests(t, 1, 2, 324)[0])))
	await(t, "filler admission", func() bool { return srv.Stats().Accepted == 2 })

	overflow := mustMarshal(t, FromCore(serveTestRequests(t, 1, 2, 325)[0]))
	resp, err := ts.Client().Post(ts.URL+"/v1/localize", "application/json", bytes.NewReader(overflow))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("queue-full Retry-After = %q, want \"2\" (1 s seed doubled by a full queue)", got)
	}
	for i := 0; i < 2; i++ {
		if got := <-statuses; got != http.StatusOK {
			t.Fatalf("accepted request finished with status %d", got)
		}
	}
}
