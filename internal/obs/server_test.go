package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestDebugMuxEndpoints drives the handler tree through an httptest server
// and checks /metrics serves the registry snapshot, /debug/vars is expvar,
// and the pprof index responds.
func TestDebugMuxEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("engine.requests_total").Add(7)
	reg.Histogram("engine.localize.seconds", 0.01, 0.1, 1).Observe(0.05)

	ts := httptest.NewServer(NewMux(reg))
	defer ts.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var metrics map[string]json.RawMessage
	if err := json.Unmarshal(get("/metrics"), &metrics); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if _, ok := metrics["engine.requests_total"]; !ok {
		t.Fatalf("/metrics missing counter: %v", metrics)
	}
	var hs HistogramSnapshot
	if err := json.Unmarshal(metrics["engine.localize.seconds"], &hs); err != nil || hs.Count != 1 {
		t.Fatalf("/metrics histogram malformed: %v %+v", err, hs)
	}

	var vars map[string]json.RawMessage
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Fatal("/debug/vars missing memstats (expvar handler not wired)")
	}

	if body := get("/debug/pprof/"); len(body) == 0 {
		t.Fatal("/debug/pprof/ index empty")
	}
	if body := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

// TestServeLifecycle starts a real listener on a free port, publishes the
// registry to expvar, and shuts down cleanly.
func TestServeLifecycle(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up").Inc()
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics body not JSON: %v\n%s", err, body)
	}
	if m["up"] != float64(1) {
		t.Fatalf("up = %v, want 1", m["up"])
	}

	// /debug/vars must include the published registry under "roarray".
	resp, err = http.Get("http://" + srv.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	vars, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var vm map[string]json.RawMessage
	if err := json.Unmarshal(vars, &vm); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vm["roarray"]; !ok {
		t.Fatal("/debug/vars missing published roarray registry")
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Fatal("server still reachable after Close")
	}
}
