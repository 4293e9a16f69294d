package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"roarray/internal/obs"
	"roarray/internal/serve"
	"roarray/internal/testbed"
)

// TestRunServesAndDrains boots the command end to end on a free port: it
// must write its bound address to -addr-file, answer /healthz and a real
// localization POST, then drain cleanly on SIGTERM with a JSON report on
// stderr.
func TestRunServesAndDrains(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	eventsFile := filepath.Join(dir, "events.jsonl")
	stop := make(chan os.Signal, 1)
	var stdout, stderr bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-addr-file", addrFile,
			"-preset", "smoke",
			"-workers", "2",
			"-events", eventsFile,
		}, &stdout, &stderr, stop)
	}()

	var addr string
	deadline := time.Now().Add(15 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("addr file never appeared; stderr:\n%s", stderr.String())
		}
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			addr = strings.TrimSpace(string(raw))
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d", resp.StatusCode)
	}

	ps, err := serve.LookupPreset("smoke")
	if err != nil {
		t.Fatal(err)
	}
	reqs, _, err := ps.Deployment.BatchRequests(1, ps.Packets, testbed.ScenarioConfig{}, 42)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(serve.FromCore(reqs[0]))
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/localize", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Request-Id", "roaserve-e2e")
	resp, err = http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	var sr serve.Response
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("POST /v1/localize: status %d, decode err %v", resp.StatusCode, err)
	}
	if sr.BatchSize < 1 || sr.TotalMillis <= 0 {
		t.Fatalf("nonsense response: %+v", sr)
	}
	if sr.RequestID != "roaserve-e2e" {
		t.Fatalf("response requestId %q, want the header's id", sr.RequestID)
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run never returned after SIGTERM")
	}
	if !strings.Contains(stderr.String(), `"Drained"`) {
		t.Fatalf("stderr missing drain report:\n%s", stderr.String())
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still reachable after drain")
	}
	// The -events file holds the wide request event for the POST above.
	raw, err := os.ReadFile(eventsFile)
	if err != nil {
		t.Fatalf("events file: %v", err)
	}
	evs, err := obs.ReadRequestEvents(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decode events: %v", err)
	}
	found := false
	for _, ev := range evs {
		if ev.ID == "roaserve-e2e" && ev.Outcome == "ok" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no ok event for roaserve-e2e in %d events:\n%s", len(evs), raw)
	}
}

// TestRunProxyForwardsBothEndpoints boots the command in -proxy mode over a
// backend named as host:port, the form the usage documents, and posts to
// both endpoints: each must reach the backend on its own path.
func TestRunProxyForwardsBothEndpoints(t *testing.T) {
	paths := make(chan string, 2)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		paths <- r.URL.Path
		w.WriteHeader(http.StatusOK)
	}))
	defer backend.Close()

	addrFile := filepath.Join(t.TempDir(), "addr")
	stop := make(chan os.Signal, 1)
	var stdout, stderr bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-proxy", "-addr", "127.0.0.1:0", "-addr-file", addrFile,
			"-backends", strings.TrimPrefix(backend.URL, "http://"),
		}, &stdout, &stderr, stop)
	}()
	var addr string
	for deadline := time.Now().Add(15 * time.Second); addr == ""; {
		if time.Now().After(deadline) {
			t.Fatalf("addr file never appeared; stderr:\n%s", stderr.String())
		}
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			addr = strings.TrimSpace(string(raw))
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	for _, path := range []string{"/v1/localize", "/v1/track"} {
		resp, err := http.Post("http://"+addr+path, "application/json", strings.NewReader(`{"venueId":"hq"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s through the proxy: status %d", path, resp.StatusCode)
		}
		if got := <-paths; got != path {
			t.Fatalf("%s reached the backend as %s", path, got)
		}
	}
	stop <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunRejectsBadFlags pins flag validation.
func TestRunRejectsBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	stop := make(chan os.Signal)
	if err := run([]string{"-preset", "nope"}, &stdout, &stderr, stop); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if err := run([]string{"-addr", "not-an-addr:::"}, &stdout, &stderr, stop); err == nil {
		t.Fatal("bad listen address accepted")
	}
}
