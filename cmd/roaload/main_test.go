package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"roarray/internal/core"
	"roarray/internal/serve"
)

// startTestServer runs an in-process serving stack on the smoke preset and
// returns its host:port.
func startTestServer(t *testing.T) string {
	t.Helper()
	ps, err := serve.LookupPreset("smoke")
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.NewEstimator(ps.Estimator)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(est, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		srv.Drain(context.Background())
		ts.Close()
	})
	return strings.TrimPrefix(ts.URL, "http://")
}

// TestRunClosedLoop drives a short closed-loop run against a live server and
// checks the summary line balances and the -out artifact is written.
func TestRunClosedLoop(t *testing.T) {
	addr := startTestServer(t)
	outFile := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-addr", addr,
		"-duration", "400ms",
		"-concurrency", "4",
		"-distinct", "2",
		"-seed", "7",
		"-out", outFile,
		"-min-ok", "1",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}

	var sum Summary
	if err := json.Unmarshal(stdout.Bytes(), &sum); err != nil {
		t.Fatalf("stdout not one JSON line: %v\n%s", err, stdout.String())
	}
	if sum.Tool != "roaload" || sum.Mode != "closed" || sum.Preset != "smoke" {
		t.Fatalf("summary identity wrong: %+v", sum)
	}
	if sum.OK == 0 || sum.Requests < sum.OK {
		t.Fatalf("counts do not balance: %+v", sum)
	}
	if sum.ThroughputRPS <= 0 || sum.LatencyMsP50 <= 0 || sum.LatencyMsP99 < sum.LatencyMsP50 {
		t.Fatalf("latency stats malformed: %+v", sum)
	}
	if sum.MeanBatchSize < 1 {
		t.Fatalf("mean batch size %v < 1", sum.MeanBatchSize)
	}

	raw, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatalf("-out not written: %v", err)
	}
	var fromFile Summary
	if err := json.Unmarshal(raw, &fromFile); err != nil {
		t.Fatalf("-out not JSON: %v\n%s", err, raw)
	}
	if fromFile.OK != sum.OK {
		t.Fatalf("-out disagrees with stdout: %d vs %d", fromFile.OK, sum.OK)
	}
}

// TestRunOpenLoop exercises the fixed-rate arrival path.
func TestRunOpenLoop(t *testing.T) {
	addr := startTestServer(t)
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-addr", addr,
		"-mode", "open",
		"-rate", "30",
		"-duration", "400ms",
		"-distinct", "2",
		"-min-ok", "1",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	var sum Summary
	if err := json.Unmarshal(stdout.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Mode != "open" || sum.RateRPS != 30 || sum.OK == 0 {
		t.Fatalf("open-loop summary: %+v", sum)
	}
}

// TestRunWalkSplitsFallbacks: walk mode reports the tracked fallbacks
// split by cause, and the split adds up to the total.
func TestRunWalkSplitsFallbacks(t *testing.T) {
	addr := startTestServer(t)
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-addr", addr,
		"-mode", "walk",
		"-walkers", "3",
		"-epochs", "8",
		"-seed", "7",
		"-min-ok", "1",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	var sum Summary
	if err := json.Unmarshal(stdout.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Mode != "walk" || sum.OK == 0 {
		t.Fatalf("walk summary: %+v", sum)
	}
	if sum.TrackFallbackGate+sum.TrackFallbackEdge != sum.TrackFallback {
		t.Fatalf("fallbacks by cause gate %d + edge %d != total %d", sum.TrackFallbackGate, sum.TrackFallbackEdge, sum.TrackFallback)
	}
}

// TestRunGatesAndAddrFile covers the -addr-file path and both gate
// failures.
func TestRunGatesAndAddrFile(t *testing.T) {
	addr := startTestServer(t)
	addrFile := filepath.Join(t.TempDir(), "addr")
	if err := os.WriteFile(addrFile, []byte(addr+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-addr-file", addrFile,
		"-duration", "300ms",
		"-concurrency", "2",
		"-distinct", "1",
		"-min-mean-batch", "100",
	}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "mean batch size") {
		t.Fatalf("impossible batch gate passed: %v", err)
	}

	stdout.Reset()
	err = run([]string{
		"-addr-file", addrFile,
		"-duration", "200ms",
		"-concurrency", "1",
		"-distinct", "1",
		"-min-ok", "1000000",
	}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "requests completed") {
		t.Fatalf("impossible ok gate passed: %v", err)
	}
}

// TestRunFlagValidation pins the cheap rejection paths.
func TestRunFlagValidation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-addr", "x", "-mode", "sideways"}, &stdout, &stderr); err == nil {
		t.Fatal("bad mode accepted")
	}
	if err := run([]string{}, &stdout, &stderr); err == nil {
		t.Fatal("missing -addr accepted")
	}
	if err := run([]string{"-addr", "x", "-preset", "nope"}, &stdout, &stderr); err == nil {
		t.Fatal("unknown preset accepted")
	}
}
