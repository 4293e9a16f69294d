package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"roarray/internal/obs"
)

// testRegistry builds a registry shaped like a live roaserve: RED counters,
// tracking counters with the engine's fallbacks by cause, an e2e latency
// histogram with an exemplar, and bound SLO gauges.
func testRegistry(t *testing.T) (*obs.Registry, *obs.SLO) {
	t.Helper()
	reg := obs.NewRegistry()
	reg.Counter("serve.accepted_total").Add(12)
	reg.Counter("serve.completed_total").Add(10)
	reg.Counter("serve.failed_total").Add(1)
	reg.Counter("serve.rejected_queue_full_total").Add(1)
	reg.Counter("serve.batches_total").Add(4)
	reg.Counter("serve.track.epochs_total").Add(9)
	reg.Counter("serve.track.fallback_total").Add(5)
	reg.Counter("core.track.fallback_gate_total").Add(3)
	reg.Counter("core.track.fallback_edge_total").Add(2)
	h := reg.Histogram("serve.e2e.seconds", 0.01, 0.1, 1)
	h.ObserveExemplar(0.005, "fast-req")
	h.ObserveExemplar(0.5, "slow-req")
	slo := obs.NewSLO(obs.SLOConfig{LatencyObjective: 250 * time.Millisecond, Target: 0.99})
	slo.Observe(true, 5*time.Millisecond)
	slo.Observe(false, 400*time.Millisecond)
	slo.Bind(reg)
	return reg, slo
}

func writeSnapshot(t *testing.T, reg *obs.Registry, name string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRenderSnapshotFile(t *testing.T) {
	reg, _ := testRegistry(t)
	path := writeSnapshot(t, reg, "snap.json")

	var out, errb bytes.Buffer
	if err := run([]string{"-metrics", path}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	got := out.String()
	for _, want := range []string{
		"accepted", "12",
		"rejected 429 (queue full)",
		"-- tracking --",
		"fallbacks                  5",
		"fallbacks (gate)           3",
		"fallbacks (edge)           2",
		"serve.e2e.seconds",
		"slowest occupied bucket <= 1.00s: request slow-req",
		"SLO: target 99.00%",
		"burn(avail)",
		"1m", "5m", "1h",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRenderLiveURLAndWatch(t *testing.T) {
	reg, _ := testRegistry(t)
	ts := httptest.NewServer(obs.NewMux(reg))
	defer ts.Close()
	url := ts.URL + "/metrics"

	var out, errb bytes.Buffer
	if err := run([]string{"-metrics", url}, &out, &errb); err != nil {
		t.Fatalf("live render: %v", err)
	}
	if !strings.Contains(out.String(), "serve.e2e.seconds") {
		t.Fatalf("live render missing histogram:\n%s", out.String())
	}

	out.Reset()
	// Two watch intervals against the same server; traffic arrives between
	// polls so the interval tables must show the delta, not the cumulative.
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(20 * time.Millisecond)
		reg.Histogram("serve.e2e.seconds").ObserveExemplar(0.05, "mid-req")
		reg.Counter("serve.accepted_total").Add(3)
	}()
	if err := run([]string{"-metrics", url, "-watch", "50ms", "-count", "2"}, &out, &errb); err != nil {
		t.Fatalf("watch: %v", err)
	}
	<-done
	got := out.String()
	if n := strings.Count(got, "== roastat:"); n != 2 {
		t.Fatalf("want 2 interval renders, got %d:\n%s", n, got)
	}
	if !strings.Contains(got, "accepted                   3") {
		t.Fatalf("interval delta for accepted_total not 3:\n%s", got)
	}
}

func TestDiffSnapshots(t *testing.T) {
	reg, _ := testRegistry(t)
	before := writeSnapshot(t, reg, "before.json")
	reg.Counter("serve.accepted_total").Add(5)
	reg.Histogram("serve.e2e.seconds").ObserveExemplar(0.02, "new-req")
	after := writeSnapshot(t, reg, "after.json")

	var out, errb bytes.Buffer
	if err := run([]string{"-metrics", before, "-diff", after}, &out, &errb); err != nil {
		t.Fatalf("diff: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "accepted                   5") {
		t.Fatalf("diff accepted delta not 5:\n%s", got)
	}
	// Only the one new observation in the interval histogram.
	if !strings.Contains(got, "count 1") {
		t.Fatalf("interval histogram count not 1:\n%s", got)
	}
}

func TestFilterEventsByRequestID(t *testing.T) {
	lines := strings.Join([]string{
		`{"schema":1,"id":"foo","outcome":"ok","status":200}`,
		`{"ev":"start","stage":"serve.request","req":"foo"}`,
		`{"schema":1,"id":"bar","outcome":"ok","status":200}`,
		`not json at all`,
		`{"ev":"end","stage":"serve.request","req":"bar"}`,
	}, "\n") + "\n"
	path := filepath.Join(t.TempDir(), "events.jsonl")
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	if err := run([]string{"-events", path, "-req", "foo"}, &out, &errb); err != nil {
		t.Fatalf("filter: %v", err)
	}
	got := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(got) != 2 {
		t.Fatalf("want the event and the span for foo, got %d lines:\n%s", len(got), out.String())
	}
	for _, line := range got {
		if !strings.Contains(line, "foo") {
			t.Fatalf("filtered line lacks id: %s", line)
		}
	}

	if err := run([]string{"-events", path, "-req", "missing"}, &out, &errb); err == nil {
		t.Fatal("want error when no records match")
	}
}

func TestFlagValidation(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(nil, &out, &errb); err == nil {
		t.Fatal("want error with no source")
	}
	if err := run([]string{"-events", "x.jsonl"}, &out, &errb); err == nil {
		t.Fatal("want error for -events without -req")
	}
}
