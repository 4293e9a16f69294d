package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"roarray"
)

func TestSampleRoundTrip(t *testing.T) {
	var sample bytes.Buffer
	if err := run([]string{"-sample"}, strings.NewReader(""), &sample, io.Discard); err != nil {
		t.Fatal(err)
	}
	// The sample was built from noise-free AoAs at (7.5, 4.5); feeding it
	// back must localize there.
	var out bytes.Buffer
	if err := run([]string{"-input", "-"}, bytes.NewReader(sample.Bytes()), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := json.Unmarshal(out.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if math.Hypot(resp.X-7.5, resp.Y-4.5) > 0.2 {
		t.Fatalf("localized (%v, %v), want ~(7.5, 4.5)", resp.X, resp.Y)
	}
	if resp.Observations != 6 {
		t.Fatalf("observations = %d, want 6", resp.Observations)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-input", "-"}, strings.NewReader("{not json"), &out, io.Discard); err == nil {
		t.Fatal("malformed JSON should error")
	}
	bad := `{"room":{"maxX":10,"maxY":10},"observations":[{"x":0,"y":0,"aoaDeg":270,"rssiDbm":-50}]}`
	if err := run([]string{"-input", "-"}, strings.NewReader(bad), &out, io.Discard); err == nil {
		t.Fatal("out-of-range AoA should error")
	}
	few := `{"room":{"maxX":10,"maxY":10},"observations":[{"x":0,"y":0,"aoaDeg":90,"rssiDbm":-50}]}`
	if err := run([]string{"-input", "-"}, strings.NewReader(few), &out, io.Discard); err == nil {
		t.Fatal("single observation should error (Localize needs >= 2)")
	}
	if err := run([]string{"-input", "/no/such/file.json"}, strings.NewReader(""), &out, io.Discard); err == nil {
		t.Fatal("missing file should error")
	}
	if err := run([]string{"-bogus-flag"}, strings.NewReader(""), &out, io.Discard); err == nil {
		t.Fatal("bad flag should error")
	}
}

func TestStepOverride(t *testing.T) {
	var sample bytes.Buffer
	if err := run([]string{"-sample"}, strings.NewReader(""), &sample, io.Discard); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	// A coarse override still works, just quantized.
	if err := run([]string{"-input", "-", "-step", "0.5"}, bytes.NewReader(sample.Bytes()), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := json.Unmarshal(out.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if math.Hypot(resp.X-7.5, resp.Y-4.5) > 0.8 {
		t.Fatalf("coarse localization too far: (%v, %v)", resp.X, resp.Y)
	}
}

// TestTraceFlag checks -trace writes a decodable span stream containing the
// grid-search span.
func TestTraceFlag(t *testing.T) {
	var sample bytes.Buffer
	if err := run([]string{"-sample"}, strings.NewReader(""), &sample, io.Discard); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.trace.jsonl")
	var out bytes.Buffer
	if err := run([]string{"-input", "-", "-trace", path, "-request-id", "trace-me"}, bytes.NewReader(sample.Bytes()), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := json.Unmarshal(out.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.RequestID != "trace-me" {
		t.Fatalf("response requestId %q, want trace-me", resp.RequestID)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := roarray.ReadSpanEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range events {
		if ev.Name == "localize.grid" && ev.DurNs >= 0 {
			found = true
			if ev.Req != "trace-me" {
				t.Fatalf("localize.grid span req %q, want trace-me", ev.Req)
			}
		}
	}
	if !found {
		t.Fatalf("trace has no localize.grid span (%d events)", len(events))
	}
}

// TestRequestIDMinted: without -request-id the tool mints a 16-hex id.
func TestRequestIDMinted(t *testing.T) {
	var sample bytes.Buffer
	if err := run([]string{"-sample"}, strings.NewReader(""), &sample, io.Discard); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-input", "-"}, bytes.NewReader(sample.Bytes()), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := json.Unmarshal(out.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.RequestID) != 16 {
		t.Fatalf("minted requestId %q, want 16 hex chars", resp.RequestID)
	}
}
