package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"roarray"
	"roarray/internal/wireless"
)

func TestRoasimRoundTripThroughEstimator(t *testing.T) {
	var out, errs bytes.Buffer
	err := run([]string{
		"-ap", "1", "-x", "12", "-y", "6",
		"-packets", "8", "-band", "high", "-seed", "2",
	}, &out, &errs)
	if err != nil {
		t.Fatal(err)
	}
	if errs.Len() == 0 {
		t.Fatal("ground-truth summary missing from stderr")
	}

	// Replay the captured trace through the estimator: the direct-path AoA
	// must match the geometry of AP 1 at (17.9, 6) seeing a client at (12, 6).
	trace, err := wireless.ReadTrace(&out)
	if err != nil {
		t.Fatal(err)
	}
	burst, err := trace.Burst()
	if err != nil {
		t.Fatal(err)
	}
	if len(burst) != 8 {
		t.Fatalf("trace has %d packets, want 8", len(burst))
	}
	est, err := roarray.NewEstimator(roarray.Config{
		Array:     trace.Array,
		OFDM:      trace.OFDM,
		ThetaGrid: roarray.UniformGrid(0, 180, 61),
		TauGrid:   roarray.UniformGrid(0, trace.OFDM.MaxToA(), 25),
	})
	if err != nil {
		t.Fatal(err)
	}
	direct, _, err := est.EstimateDirectAoA(context.Background(), burst)
	if err != nil {
		t.Fatal(err)
	}
	dep := roarray.DefaultDeployment()
	want := roarray.ExpectedAoA(dep.APs[1].Pos, dep.APs[1].AxisDeg, roarray.Point{X: 12, Y: 6})
	if math.Abs(direct.ThetaDeg-want) > 8 {
		t.Fatalf("replayed direct AoA %.1f, want ~%.1f", direct.ThetaDeg, want)
	}
}

// TestRoasimTraceFlag checks -trace captures the scenario/burst/write stages.
func TestRoasimTraceFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	var out, errs bytes.Buffer
	err := run([]string{
		"-ap", "0", "-packets", "2", "-seed", "3", "-trace", path,
	}, &out, &errs)
	if err != nil {
		t.Fatal(err)
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
	seen := map[string]bool{}
	for _, ev := range events {
		seen[ev.Name] = true
	}
	for _, stage := range []string{"roasim.capture", "roasim.scenario", "roasim.burst", "roasim.write"} {
		if !seen[stage] {
			t.Errorf("trace missing stage %q", stage)
		}
	}
}

func TestRoasimValidation(t *testing.T) {
	var out, errs bytes.Buffer
	cases := [][]string{
		{"-band", "bogus"},
		{"-packets", "0"},
		{"-ap", "99"},
		{"-x", "-5"},
		{"-definitely-not-a-flag"},
	}
	for i, args := range cases {
		if err := run(args, &out, &errs); err == nil {
			t.Fatalf("case %d (%v) should error", i, args)
		}
	}
}
