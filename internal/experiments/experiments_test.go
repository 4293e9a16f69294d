package experiments

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"roarray/internal/core"
	"roarray/internal/quality"
	"roarray/internal/spectra"
	"roarray/internal/testbed"
	"roarray/internal/wireless"
)

// tinyOptions keeps figure runs fast enough for the unit-test suite while
// still executing every code path.
func tinyOptions() Options {
	return Options{
		Seed:        1,
		Locations:   2,
		Packets:     3,
		APs:         4,
		ThetaPoints: 31,
		TauPoints:   12,
		SolverIters: 60,
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Locations != 10 || o.Packets != 15 || o.APs != 6 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	if o.ThetaPoints != 46 || o.TauPoints != 20 || o.SolverIters != 150 {
		t.Fatalf("grid defaults wrong: %+v", o)
	}
	// Explicit values survive.
	o2 := Options{Locations: 3, Packets: 2}.withDefaults()
	if o2.Locations != 3 || o2.Packets != 2 {
		t.Fatalf("explicit values overridden: %+v", o2)
	}
}

func TestRegistry(t *testing.T) {
	for _, id := range []string{"2", "3", "4", "6", "7", "8a", "8b", "8c", "cx"} {
		if r, _ := Get(id); r == nil {
			t.Fatalf("figure %q not registered", id)
		}
	}
	for _, id := range []string{"og", "ab", "fs", "fault", "track"} {
		if r, _ := Get(id); r == nil {
			t.Fatalf("ablation %q not registered", id)
		}
	}
	r, valid := Get("nope")
	if r != nil {
		t.Fatal("unknown figure resolved")
	}
	if len(valid) != 14 {
		t.Fatalf("valid list has %d entries, want 14", len(valid))
	}
	// The fault sweep and track experiment are addressable but must stay out
	// of the "-fig all" sweep: their artifacts gate against BENCH_fault.json
	// and BENCH_track.json, not the fault-free quality baseline.
	for _, id := range AllIDs() {
		if id == "fault" || id == "track" {
			t.Fatalf("%q leaked into AllIDs(); it would poison the quality baseline", id)
		}
	}
}

func TestBandLabels(t *testing.T) {
	if !strings.Contains(bandLabel(testbed.BandHigh), "high") ||
		!strings.Contains(bandLabel(testbed.BandMedium), "medium") ||
		!strings.Contains(bandLabel(testbed.BandLow), "low") {
		t.Fatal("band labels wrong")
	}
}

func TestTopPeaks(t *testing.T) {
	peaks := []spectra.Peak{{Power: 3}, {Power: 2}, {Power: 1}}
	if got := topPeaks(peaks, 2); len(got) != 2 {
		t.Fatalf("topPeaks trim failed: %d", len(got))
	}
	if got := topPeaks(peaks, 5); len(got) != 3 {
		t.Fatalf("topPeaks passthrough failed: %d", len(got))
	}
}

func TestNearestLinks(t *testing.T) {
	links := []testbed.Link{
		{APIndex: 0, AP: testbed.AP{Pos: core.Point{X: 10, Y: 0}}},
		{APIndex: 1, AP: testbed.AP{Pos: core.Point{X: 1, Y: 0}}},
		{APIndex: 2, AP: testbed.AP{Pos: core.Point{X: 5, Y: 0}}},
	}
	got := nearestLinks(links, core.Point{X: 0, Y: 0}, 2)
	if len(got) != 2 || got[0].APIndex != 1 || got[1].APIndex != 2 {
		t.Fatalf("nearestLinks wrong: %+v", got)
	}
	// Input order must be preserved in the original slice.
	if links[0].APIndex != 0 {
		t.Fatal("nearestLinks mutated its input")
	}
}

func TestEstimateLinkFallbacks(t *testing.T) {
	eng, err := newEvalEngine(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Unknown system and empty packets both degrade to the broadside
	// fallback rather than crashing.
	link := &testbed.Link{TrueAoADeg: 100}
	got := eng.estimateLink(context.Background(), "bogus", link, nil)
	if got.DirectAoADeg != 90 || got.ClosestPeakErr != 180 {
		t.Fatalf("unknown system fallback wrong: %+v", got)
	}
	got = eng.estimateLink(context.Background(), SysSpotFi, link, nil)
	if got.DirectAoADeg != 90 {
		t.Fatalf("empty-burst fallback wrong: %+v", got)
	}
}

func TestEvaluateBandShape(t *testing.T) {
	opt := tinyOptions()
	eng, err := newEvalEngine(opt)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	ev, err := eng.evaluateBand(context.Background(), testbed.BandHigh, []string{SysROArray}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.LocErr[SysROArray]) != opt.Locations {
		t.Fatalf("got %d localization samples, want %d", len(ev.LocErr[SysROArray]), opt.Locations)
	}
	if len(ev.AoAErr[SysROArray]) != opt.Locations*opt.APs {
		t.Fatalf("got %d AoA samples, want %d", len(ev.AoAErr[SysROArray]), opt.Locations*opt.APs)
	}
	for _, v := range ev.LocErr[SysROArray] {
		if v < 0 || v > 25 {
			t.Fatalf("localization error %v out of plausible range", v)
		}
	}
}

func TestRunFig2(t *testing.T) {
	var buf bytes.Buffer
	if err := RunFig2(&buf, tinyOptions()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig. 2", "18 dB", "<0 dB", "closest-peak"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig. 2 output missing %q", want)
		}
	}
}

func TestRunFig3(t *testing.T) {
	var buf bytes.Buffer
	if err := RunFig3(&buf, tinyOptions()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"3 iterations", "6 iterations", "9 iterations", "14 iterations"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig. 3 output missing %q", want)
		}
	}
}

func TestRunFig4(t *testing.T) {
	var buf bytes.Buffer
	if err := RunFig4(&buf, tinyOptions()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"packet A", "packet B", "30 packets fused", "direct path"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig. 4 output missing %q", want)
		}
	}
}

func TestRunFig6AndFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("comparative evaluation is slow")
	}
	var buf bytes.Buffer
	if err := RunFig6(&buf, tinyOptions()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{SysROArray, SysSpotFi, SysArrayTrack, "low SNRs", "paper median"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig. 6 output missing %q", want)
		}
	}
	buf.Reset()
	if err := RunFig7(&buf, tinyOptions()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "AoA estimation error") {
		t.Fatal("Fig. 7 header missing")
	}
}

func TestRunFig8Family(t *testing.T) {
	if testing.Short() {
		t.Skip("comparative evaluation is slow")
	}
	var buf bytes.Buffer
	if err := RunFig8a(&buf, tinyOptions()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "3 APs") {
		t.Fatal("Fig. 8a output missing AP sweep")
	}
	buf.Reset()
	if err := RunFig8b(&buf, tinyOptions()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Calibration using ROArray", "Calibration using MUSIC", "W/o calibration"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig. 8b output missing %q", want)
		}
	}
	buf.Reset()
	if err := RunFig8c(&buf, tinyOptions()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "20-45 deg") {
		t.Fatal("Fig. 8c output missing deviation band")
	}
}

func TestRunComplexity(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweep is slow")
	}
	var buf bytes.Buffer
	opt := tinyOptions()
	opt.Recorder = quality.NewRecorder(nil)
	if err := RunComplexity(&buf, opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "90 x 50") || !strings.Contains(out, "SpotFi smoothed MUSIC") {
		t.Fatal("complexity output incomplete")
	}
	// Every recorded dictionary build time is a duration of its own, never
	// a difference of two timings that noise can take below zero.
	builds := 0
	for _, e := range opt.Recorder.Artifact("test", opt.Seed, nil).Experiments {
		for _, a := range e.Aggregates {
			if !strings.HasPrefix(a.Name, "dict_build_s.") {
				continue
			}
			builds++
			if a.Median < 0 {
				t.Errorf("%s = %v s, want >= 0", a.Name, a.Median)
			}
		}
	}
	if builds != 4 {
		t.Errorf("%d dict_build_s values recorded, want one per grid (4)", builds)
	}
}

func TestRunAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweeps are slow")
	}
	var buf bytes.Buffer
	if err := RunAblationSolvers(&buf, tinyOptions()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"admm", "fista", "omp"} {
		if !strings.Contains(out, want) {
			t.Fatalf("solver ablation output missing %q", want)
		}
	}
	buf.Reset()
	if err := RunAblationOffGrid(&buf, tinyOptions()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "off-grid err") {
		t.Fatal("off-grid ablation output incomplete")
	}
}

func TestEstimatorConfigFromOptions(t *testing.T) {
	opt := tinyOptions()
	cfg := opt.estimatorConfig()
	if len(cfg.ThetaGrid) != opt.ThetaPoints || len(cfg.TauGrid) != opt.TauPoints {
		t.Fatalf("grid sizes %d/%d, want %d/%d",
			len(cfg.ThetaGrid), len(cfg.TauGrid), opt.ThetaPoints, opt.TauPoints)
	}
	if cfg.Array.NumAntennas != wireless.Intel5300Array().NumAntennas {
		t.Fatal("array not propagated")
	}
}
