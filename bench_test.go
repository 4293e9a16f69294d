// Top-level benchmarks: one per figure in the paper's evaluation (Figs. 2-4
// and 6-8, plus the Sec. III-C complexity study), each driving the same
// runner as cmd/roabench at reduced scale, plus micro-benchmarks of the
// computational kernels (sparse solves, MUSIC spectra, dictionary builds).
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
package roarray_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"roarray"
	"roarray/internal/core"
	"roarray/internal/experiments"
	"roarray/internal/music"
	"roarray/internal/obs"
	"roarray/internal/sparse"
	"roarray/internal/testbed"
	"roarray/internal/wireless"
)

// benchOptions keeps per-iteration work bounded so the full bench suite
// finishes in minutes; raise via cmd/roabench for paper-scale runs.
func benchOptions() experiments.Options {
	return experiments.Options{
		Seed:        1,
		Locations:   2,
		Packets:     5,
		APs:         4,
		ThetaPoints: 31,
		TauPoints:   12,
		SolverIters: 80,
	}
}

func runFigure(b *testing.B, id string) {
	b.Helper()
	runner, _ := experiments.Get(id)
	if runner == nil {
		b.Fatalf("figure %s not registered", id)
	}
	opt := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runner(io.Discard, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2MusicSpectrumVsSNR(b *testing.B)  { runFigure(b, "2") }
func BenchmarkFig3IterativeSharpening(b *testing.B) { runFigure(b, "3") }
func BenchmarkFig4JointSpectrum(b *testing.B)       { runFigure(b, "4") }
func BenchmarkFig6Localization(b *testing.B)        { runFigure(b, "6") }
func BenchmarkFig7AoAAccuracy(b *testing.B)         { runFigure(b, "7") }
func BenchmarkFig8aVaryAPs(b *testing.B)            { runFigure(b, "8a") }
func BenchmarkFig8bCalibration(b *testing.B)        { runFigure(b, "8b") }
func BenchmarkFig8cPolarization(b *testing.B)       { runFigure(b, "8c") }
func BenchmarkComplexityJointSolveSweep(b *testing.B) {
	runFigure(b, "cx")
}
func BenchmarkAblationOffGrid(b *testing.B) { runFigure(b, "og") }
func BenchmarkAblationSolvers(b *testing.B) { runFigure(b, "ab") }
func BenchmarkAblationFusion(b *testing.B)  { runFigure(b, "fs") }

// --- Kernel micro-benchmarks -------------------------------------------

func benchChannel(b *testing.B) (*roarray.Estimator, []*roarray.CSI) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	arr := roarray.Intel5300Array()
	ofdm := roarray.Intel5300OFDM()
	est, err := roarray.NewEstimator(roarray.Config{
		Array:     arr,
		OFDM:      ofdm,
		ThetaGrid: roarray.UniformGrid(0, 180, 61),
		TauGrid:   roarray.UniformGrid(0, ofdm.MaxToA(), 25),
	})
	if err != nil {
		b.Fatal(err)
	}
	burst, err := roarray.GenerateBurst(&roarray.ChannelConfig{
		Array: arr, OFDM: ofdm,
		Paths: []roarray.Path{
			{AoADeg: 120, ToA: 60e-9, Gain: 1},
			{AoADeg: 40, ToA: 260e-9, Gain: 0.7},
		},
		SNRdB:             8,
		MaxDetectionDelay: 200e-9,
	}, 15, rng)
	if err != nil {
		b.Fatal(err)
	}
	return est, burst
}

// BenchmarkJointSolveSinglePacket measures one Eq. 18 sparse solve — the
// unit of work behind every ROArray spectrum.
func BenchmarkJointSolveSinglePacket(b *testing.B) {
	est, burst := benchChannel(b)
	if _, _, err := est.EstimateJoint(context.Background(), burst[0]); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := est.EstimateJoint(context.Background(), burst[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJointSolveFused15 measures the l1-SVD fusion of a 15-packet
// burst (the paper's per-link working point for Figs. 6-7).
func BenchmarkJointSolveFused15(b *testing.B) {
	est, burst := benchChannel(b)
	if _, _, err := est.EstimateJointFusedInfoCtx(context.Background(), burst); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := est.EstimateJointFusedInfoCtx(context.Background(), burst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpotFiJointSpectrum measures the baseline's smoothed MUSIC
// spectrum on one packet, the cost SpotFi pays per packet.
func BenchmarkSpotFiJointSpectrum(b *testing.B) {
	_, burst := benchChannel(b)
	cfg := &music.SpotFiConfig{Array: roarray.Intel5300Array(), OFDM: roarray.Intel5300OFDM()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := music.JointSpectrum(cfg, burst[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArrayTrackSpatialMUSIC measures the spatial-only MUSIC estimate.
func BenchmarkArrayTrackSpatialMUSIC(b *testing.B) {
	_, burst := benchChannel(b)
	cfg := &music.SpatialConfig{Array: roarray.Intel5300Array()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := music.SpatialSpectrum(cfg, burst[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDictionaryBuild measures joint dictionary construction at the
// paper's Ntheta=90, Ntau=50 working point.
func BenchmarkDictionaryBuild(b *testing.B) {
	arr := roarray.Intel5300Array()
	ofdm := roarray.Intel5300OFDM()
	theta := roarray.UniformGrid(0, 180, 90)
	tau := roarray.UniformGrid(0, ofdm.MaxToA(), 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildJointDictionary(arr, ofdm, theta, tau)
	}
}

// BenchmarkADMMvsFISTA compares the two convex solvers on the same LASSO
// instance (an ablation the paper's Sec. III-C cost discussion motivates).
func BenchmarkADMMvsFISTA(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	arr := roarray.Intel5300Array()
	ofdm := roarray.Intel5300OFDM()
	dict := core.BuildJointDictionary(arr, ofdm,
		roarray.UniformGrid(0, 180, 46), roarray.UniformGrid(0, ofdm.MaxToA(), 20))
	csi, err := wireless.Generate(&wireless.ChannelConfig{
		Array: arr, OFDM: ofdm,
		Paths: []wireless.Path{{AoADeg: 120, ToA: 60e-9, Gain: 1}},
		SNRdB: 10,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	y := csi.StackedVector()
	for _, method := range []sparse.Method{sparse.MethodADMM, sparse.MethodFISTA} {
		b.Run(method.String(), func(b *testing.B) {
			solver, err := sparse.NewSolver(dict, sparse.WithMethod(method), sparse.WithMaxIters(120))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solver.Solve(y, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Batch engine benchmarks -------------------------------------------

// batchWorkload builds the 6-AP testbed batch used by the serial/parallel
// engine comparison: requests at the default deployment with reduced grids
// so one batch stays in benchmark range.
func batchWorkload(b testing.TB, reg *roarray.Metrics) (*roarray.Estimator, []*core.LocalizeRequest) {
	b.Helper()
	dep := testbed.Default()
	reqs, _, err := dep.BatchRequests(8, 4, testbed.ScenarioConfig{Band: testbed.BandHigh}, 1)
	if err != nil {
		b.Fatal(err)
	}
	ofdm := roarray.Intel5300OFDM()
	est, err := roarray.NewEstimator(roarray.Config{
		Array:     roarray.Intel5300Array(),
		OFDM:      ofdm,
		ThetaGrid: roarray.UniformGrid(0, 180, 46),
		TauGrid:   roarray.UniformGrid(0, ofdm.MaxToA(), 20),
		SolverOptions: []sparse.Option{
			sparse.WithMaxIters(80),
		},
		Metrics: reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	return est, reqs
}

func benchLocalizeBatch(b *testing.B, workers int, reg *roarray.Metrics) {
	est, reqs := batchWorkload(b, reg)
	eng, err := roarray.NewEngine(est, workers)
	if err != nil {
		b.Fatal(err)
	}
	items := batchItems(reqs)
	// Warm the dictionary/factorization caches outside the timer.
	if err := eng.LocalizeBatchItems(context.Background(), items[:1])[0].Err; err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, out := range eng.LocalizeBatchItems(context.Background(), items) {
			if out.Err != nil {
				b.Fatal(out.Err)
			}
		}
	}
}

// batchItems wraps stateless requests as batch slots.
func batchItems(reqs []*roarray.LocalizeRequest) []roarray.BatchItem {
	items := make([]roarray.BatchItem, len(reqs))
	for i, req := range reqs {
		items[i].Req = req
	}
	return items
}

// BenchmarkLocalizeBatchSerial measures the 8-request testbed batch on one
// worker — the pre-engine serving shape. No metrics registry is attached, so
// this is also the nil-registry fast path: instrumentation must cost only
// pointer checks here (compare against ...SerialMetrics).
func BenchmarkLocalizeBatchSerial(b *testing.B) { benchLocalizeBatch(b, 1, nil) }

// BenchmarkLocalizeBatchParallel measures the same batch with the pool sized
// by GOMAXPROCS; the ratio to the serial run is the engine's speedup.
func BenchmarkLocalizeBatchParallel(b *testing.B) { benchLocalizeBatch(b, 0, nil) }

// BenchmarkLocalizeBatchSerialMetrics is the serial batch with a live
// metrics registry recording solver, estimator, and engine telemetry; the
// delta against BenchmarkLocalizeBatchSerial is the enabled-instrumentation
// cost (a handful of atomic updates and two clock reads per request).
func BenchmarkLocalizeBatchSerialMetrics(b *testing.B) {
	benchLocalizeBatch(b, 1, roarray.NewMetrics())
}

// --- Observability overhead ---------------------------------------------

// obsBatchBench runs the serial testbed batch the way the serving layer
// does — per-slot contexts through LocalizeBatchItems — either with
// metrics only, or with the full request-observability path on top: request
// ids on every context (tagging spans and histogram exemplars), one wide
// event logged per request, and SLO window observation.
type obsBatchBench struct {
	eng    *roarray.Engine
	items  []roarray.BatchItem
	ids    []string
	reg    *roarray.Metrics
	events *obs.EventLog
	slo    *obs.SLO

	// Self-diagnosis layer (enableDiag): the flight-recorder ring receives a
	// copy of every request event, the runtime collector samples on scrapes,
	// and a trigger engine ticks in the background without firing.
	recorder *obs.FlightRecorder
	trig     *obs.TriggerEngine
}

// lightBatchWorkload is a scaled-down batchWorkload for timing tests: the
// same pipeline shape at ~1/20 the per-batch cost, which makes the relative
// overhead bound *stricter* (the fixed per-request obs cost is divided by
// less base work).
func lightBatchWorkload(tb testing.TB, reg *roarray.Metrics) (*roarray.Estimator, []*core.LocalizeRequest) {
	tb.Helper()
	dep := testbed.Default()
	reqs, _, err := dep.BatchRequests(4, 2, testbed.ScenarioConfig{Band: testbed.BandHigh}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	ofdm := roarray.Intel5300OFDM()
	est, err := roarray.NewEstimator(roarray.Config{
		Array:         roarray.Intel5300Array(),
		OFDM:          ofdm,
		ThetaGrid:     roarray.UniformGrid(0, 180, 31),
		TauGrid:       roarray.UniformGrid(0, ofdm.MaxToA(), 12),
		SolverOptions: []sparse.Option{sparse.WithMaxIters(50)},
		Metrics:       reg,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return est, reqs
}

func newObsBatchBench(tb testing.TB, full, light bool) *obsBatchBench {
	tb.Helper()
	reg := roarray.NewMetrics()
	var est *roarray.Estimator
	var reqs []*core.LocalizeRequest
	if light {
		est, reqs = lightBatchWorkload(tb, reg)
	} else {
		est, reqs = batchWorkload(tb, reg)
	}
	eng, err := roarray.NewEngine(est, 1)
	if err != nil {
		tb.Fatal(err)
	}
	bb := &obsBatchBench{eng: eng, items: batchItems(reqs), reg: reg,
		ids: make([]string, len(reqs))}
	if full {
		for i := range bb.items {
			bb.ids[i] = roarray.NewRequestID()
			bb.items[i].Ctx = roarray.WithRequestID(context.Background(), bb.ids[i])
		}
		bb.events = obs.NewEventLog(io.Discard, 4096)
		bb.slo = obs.NewSLO(obs.SLOConfig{})
		bb.slo.Bind(reg)
	}
	// Warm the dictionary/factorization caches outside any timer.
	if err := eng.LocalizeBatchItems(context.Background(), bb.items[:1])[0].Err; err != nil {
		tb.Fatal(err)
	}
	return bb
}

func (bb *obsBatchBench) run(tb testing.TB) {
	t0 := time.Now()
	outs := bb.eng.LocalizeBatchItems(context.Background(), bb.items)
	elapsed := time.Since(t0)
	for i, out := range outs {
		if out.Err != nil {
			tb.Fatal(out.Err)
		}
		if bb.events == nil {
			continue
		}
		res := out.Res
		ev := obs.RequestEvent{
			ID: bb.ids[i], Outcome: "ok", Status: 200,
			TotalMillis:    elapsed.Seconds() * 1e3,
			BatchSize:      len(bb.items),
			SearchMode:     res.Search.Mode,
			CellsEvaluated: res.Search.Evaluated(),
			Solver:         res.Links[0].Solve.Solver,
			Est:            []float64{res.Position.X, res.Position.Y},
		}
		bb.recorder.RecordRequest(ev) // nil-safe; the serve layer's fan-out
		bb.events.Log(ev)
		bb.slo.Observe(true, elapsed)
	}
}

// enableDiag layers the self-diagnosis stack on an already-full obs bench
// the way roaserve -diag-dir does: flight recorder (requests via the event
// fan-out, spans via the tracer mirror — no tracer here, so requests only),
// runtime collector on the registry, and a background trigger engine ticking
// at the serving default cadence with signals that never fire.
func (bb *obsBatchBench) enableDiag(tb testing.TB) {
	tb.Helper()
	bb.recorder = obs.NewFlightRecorder(256, 1024)
	bb.recorder.Bind(bb.reg)
	collector := obs.NewRuntimeCollector(bb.reg, 100*time.Millisecond)
	bb.trig = obs.NewTriggerEngine(obs.TriggerConfig{Interval: time.Second},
		obs.TriggerSignal{Name: "goroutines", Check: func() (bool, string) {
			return collector.Sample().Goroutines >= 1<<30, ""
		}})
	bb.trig.Start()
}

func (bb *obsBatchBench) close() {
	bb.trig.Stop() // nil-safe
	bb.events.Close()
}

// BenchmarkLocalizeBatchSerialObs is the serial batch with the full request
// observability stack engaged; the delta against ...SerialMetrics is the
// event-log + exemplar + SLO cost per request.
func BenchmarkLocalizeBatchSerialObs(b *testing.B) {
	bb := newObsBatchBench(b, true, false)
	defer bb.close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb.run(b)
	}
}

// TestObsOverheadBudget pins the enabled observability path's cost: the full
// stack (ids, events, exemplars, SLO) must stay within 5% of the
// metrics-only batch. Min-of-k timing with retries keeps scheduler noise
// from failing a healthy build; a real regression (e.g. a lock or an
// allocation per observation on the solve path) fails all three attempts.
func TestObsOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	plain := newObsBatchBench(t, false, true)
	full := newObsBatchBench(t, true, true)
	defer full.close()
	const iters = 6
	// Interleave the two sides so frequency scaling and scheduler drift hit
	// both equally, and compare best-of-k (the least-perturbed run of each).
	measurePair := func() (base, obs time.Duration) {
		base, obs = time.Duration(1<<63-1), time.Duration(1<<63-1)
		for i := 0; i < iters; i++ {
			t0 := time.Now()
			plain.run(t)
			if d := time.Since(t0); d < base {
				base = d
			}
			t0 = time.Now()
			full.run(t)
			if d := time.Since(t0); d < obs {
				obs = d
			}
		}
		return base, obs
	}
	var last string
	for attempt := 0; attempt < 3; attempt++ {
		base, obs := measurePair()
		ratio := float64(obs) / float64(base)
		if ratio <= 1.05 {
			return
		}
		last = fmt.Sprintf("attempt %d: full obs %v vs metrics-only %v (ratio %.3f > 1.05)",
			attempt+1, obs, base, ratio)
		t.Log(last)
	}
	t.Fatal("observability overhead over budget: " + last)
}

// TestDiagOverheadBudget pins the self-diagnosis layer's cost on top of the
// full observability path: flight-recorder ring appends on every request,
// runtime-collector gauges bound to the registry, and an armed (never-firing)
// trigger engine ticking in the background must stay within 5% of the PR 7
// full-obs batch. Same interleaved min-of-k discipline as
// TestObsOverheadBudget.
func TestDiagOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	plain := newObsBatchBench(t, true, true)
	defer plain.close()
	diag := newObsBatchBench(t, true, true)
	diag.enableDiag(t)
	defer diag.close()
	const iters = 6
	measurePair := func() (base, withDiag time.Duration) {
		base, withDiag = time.Duration(1<<63-1), time.Duration(1<<63-1)
		for i := 0; i < iters; i++ {
			t0 := time.Now()
			plain.run(t)
			if d := time.Since(t0); d < base {
				base = d
			}
			t0 = time.Now()
			diag.run(t)
			if d := time.Since(t0); d < withDiag {
				withDiag = d
			}
		}
		return base, withDiag
	}
	var last string
	for attempt := 0; attempt < 3; attempt++ {
		base, withDiag := measurePair()
		ratio := float64(withDiag) / float64(base)
		if ratio <= 1.05 {
			return
		}
		last = fmt.Sprintf("attempt %d: full obs + diag %v vs full obs %v (ratio %.3f > 1.05)",
			attempt+1, withDiag, base, ratio)
		t.Log(last)
	}
	t.Fatal("self-diagnosis overhead over budget: " + last)
}

// BenchmarkLocalizeGridSearch measures the Eq. 19 grid search over the
// 18 m x 12 m room at 10 cm resolution.
func BenchmarkLocalizeGridSearch(b *testing.B) {
	dep := roarray.DefaultDeployment()
	obs := make([]roarray.APObservation, len(dep.APs))
	target := roarray.Point{X: 7, Y: 5}
	for i, ap := range dep.APs {
		obs[i] = roarray.APObservation{
			Pos:     ap.Pos,
			AxisDeg: ap.AxisDeg,
			AoADeg:  roarray.ExpectedAoA(ap.Pos, ap.AxisDeg, target),
			RSSIdBm: -50,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := roarray.Localize(context.Background(), obs, dep.Room, 0.1, roarray.SearchConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
