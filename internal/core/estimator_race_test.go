package core

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"roarray/internal/obs"
	"roarray/internal/sparse"
	"roarray/internal/spectra"
	"roarray/internal/wireless"
)

// TestEstimatorConcurrentUse hammers one shared Estimator from 16 goroutines
// running EstimateAoA and EstimateJoint on distinct CSI measurements. Run
// under `go test -race`: the estimator's only shared state is the
// sync.Once-guarded dictionaries and solver factorizations, which are
// read-only after construction, and every solve allocates per-call scratch —
// this test is the regression gate that keeps it that way. Beyond race
// detection, every goroutine's spectra are compared bitwise against serial
// references for the same inputs, so cross-goroutine scratch sharing would
// fail even on a race-free-but-wrong implementation.
func TestEstimatorConcurrentUse(t *testing.T) {
	const goroutines = 16
	ofdm := wireless.Intel5300OFDM()
	est, err := NewEstimator(Config{
		Array:         wireless.Intel5300Array(),
		OFDM:          ofdm,
		ThetaGrid:     spectra.UniformGrid(0, 180, 31),
		TauGrid:       spectra.UniformGrid(0, ofdm.MaxToA(), 8),
		SolverOptions: []sparse.Option{sparse.WithMaxIters(40)},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Distinct per-goroutine measurements from private seeded generators.
	csis := make([]*wireless.CSI, goroutines)
	for g := range csis {
		var err error
		csis[g], err = wireless.Generate(&wireless.ChannelConfig{
			Array: wireless.Intel5300Array(),
			OFDM:  ofdm,
			Paths: []wireless.Path{
				{AoADeg: 20 + 140*float64(g)/goroutines, ToA: 40e-9, Gain: 1},
				{AoADeg: 160 - 100*float64(g)/goroutines, ToA: 220e-9, Gain: 0.5},
			},
			SNRdB: 12,
		}, rand.New(rand.NewSource(int64(1000+g))))
		if err != nil {
			t.Fatal(err)
		}
	}

	// Serial references, computed before any concurrency.
	refAoA := make([]*spectra.Spectrum1D, goroutines)
	refJoint := make([]*spectra.Spectrum2D, goroutines)
	for g, csi := range csis {
		if refAoA[g], _, err = est.EstimateAoA(context.Background(), csi); err != nil {
			t.Fatal(err)
		}
		if refJoint[g], _, err = est.EstimateJoint(context.Background(), csi); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 3
	var wg sync.WaitGroup
	failures := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				aoa, _, err := est.EstimateAoA(context.Background(), csis[g])
				if err != nil {
					failures <- err.Error()
					return
				}
				joint, _, err := est.EstimateJoint(context.Background(), csis[g])
				if err != nil {
					failures <- err.Error()
					return
				}
				for i := range aoa.Power {
					if math.Float64bits(aoa.Power[i]) != math.Float64bits(refAoA[g].Power[i]) {
						failures <- "concurrent AoA spectrum differs from serial reference"
						return
					}
				}
				for i := range joint.Power {
					for j := range joint.Power[i] {
						if math.Float64bits(joint.Power[i][j]) != math.Float64bits(refJoint[g].Power[i][j]) {
							failures <- "concurrent joint spectrum differs from serial reference"
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(failures)
	for msg := range failures {
		t.Fatal(msg)
	}
}

// TestEstimatorConcurrentUseWithObservability is the hammer test with a live
// metrics registry and tracer attached: 16 goroutines record into the same
// registry and emit spans through the same tracer while estimating. Run
// under `go test -race`, it gates the observability layer's concurrency
// safety; the bitwise comparison against a plain estimator's output also
// pins that instrumentation never perturbs the numerics.
func TestEstimatorConcurrentUseWithObservability(t *testing.T) {
	const goroutines = 16
	ofdm := wireless.Intel5300OFDM()
	cfg := Config{
		Array:         wireless.Intel5300Array(),
		OFDM:          ofdm,
		ThetaGrid:     spectra.UniformGrid(0, 180, 31),
		TauGrid:       spectra.UniformGrid(0, ofdm.MaxToA(), 8),
		SolverOptions: []sparse.Option{sparse.WithMaxIters(40)},
	}
	plain, err := NewEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	metered, err := NewEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}

	csis := make([]*wireless.CSI, goroutines)
	for g := range csis {
		var err error
		csis[g], err = wireless.Generate(&wireless.ChannelConfig{
			Array: wireless.Intel5300Array(),
			OFDM:  ofdm,
			Paths: []wireless.Path{
				{AoADeg: 20 + 140*float64(g)/goroutines, ToA: 40e-9, Gain: 1},
				{AoADeg: 160 - 100*float64(g)/goroutines, ToA: 220e-9, Gain: 0.5},
			},
			SNRdB: 12,
		}, rand.New(rand.NewSource(int64(2000+g))))
		if err != nil {
			t.Fatal(err)
		}
	}

	refs := make([]*spectra.Spectrum1D, goroutines)
	for g, csi := range csis {
		if refs[g], _, err = plain.EstimateAoA(context.Background(), csi); err != nil {
			t.Fatal(err)
		}
	}

	var trace traceBuffer
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(&trace))

	const rounds = 3
	var wg sync.WaitGroup
	failures := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				aoa, _, err := metered.EstimateAoA(ctx, csis[g])
				if err != nil {
					failures <- err.Error()
					return
				}
				for i := range aoa.Power {
					if math.Float64bits(aoa.Power[i]) != math.Float64bits(refs[g].Power[i]) {
						failures <- "metered concurrent AoA spectrum differs from plain serial reference"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(failures)
	for msg := range failures {
		t.Fatal(msg)
	}

	const solves = goroutines * rounds
	if got := reg.Counter("sparse.solve.total").Value(); got != solves {
		t.Fatalf("sparse.solve.total = %d, want %d", got, solves)
	}
	if got := reg.Counter("core.dict.builds_total").Value(); got != 1 {
		t.Fatalf("core.dict.builds_total = %d, want 1", got)
	}
	if got := reg.Counter("core.dict.cache_hits_total").Value(); got != solves-1 {
		t.Fatalf("core.dict.cache_hits_total = %d, want %d", got, solves-1)
	}
	events, err := obs.ReadEvents(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var aoaSpans int
	for _, ev := range events {
		if ev.Name == "estimate.aoa" {
			aoaSpans++
		}
	}
	if aoaSpans != solves {
		t.Fatalf("trace has %d estimate.aoa spans, want %d", aoaSpans, solves)
	}
}

// TestLinkWorkspaceConcurrentUse: 16 goroutines share one estimator and run
// EstimateDirectAoA, EstimateJointFusedInfoCtx and DirectPath over bursts of
// 1 to 5 packets in rotation, so pooled link workspaces pass between burst
// sizes, fusion ranks and goroutines. Every peak, SolveInfo and spectrum
// must equal its serial reference bit for bit, and a returned spectrum must
// not change when later estimates reuse the workspace it came from (`make
// race` runs this under -race).
func TestLinkWorkspaceConcurrentUse(t *testing.T) {
	const goroutines = 16
	cfg := smokeServingConfig()
	est, err := NewEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var bursts [][]*wireless.CSI
	for packets := 1; packets <= 5; packets++ {
		bursts = append(bursts, smokeBursts(t, cfg, 4, packets)...)
	}
	type link struct {
		peak spectra.Peak
		info SolveInfo
		spec *spectra.Spectrum2D
	}
	ctx := context.Background()
	want := make([]link, len(bursts))
	for i, b := range bursts {
		peak, info, err := est.EstimateDirectAoA(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		spec, _, err := est.EstimateJointFusedInfoCtx(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = link{peak, info, spec}
	}
	sameSpec := func(a, b *spectra.Spectrum2D) bool {
		for i := range a.Power {
			for j := range a.Power[i] {
				if math.Float64bits(a.Power[i][j]) != math.Float64bits(b.Power[i][j]) {
					return false
				}
			}
		}
		return true
	}
	samePeak := func(a, b spectra.Peak) bool {
		return math.Float64bits(a.ThetaDeg) == math.Float64bits(b.ThetaDeg) &&
			math.Float64bits(a.Tau) == math.Float64bits(b.Tau) && math.Float64bits(a.Power) == math.Float64bits(b.Power)
	}
	var wg sync.WaitGroup
	failures := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := range bursts {
				i := (g*7 + r) % len(bursts)
				peak, info, err := est.EstimateDirectAoA(ctx, bursts[i])
				if err != nil {
					failures <- err.Error()
					return
				}
				if !samePeak(peak, want[i].peak) || info != want[i].info {
					failures <- "concurrent EstimateDirectAoA differs from its serial reference"
					return
				}
				spec, _, err := est.EstimateJointFusedInfoCtx(ctx, bursts[i])
				if err != nil {
					failures <- err.Error()
					return
				}
				if _, _, err := est.EstimateDirectAoA(ctx, bursts[(i+1)%len(bursts)]); err != nil {
					failures <- err.Error()
					return
				}
				if !sameSpec(spec, want[i].spec) {
					failures <- "a returned spectrum differs from its serial reference"
					return
				}
				if p, err := est.DirectPath(spec); err != nil || !samePeak(p, want[i].peak) {
					failures <- "DirectPath on a returned spectrum differs from EstimateDirectAoA"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(failures)
	for msg := range failures {
		t.Fatal(msg)
	}
}
