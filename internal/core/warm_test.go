package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"roarray/internal/sparse"
	"roarray/internal/spectra"
	"roarray/internal/wireless"
)

// warmTestConfig is a small but real estimation problem: the Intel 5300
// array with reduced grids so the tests stay fast.
func warmTestConfig(warm bool) Config {
	ofdm := wireless.Intel5300OFDM()
	return Config{
		Array:         wireless.Intel5300Array(),
		OFDM:          ofdm,
		ThetaGrid:     spectra.UniformGrid(0, 180, 31),
		TauGrid:       spectra.UniformGrid(0, ofdm.MaxToA(), 8),
		SolverOptions: []sparse.Option{sparse.WithMaxIters(150)},
		Warm:          warm,
	}
}

// warmBurst generates a burst of packets from one channel: consecutive
// measurements with neighbouring solutions.
func warmBurst(t *testing.T, seed int64, packets int) []*wireless.CSI {
	t.Helper()
	gen, err := wireless.NewGenerator(&wireless.ChannelConfig{
		Array: wireless.Intel5300Array(),
		OFDM:  wireless.Intel5300OFDM(),
		Paths: []wireless.Path{
			{AoADeg: 62, ToA: 35e-9, Gain: 1},
			{AoADeg: 128, ToA: 180e-9, Gain: 0.6},
		},
		SNRdB: 15,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*wireless.CSI, packets)
	for i := range out {
		if out[i], err = gen.Packet(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestEstimatorWarmMatchesColdPerPacket: across a 64-packet burst, the
// serving profile's per-packet AoA spectra are bitwise the default
// profile's: the profile changes only the joint solver, and the AoA solver
// is exactly the default one.
func TestEstimatorWarmMatchesColdPerPacket(t *testing.T) {
	cold, err := NewEstimator(warmTestConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewEstimator(warmTestConfig(true))
	if err != nil {
		t.Fatal(err)
	}

	burst := warmBurst(t, 42, 64)
	for pkt, csi := range burst {
		cs, _, err := cold.EstimateAoA(context.Background(), csi)
		if err != nil {
			t.Fatalf("packet %d cold: %v", pkt, err)
		}
		wsp, _, err := warm.EstimateAoA(context.Background(), csi)
		if err != nil {
			t.Fatalf("packet %d warm: %v", pkt, err)
		}
		if len(wsp.Power) != len(cs.Power) {
			t.Fatalf("packet %d: %d spectrum bins, want %d", pkt, len(wsp.Power), len(cs.Power))
		}
		for i := range cs.Power {
			if math.Float64bits(wsp.Power[i]) != math.Float64bits(cs.Power[i]) ||
				math.Float64bits(wsp.ThetaDeg[i]) != math.Float64bits(cs.ThetaDeg[i]) {
				t.Fatalf("packet %d bin %d: warm (%v, %v), cold (%v, %v)", pkt, i, wsp.ThetaDeg[i], wsp.Power[i], cs.ThetaDeg[i], cs.Power[i])
			}
		}
	}
}

// requireSpectrum2DBits fails unless the two spectra are bitwise equal.
func requireSpectrum2DBits(t *testing.T, what string, got, want *spectra.Spectrum2D) {
	t.Helper()
	if len(got.Power) != len(want.Power) {
		t.Fatalf("%s: %d spectrum rows, want %d", what, len(got.Power), len(want.Power))
	}
	diff := 0
	for i := range want.Power {
		for j := range want.Power[i] {
			if math.Float64bits(got.Power[i][j]) != math.Float64bits(want.Power[i][j]) {
				diff++
			}
		}
	}
	if diff > 0 {
		t.Fatalf("%s: %d spectrum cells differ bitwise", what, diff)
	}
}

// requireLocalizeBits fails unless the two results carry bitwise-equal
// positions, per-link AoAs and peaks, and the same solve and search reports.
func requireLocalizeBits(t *testing.T, what string, got, want *LocalizeResult) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.Position.X, want.Position.X) || !same(got.Position.Y, want.Position.Y) {
		t.Fatalf("%s: position %+v, want %+v", what, got.Position, want.Position)
	}
	if len(got.Links) != len(want.Links) || got.Search != want.Search {
		t.Fatalf("%s: %d links and search %+v, want %d and %+v", what, len(got.Links), got.Search, len(want.Links), want.Search)
	}
	for i, w := range want.Links {
		g := got.Links[i]
		if !same(g.AoADeg, w.AoADeg) || !same(g.Peak.ThetaDeg, w.Peak.ThetaDeg) ||
			!same(g.Peak.Tau, w.Peak.Tau) || !same(g.Peak.Power, w.Peak.Power) || g.Solve != w.Solve {
			t.Fatalf("%s: link %d = (%v %+v %+v), want (%v %+v %+v)", what, i, g.AoADeg, g.Peak, g.Solve, w.AoADeg, w.Peak, w.Solve)
		}
	}
}

// TestWarmAnswersIndependentOfHistory: under the serving profile a solve's
// answer depends only on its own input. The same fused burst solved first,
// again, and after unrelated bursts gives a bitwise-identical spectrum, and a
// request's batch result is bitwise the same alone and at every
// position of a batch.
func TestWarmAnswersIndependentOfHistory(t *testing.T) {
	cfg := engineTestEstimator(t).Config()
	cfg.Warm = true
	est, err := NewEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := engineTestRequests(t, 4, 4, 777)
	burst := reqs[0].Links[0].Packets
	first, _, err := est.EstimateJointFusedInfoCtx(context.Background(), burst)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := est.EstimateJointFusedInfoCtx(context.Background(), burst)
	if err != nil {
		t.Fatal(err)
	}
	requireSpectrum2DBits(t, "re-solve", again, first)
	for r, req := range reqs[1:] {
		for l, link := range req.Links {
			if _, _, err := est.EstimateJointFusedInfoCtx(context.Background(), link.Packets); err != nil {
				t.Fatal(err)
			}
			after, _, err := est.EstimateJointFusedInfoCtx(context.Background(), burst)
			if err != nil {
				t.Fatal(err)
			}
			requireSpectrum2DBits(t, fmt.Sprintf("after request %d link %d", r+1, l), after, first)
		}
	}

	eng, err := NewEngine(est, 2)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := eng.Localize(context.Background(), reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	for pos := range reqs {
		batch := append([]*LocalizeRequest(nil), reqs[1:]...)
		batch = append(batch[:pos], append([]*LocalizeRequest{reqs[0]}, batch[pos:]...)...)
		results, errs := localizeBatch(context.Background(), eng, batch)
		if errs[pos] != nil {
			t.Fatal(errs[pos])
		}
		requireLocalizeBits(t, fmt.Sprintf("batch position %d", pos), results[pos], solo)
	}
}

// TestEstimatorWarmConcurrentHammer hammers one shared serving-profile
// estimator from 16 goroutines solving distinct bursts, per packet (AoA) and
// fused (joint, on the lazily built Kronecker solver every goroutine
// shares). Every answer must be bitwise equal to a serial reference from a
// separate estimator. Run under `go test -race`: the lazily built solvers are
// the shared state this gate covers.
func TestEstimatorWarmConcurrentHammer(t *testing.T) {
	const goroutines = 16
	warm, err := NewEstimator(warmTestConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewEstimator(warmTestConfig(true))
	if err != nil {
		t.Fatal(err)
	}

	bursts := make([][]*wireless.CSI, goroutines)
	refs := make([][]*spectra.Spectrum1D, goroutines)
	fusedRefs := make([]*spectra.Spectrum2D, goroutines)
	for g := range bursts {
		bursts[g] = warmBurst(t, int64(3000+g), 4)
		refs[g] = make([]*spectra.Spectrum1D, len(bursts[g]))
		for i, csi := range bursts[g] {
			if refs[g][i], _, err = serial.EstimateAoA(context.Background(), csi); err != nil {
				t.Fatal(err)
			}
		}
		if fusedRefs[g], _, err = serial.EstimateJointFusedInfoCtx(context.Background(), bursts[g]); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	failures := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, csi := range bursts[g] {
					spec, _, err := warm.EstimateAoA(context.Background(), csi)
					if err != nil {
						failures <- err.Error()
						return
					}
					for j, p := range spec.Power {
						if math.Float64bits(p) != math.Float64bits(refs[g][i].Power[j]) {
							failures <- fmt.Sprintf("goroutine %d round %d packet %d: AoA spectrum differs from the serial reference", g, round, i)
							return
						}
					}
				}
				fused, _, err := warm.EstimateJointFusedInfoCtx(context.Background(), bursts[g])
				if err != nil {
					failures <- err.Error()
					return
				}
				for i, row := range fused.Power {
					for j, p := range row {
						if math.Float64bits(p) != math.Float64bits(fusedRefs[g].Power[i][j]) {
							failures <- fmt.Sprintf("goroutine %d round %d: fused spectrum differs from the serial reference", g, round)
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

// TestFootprintBytesFormula pins what FootprintBytes counts as resident for
// the 3-antenna, 30-subcarrier, 31 x 8 grid of warmTestConfig: the AoA
// dictionary and its Cholesky factor, the joint solver's Kronecker factor
// pair and its conjugates (30 x 8 and 3 x 31 each), and the factored ridge
// step (three 8 x 8 H_m blocks and the rotated 3 x 31 AoA factor with its
// conjugate). The dense 90 x 248 joint dictionary is counted only under
// Fallback, whose OMP stage keeps it; the joint solver never forms it. The
// count is the same with and without the serving profile.
func TestFootprintBytesFormula(t *testing.T) {
	const c = 16
	base := int64(3*31*c+3*3*c) + 2*(30*8+3*31)*c + (3*8*8+2*3*31)*c
	for _, fallback := range []bool{false, true} {
		want := base
		if fallback {
			want += 90 * 31 * 8 * c
		}
		for _, warm := range []bool{false, true} {
			cfg := warmTestConfig(warm)
			cfg.Fallback = fallback
			e, err := NewEstimator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := e.FootprintBytes(); got != want {
				t.Errorf("fallback=%v warm=%v: FootprintBytes = %d, want %d", fallback, warm, got, want)
			}
		}
	}
}
