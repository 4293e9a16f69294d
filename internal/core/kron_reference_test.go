package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"roarray/internal/sparse"
	"roarray/internal/spectra"
	"roarray/internal/wireless"
)

// denseReference returns an estimator with est's configuration whose joint
// solver is the dense one: ADMM with the (M*L)² Cholesky ridge step over the
// explicit space-delay dictionary, and no Kronecker factors. Every other step
// of the pipeline (alignment, fusion, kappa, reshaping) is the estimator's
// own, so the two differ only in how the joint solve is computed.
func denseReference(t *testing.T, est *Estimator) *Estimator {
	t.Helper()
	ref, err := NewEstimator(est.Config())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ref.Config()
	ref.jointOnce.Do(func() {
		ref.jointSolver, ref.jointErr = sparse.NewSolver(
			BuildJointDictionary(cfg.Array, cfg.OFDM, cfg.ThetaGrid, cfg.TauGrid),
			cfg.SolverOptions...)
	})
	if ref.jointErr != nil {
		t.Fatal(ref.jointErr)
	}
	return ref
}

// requireSpectraClose fails unless the two joint spectra agree within 1e-9
// of the reference's largest cell (the spectra are the normalized RowMags),
// and DirectPath picks its peak in the same grid cell on both. It reports
// whether any cell differs bitwise.
func requireSpectraClose(t *testing.T, est *Estimator, what string, got, want *spectra.Spectrum2D) bool {
	t.Helper()
	var scale, diff float64
	bits := false
	for i := range want.Power {
		for j, w := range want.Power[i] {
			scale = math.Max(scale, math.Abs(w))
			diff = math.Max(diff, math.Abs(got.Power[i][j]-w))
			bits = bits || math.Float64bits(got.Power[i][j]) != math.Float64bits(w)
		}
	}
	if scale == 0 || diff > 1e-9*scale {
		t.Fatalf("%s: max cell difference %.3g against reference peak %.3g", what, diff, scale)
	}
	gp, gerr := est.DirectPath(got)
	wp, werr := est.DirectPath(want)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: DirectPath error %v, reference %v", what, gerr, werr)
	}
	gi, gt := nearestIndex(want.ThetaDeg, gp.ThetaDeg), nearestIndex(want.Tau, gp.Tau)
	wi, wt := nearestIndex(want.ThetaDeg, wp.ThetaDeg), nearestIndex(want.Tau, wp.Tau)
	if gi != wi || gt != wt {
		t.Fatalf("%s: direct path in cell (%d, %d), reference (%d, %d)", what, gi, gt, wi, wt)
	}
	return bits
}

// nearestIndex returns the index of the grid point closest to v. DirectPath
// refines a peak's coordinates between grid points; the nearest grid point
// names the cell it was picked in.
func nearestIndex(grid []float64, v float64) int {
	best := 0
	for i, g := range grid {
		if math.Abs(g-v) < math.Abs(grid[best]-v) {
			best = i
		}
	}
	return best
}

// TestJointSolveMatchesDenseReference: every joint solve runs on the
// Kronecker factors of the space-delay dictionary. At the smoke preset's
// shape (3 x 8 CSI, 19 x 8 grid, 60 iterations) and the figure pipeline's
// (3 x 30 CSI, 46 x 20 grid, 150 iterations), the single-packet and fused
// spectra of a default (non-Warm) estimator match those of the dense ADMM
// solver over the explicit dictionary to 1e-9 of the peak, with the same
// direct-path cell. The factored products associate differently from the
// dense ones, so some cell must differ bitwise: a run with none would mean
// the estimator's joint solve is the dense one.
func TestJointSolveMatchesDenseReference(t *testing.T) {
	smoke := wireless.OFDM{NumSubcarriers: 8, SubcarrierSpacing: 4e6}
	figure := wireless.Intel5300OFDM()
	for _, tc := range []struct {
		name       string
		ofdm       wireless.OFDM
		nth, ntu   int
		iters      int
		burstDepth int
	}{
		{"smoke", smoke, 19, 8, 60, 2},
		{"figure", figure, 46, 20, 150, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			est, err := NewEstimator(Config{
				Array:         wireless.Intel5300Array(),
				OFDM:          tc.ofdm,
				ThetaGrid:     spectra.UniformGrid(0, 180, tc.nth),
				TauGrid:       spectra.UniformGrid(0, tc.ofdm.MaxToA(), tc.ntu),
				SolverOptions: []sparse.Option{sparse.WithMaxIters(tc.iters)},
			})
			if err != nil {
				t.Fatal(err)
			}
			ref := denseReference(t, est)
			ctx := context.Background()
			differs := false
			for seed := int64(1); seed <= 3; seed++ {
				burst, err := wireless.GenerateBurst(&wireless.ChannelConfig{
					Array: wireless.Intel5300Array(),
					OFDM:  tc.ofdm,
					Paths: []wireless.Path{
						{AoADeg: 40 + 25*float64(seed), ToA: 30e-9, Gain: 1},
						{AoADeg: 150 - 10*float64(seed), ToA: 190e-9, Gain: 0.6},
					},
					SNRdB: 12,
				}, tc.burstDepth, rand.New(rand.NewSource(9000+seed)))
				if err != nil {
					t.Fatal(err)
				}

				got, _, err := est.EstimateJoint(ctx, burst[0])
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := ref.EstimateJoint(ctx, burst[0])
				if err != nil {
					t.Fatal(err)
				}
				differs = requireSpectraClose(t, est, fmt.Sprintf("seed %d single packet", seed), got, want) || differs

				got, _, err = est.EstimateJointFusedInfoCtx(ctx, burst)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err = ref.EstimateJointFusedInfoCtx(ctx, burst)
				if err != nil {
					t.Fatal(err)
				}
				differs = requireSpectraClose(t, est, fmt.Sprintf("seed %d fused", seed), got, want) || differs
			}
			if !differs {
				t.Fatal("every spectrum is bitwise the dense reference's: the joint solve is not running on the Kronecker factors")
			}
		})
	}
}
