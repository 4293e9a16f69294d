package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"roarray/internal/core"
	"roarray/internal/quality"
	"roarray/internal/sparse"
	"roarray/internal/spectra"
	"roarray/internal/wireless"
)

// RunFig3 reproduces paper Fig. 3: the ROArray AoA spectrum sharpening as
// the iterative solver (SoC programming in the paper; proximal-gradient
// iterations here, minimizing the identical convex objective) progresses.
// The paper shows snapshots at 3, 6, 9, and 14 iterations converging to two
// sharp AoA estimates, one on the ground truth.
func RunFig3(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	header(w, "Fig. 3: ROArray AoA spectrum vs solver iterations")
	exp := opt.Recorder.Begin("3", "ROArray AoA spectrum vs solver iterations")
	defer exp.End()
	exp.Params(opt.seedParams())

	const trueAoA = 120.0
	arr := wireless.Intel5300Array()
	ofdm := wireless.Intel5300OFDM()
	csi, err := wireless.Generate(&wireless.ChannelConfig{
		Array: arr, OFDM: ofdm,
		Paths: []wireless.Path{
			{AoADeg: trueAoA, ToA: 40e-9, Gain: 1},
			{AoADeg: 55, ToA: 220e-9, Gain: 0.75},
		},
		SNRdB: 12,
	}, rng)
	if err != nil {
		return err
	}

	wanted := map[int][]float64{3: nil, 6: nil, 9: nil, 14: nil}
	thetaGrid := spectra.UniformGrid(0, 180, 91)
	cfg := core.Config{
		Array:     arr,
		OFDM:      ofdm,
		ThetaGrid: thetaGrid,
		SolverOptions: []sparse.Option{
			sparse.WithMethod(sparse.MethodFISTA),
			sparse.WithMaxIters(14),
			sparse.WithTolerance(0, 0),
			sparse.WithIterationHook(func(iter int, mags []float64) {
				if _, ok := wanted[iter]; ok {
					wanted[iter] = append([]float64(nil), mags...)
				}
			}),
		},
		Metrics: opt.Metrics,
	}
	est, err := core.NewEstimator(cfg)
	if err != nil {
		return err
	}
	if _, _, err := est.EstimateAoA(opt.runCtx(exp), csi); err != nil {
		return err
	}

	fmt.Fprintf(w, "True AoA %v deg (second path at 55 deg). Paper: spectrum sharpens with\n", trueAoA)
	fmt.Fprintf(w, "iterations, converging to two sharp estimates, one on the ground truth.\n")
	for _, it := range []int{3, 6, 9, 14} {
		mags := wanted[it]
		if mags == nil {
			return fmt.Errorf("experiments: iteration %d snapshot missing", it)
		}
		spec, err := spectra.NewSpectrum1D(thetaGrid, mags)
		if err != nil {
			return err
		}
		spec.Normalize()
		peaks := topPeaks(spec.Peaks(0.3), 3)
		aoaErr := spectra.ClosestPeakError(peaks, trueAoA)
		label := fmt.Sprintf("iter%d", it)
		exp.Record(quality.Trial{
			System:   SysROArray,
			Label:    label,
			Scenario: quality.Scenario{Seed: opt.Seed, SNRdB: 12, Paths: 2, Packets: 1},
			Truth:    quality.AoA(trueAoA),
			Errors:   map[string]float64{"aoa_deg": aoaErr, "sharpness": spec.Sharpness()},
			// Snapshot of a fixed-budget solve (tolerance disabled), so no
			// convergence claim is made.
			Solver: &quality.SolverInfo{Name: sparse.MethodFISTA.String(), Iterations: it},
		})
		exp.Value("aoa_err."+label, "deg", aoaErr)
		exp.Value("sharpness."+label, "", spec.Sharpness())
		fmt.Fprintf(w, "\n-- %d iterations: sharpness %.1f, closest-peak error %.1f deg, peaks:",
			it, spec.Sharpness(), aoaErr)
		for _, p := range peaks {
			fmt.Fprintf(w, " %.0f deg (%.2f)", p.ThetaDeg, p.Power)
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, spec.ASCII(18, 40))
	}
	return nil
}
