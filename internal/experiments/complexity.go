package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"roarray/internal/core"
	"roarray/internal/music"
	"roarray/internal/quality"
	"roarray/internal/sparse"
	"roarray/internal/spectra"
	"roarray/internal/wireless"
)

// RunComplexity reproduces the paper's Sec. III-C complexity discussion:
// ROArray's joint solve scales with the grid size (Ntheta*Ntau) and is
// almost independent of M and Nsub, whereas SpotFi's cost scales with
// (M*Nsub)^3. The paper's MATLAB implementation takes ~10 s at
// Ntheta=90, Ntau=50; this Go implementation is reported for the same and
// smaller working points.
func RunComplexity(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	header(w, "Sec. III-C: computation cost of the joint ToA&AoA spectrum")
	exp := opt.Recorder.Begin("cx", "computation cost of the joint spectrum")
	defer exp.End()
	exp.Params(map[string]int64{"seed": opt.Seed, "iters": int64(opt.SolverIters)})
	ctx := opt.runCtx(exp)
	rng := rand.New(rand.NewSource(opt.Seed))

	arr := wireless.Intel5300Array()
	ofdm := wireless.Intel5300OFDM()
	csi, err := wireless.Generate(&wireless.ChannelConfig{
		Array: arr, OFDM: ofdm,
		Paths: []wireless.Path{
			{AoADeg: 120, ToA: 60e-9, Gain: 1},
			{AoADeg: 40, ToA: 260e-9, Gain: 0.6},
		},
		SNRdB: 10,
	}, rng)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "Paper reference point: MATLAB+cvx, Ntheta=90 Ntau=50 -> ~10 s per spectrum.\n\n")
	fmt.Fprintf(w, "%-22s %-12s %-14s %-12s\n", "grid (Ntheta x Ntau)", "atoms", "dict build", "solve")
	for _, g := range []struct{ nth, ntu int }{{30, 15}, {46, 20}, {60, 30}, {90, 50}} {
		thetaGrid := spectra.UniformGrid(0, 180, g.nth)
		tauGrid := spectra.UniformGrid(0, ofdm.MaxToA(), g.ntu)

		est, err := core.NewEstimator(core.Config{
			Array: arr, OFDM: ofdm,
			ThetaGrid: thetaGrid, TauGrid: tauGrid,
			SolverOptions: []sparse.Option{sparse.WithMaxIters(opt.SolverIters)},
			Metrics:       opt.Metrics,
		})
		if err != nil {
			return err
		}
		// The dictionaries and their factorizations are built by Warmup
		// alone, timed on their own. One untimed estimate then warms the
		// solver's pooled workspace, so the timed one is a steady-state
		// solve.
		t0 := time.Now()
		if err := est.Warmup(); err != nil {
			return err
		}
		build := time.Since(t0)
		if _, _, err := est.EstimateJoint(ctx, csi); err != nil {
			return err
		}

		t1 := time.Now()
		if _, _, err := est.EstimateJoint(ctx, csi); err != nil {
			return err
		}
		solve := time.Since(t1)
		gkey := fmt.Sprintf("g%dx%d", g.nth, g.ntu)
		exp.Value("dict_build_s."+gkey, "s", build.Seconds())
		exp.Value("solve_s."+gkey, "s", solve.Seconds())
		exp.Record(quality.Trial{
			System:   SysROArray,
			Label:    gkey,
			Scenario: quality.Scenario{Seed: opt.Seed, SNRdB: 10, Paths: 2, Packets: 1},
			Errors:   map[string]float64{"solve_s": solve.Seconds()},
		})
		fmt.Fprintf(w, "%-22s %-12d %-14v %-12v\n",
			fmt.Sprintf("%d x %d", g.nth, g.ntu), g.nth*g.ntu, build.Round(time.Millisecond), solve.Round(time.Millisecond))
	}

	// Baseline cost: SpotFi smoothed MUSIC spectrum on the same packet.
	t0 := time.Now()
	if _, err := music.JointSpectrum(&music.SpotFiConfig{Array: arr, OFDM: ofdm}, csi); err != nil {
		return err
	}
	spotfi := time.Since(t0)
	exp.Value("spotfi_solve_s", "s", spotfi.Seconds())
	fmt.Fprintf(w, "\nSpotFi smoothed MUSIC spectrum (91 x 51 grid): %v\n", spotfi.Round(time.Millisecond))
	fmt.Fprintf(w, "Paper: ROArray trades computation for low-SNR robustness; cost is dominated\n")
	fmt.Fprintf(w, "by the dictionary size, nearly independent of M and Nsub.\n")
	return nil
}
