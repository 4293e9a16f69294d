package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"roarray/internal/core"
	"roarray/internal/quality"
	"roarray/internal/sparse"
	"roarray/internal/spectra"
	"roarray/internal/stats"
	"roarray/internal/wireless"
)

// RunAblationFusion sweeps the multi-packet fusion size at a fixed low SNR,
// quantifying the coherent-processing gain that is the paper's central
// robustness mechanism: the direct-path AoA error should fall monotonically
// (to within noise) as packets are added, and the single-packet point shows
// the operating floor the paper highlights ("works with ... as low as a
// single packet").
func RunAblationFusion(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	header(w, "Ablation: multi-packet fusion size at low SNR (-3 dB)")
	exp := opt.Recorder.Begin("fs", "multi-packet fusion size at low SNR")
	defer exp.End()
	exp.Params(opt.gridParams())
	ctx := opt.runCtx(exp)
	probe := quality.NewSolverProbe(opt.Metrics)
	arr := wireless.Intel5300Array()
	ofdm := wireless.Intel5300OFDM()
	est, err := core.NewEstimator(core.Config{
		Array: arr, OFDM: ofdm,
		ThetaGrid:     spectra.UniformGrid(0, 180, opt.ThetaPoints),
		TauGrid:       spectra.UniformGrid(0, ofdm.MaxToA(), opt.TauPoints),
		SolverOptions: []sparse.Option{sparse.WithMaxIters(opt.SolverIters)},
		Metrics:       opt.Metrics,
	})
	if err != nil {
		return err
	}
	const trueAoA = 150.0
	rng := rand.New(rand.NewSource(opt.Seed))
	ch := &wireless.ChannelConfig{
		Array: arr, OFDM: ofdm,
		Paths: []wireless.Path{
			{AoADeg: trueAoA, ToA: 60e-9, Gain: 1},
			{AoADeg: 70, ToA: 240e-9, Gain: 0.75},
		},
		SNRdB:             -3,
		MaxDetectionDelay: 250e-9,
	}

	fmt.Fprintf(w, "%10s %16s\n", "packets", "median AoA err")
	for _, n := range []int{1, 2, 5, 10, 15, 30} {
		var errs []float64
		const trials = 8
		key := fmt.Sprintf("pkts%d", n)
		probe.Take() // re-arm so each trial's delta covers one fused solve
		for t := 0; t < trials; t++ {
			burst, err := wireless.GenerateBurst(ch, n, rng)
			if err != nil {
				return err
			}
			aoaErr := 90.0
			if dp, _, err := est.EstimateDirectAoA(ctx, burst); err == nil {
				aoaErr = math.Abs(dp.ThetaDeg - trueAoA)
			}
			errs = append(errs, aoaErr)
			exp.Record(quality.Trial{
				System:   SysROArray,
				Label:    key,
				Scenario: quality.Scenario{Seed: opt.Seed, SNRdB: -3, Paths: 2, Packets: n},
				Truth:    quality.AoA(trueAoA),
				Errors:   map[string]float64{"aoa_deg": aoaErr},
				Solver:   probe.Take().Info(sparse.MethodADMM.String()),
			})
		}
		exp.Aggregate("aoa_err."+key, "deg", errs)
		sum, err := stats.Summarize("", errs)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%10d %13.1f deg\n", n, sum.Median)
	}
	fmt.Fprintf(w, "\nExpected shape: error falls with fusion size (paper Fig. 4's mechanism);\n")
	fmt.Fprintf(w, "the single-packet row is the paper's minimum operating point.\n")
	return nil
}
