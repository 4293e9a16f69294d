package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"roarray/internal/core"
	"roarray/internal/quality"
	"roarray/internal/spectra"
	"roarray/internal/wireless"
)

// RunFig4 reproduces paper Fig. 4: the joint ToA&AoA spectrum estimated
// from two individual packets (a, b) — each carrying a different random
// packet-detection delay, so their ToA axes are shifted against each other —
// and from 30 fused packets (c), which the paper shows is sharper and more
// accurate.
func RunFig4(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	header(w, "Fig. 4: joint ToA&AoA spectrum — single packets vs 30-packet fusion")
	exp := opt.Recorder.Begin("4", "joint ToA&AoA spectrum: single packets vs fusion")
	defer exp.End()
	exp.Params(opt.gridParams())
	ctx := opt.runCtx(exp)

	est, err := core.NewEstimator(opt.estimatorConfig())
	if err != nil {
		return err
	}
	arr := wireless.Intel5300Array()
	ofdm := wireless.Intel5300OFDM()
	truth := []wireless.Path{
		{AoADeg: 130, ToA: 60e-9, Gain: 1},
		{AoADeg: 50, ToA: 250e-9, Gain: 0.7},
	}
	ch := &wireless.ChannelConfig{
		Array: arr, OFDM: ofdm,
		Paths:             truth,
		SNRdB:             8,
		MaxDetectionDelay: 250e-9,
	}
	pkts, err := wireless.GenerateBurst(ch, 30, rng)
	if err != nil {
		return err
	}

	report := func(label, key string, packets int, spec *spectra.Spectrum2D, delay float64) error {
		peaks := topPeaks(spec.Peaks(0.3), 4)
		dp, err := est.DirectPath(spec)
		if err != nil {
			return err
		}
		exp.Record(quality.Trial{
			System:   SysROArray,
			Label:    key,
			Scenario: quality.Scenario{Seed: opt.Seed, SNRdB: 8, Paths: 2, Packets: packets},
			Truth:    quality.AoAToA(truth[0].AoADeg, truth[0].ToA*1e9),
			Estimate: quality.AoAToA(dp.ThetaDeg, dp.Tau*1e9),
			Errors: map[string]float64{
				"aoa_deg":   math.Abs(dp.ThetaDeg - truth[0].AoADeg),
				"sharpness": spec.Sharpness(),
			},
		})
		exp.Value("aoa_err."+key, "deg", math.Abs(dp.ThetaDeg-truth[0].AoADeg))
		exp.Value("sharpness."+key, "", spec.Sharpness())
		fmt.Fprintf(w, "\n%s (detection delay %.0f ns): sharpness %.1f\n", label, delay*1e9, spec.Sharpness())
		for _, p := range peaks {
			fmt.Fprintf(w, "  peak: AoA %5.1f deg  ToA %5.0f ns  power %.2f\n", p.ThetaDeg, p.Tau*1e9, p.Power)
		}
		fmt.Fprintf(w, "  direct path (min ToA): AoA %.1f deg (truth %.0f), relative ToA %.0f ns\n",
			dp.ThetaDeg, truth[0].AoADeg, dp.Tau*1e9)
		return nil
	}

	specA, _, err := est.EstimateJoint(ctx, pkts[0])
	if err != nil {
		return err
	}
	if err := report("(a) packet A", "packetA", 1, specA, pkts[0].DetectionDelay); err != nil {
		return err
	}
	specB, _, err := est.EstimateJoint(ctx, pkts[1])
	if err != nil {
		return err
	}
	if err := report("(b) packet B", "packetB", 1, specB, pkts[1].DetectionDelay); err != nil {
		return err
	}
	// Fusion requires a common delay reference; EstimateJointFusedInfoCtx
	// performs the paper's delay-estimation step internally.
	specC, _, err := est.EstimateJointFusedInfoCtx(ctx, pkts)
	if err != nil {
		return err
	}
	if err := report("(c) 30 packets fused", "fused30", 30, specC, pkts[0].DetectionDelay); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nPaper: (c) is sharper/more accurate than (a),(b). Measured sharpness: %.1f vs %.1f / %.1f\n",
		specC.Sharpness(), specA.Sharpness(), specB.Sharpness())
	return nil
}
