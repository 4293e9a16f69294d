package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"roarray/internal/core"
	"roarray/internal/quality"
	"roarray/internal/sparse"
	"roarray/internal/spectra"
	"roarray/internal/stats"
	"roarray/internal/wireless"
)

// RunAblationOffGrid quantifies basis-mismatch sensitivity (paper ref [19],
// Chi et al.): how much accuracy is lost when the true AoA falls between
// grid points, across grid resolutions. Worst-case mismatch is half the
// grid spacing, so the error floor should track the resolution — the
// experiment verifies the gridding choice in Sec. III-A.
func RunAblationOffGrid(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	header(w, "Ablation: off-grid (basis mismatch) sensitivity of the sparse AoA estimate")
	exp := opt.Recorder.Begin("og", "off-grid (basis mismatch) sensitivity")
	defer exp.End()
	exp.Params(map[string]int64{"seed": opt.Seed, "iters": int64(opt.SolverIters)})
	ctx := opt.runCtx(exp)
	probe := quality.NewSolverProbe(opt.Metrics)
	rng := rand.New(rand.NewSource(opt.Seed))
	arr := wireless.Intel5300Array()
	ofdm := wireless.Intel5300OFDM()

	fmt.Fprintf(w, "%-18s %-14s %-16s %-16s\n", "grid spacing", "points", "on-grid err", "off-grid err")
	for _, n := range []int{31, 61, 91, 181} {
		grid := spectra.UniformGrid(0, 180, n)
		spacing := 180 / float64(n-1)
		est, err := core.NewEstimator(core.Config{
			Array: arr, OFDM: ofdm,
			ThetaGrid:     grid,
			SolverOptions: []sparse.Option{sparse.WithMaxIters(opt.SolverIters)},
			Metrics:       opt.Metrics,
		})
		if err != nil {
			return err
		}
		measure := func(key string, offset float64) (float64, error) {
			var errs []float64
			const trials = 10
			probe.Take() // re-arm so each trial's delta covers one solve
			for i := 0; i < trials; i++ {
				// Pick a grid angle away from endfire and shift by the
				// requested fraction of the spacing.
				base := grid[5+rng.Intn(n-10)]
				trueAoA := base + offset*spacing
				csi, err := wireless.Generate(&wireless.ChannelConfig{
					Array: arr, OFDM: ofdm,
					Paths: []wireless.Path{{AoADeg: trueAoA, ToA: 50e-9, Gain: 1}},
					SNRdB: 15,
				}, rng)
				if err != nil {
					return 0, err
				}
				spec, _, err := est.EstimateAoA(ctx, csi)
				if err != nil {
					return 0, err
				}
				aoaErr := spectra.ClosestPeakError(spec.Peaks(0.5), trueAoA)
				errs = append(errs, aoaErr)
				exp.Record(quality.Trial{
					System:   SysROArray,
					Label:    key,
					Scenario: quality.Scenario{Seed: opt.Seed, SNRdB: 15, Paths: 1, Packets: 1},
					Truth:    quality.AoA(trueAoA),
					Errors:   map[string]float64{"aoa_deg": aoaErr},
					Solver:   probe.Take().Info(sparse.MethodADMM.String()),
				})
			}
			exp.Aggregate("aoa_err."+key, "deg", errs)
			sum, err := stats.Summarize("", errs)
			if err != nil {
				return 0, err
			}
			return sum.Median, nil
		}
		onGrid, err := measure(fmt.Sprintf("grid%d.ongrid", n), 0)
		if err != nil {
			return err
		}
		offGrid, err := measure(fmt.Sprintf("grid%d.offgrid", n), 0.5) // worst-case mismatch
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-18s %-14d %-16s %-16s\n",
			fmt.Sprintf("%.1f deg", spacing), n,
			fmt.Sprintf("%.2f deg", onGrid),
			fmt.Sprintf("%.2f deg", offGrid))
	}
	fmt.Fprintf(w, "\nExpected shape: off-grid error is bounded by ~half the grid spacing and\n")
	fmt.Fprintf(w, "shrinks as the grid refines — the basis-mismatch cost of a discrete basis\n")
	fmt.Fprintf(w, "(one of ROArray's stated tradeoffs against continuous-basis WiDeo).\n")
	return nil
}

// RunAblationSolvers compares the sparse-recovery backends (ADMM, FISTA,
// OMP) on identical joint-estimation instances: direct-path accuracy and
// per-solve latency. This backs the design choice of ADMM with the
// Woodbury-factorized x-update as the default.
func RunAblationSolvers(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	header(w, "Ablation: sparse solver backends on identical joint AoA/ToA instances")
	exp := opt.Recorder.Begin("ab", "sparse solver backends on identical instances")
	defer exp.End()
	exp.Params(opt.gridParams())
	ctx := opt.runCtx(exp)
	probe := quality.NewSolverProbe(opt.Metrics)
	arr := wireless.Intel5300Array()
	ofdm := wireless.Intel5300OFDM()
	thetaGrid := spectra.UniformGrid(0, 180, opt.ThetaPoints)
	tauGrid := spectra.UniformGrid(0, ofdm.MaxToA(), opt.TauPoints)
	const trueAoA = 130.0

	// Shared instances.
	rng := rand.New(rand.NewSource(opt.Seed))
	var packets []*wireless.CSI
	const trials = 8
	for i := 0; i < trials; i++ {
		csi, err := wireless.Generate(&wireless.ChannelConfig{
			Array: arr, OFDM: ofdm,
			Paths: []wireless.Path{
				{AoADeg: trueAoA, ToA: 60e-9, Gain: 1},
				{AoADeg: 50, ToA: 260e-9, Gain: 0.6},
			},
			SNRdB: 5,
		}, rng)
		if err != nil {
			return err
		}
		packets = append(packets, csi)
	}

	fmt.Fprintf(w, "%-10s %-14s %-14s\n", "solver", "median err", "per solve")
	for _, method := range []sparse.Method{sparse.MethodADMM, sparse.MethodFISTA} {
		est, err := core.NewEstimator(core.Config{
			Array: arr, OFDM: ofdm,
			ThetaGrid: thetaGrid, TauGrid: tauGrid,
			SolverOptions: []sparse.Option{
				sparse.WithMethod(method),
				sparse.WithMaxIters(opt.SolverIters),
			},
			Metrics: opt.Metrics,
		})
		if err != nil {
			return err
		}
		if _, _, err := est.EstimateJoint(ctx, packets[0]); err != nil { // warm caches
			return err
		}
		probe.Take() // drop the warm-up solve from the first trial's delta
		var errs []float64
		t0 := time.Now()
		for _, pkt := range packets {
			spec, _, err := est.EstimateJoint(ctx, pkt)
			if err != nil {
				return err
			}
			aoaErr := 90.0
			if dp, err := est.DirectPath(spec); err == nil {
				aoaErr = math.Abs(dp.ThetaDeg - trueAoA)
			}
			errs = append(errs, aoaErr)
			exp.Record(quality.Trial{
				System:   SysROArray,
				Label:    method.String(),
				Scenario: quality.Scenario{Seed: opt.Seed, SNRdB: 5, Paths: 2, Packets: 1},
				Truth:    quality.AoA(trueAoA),
				Errors:   map[string]float64{"aoa_deg": aoaErr},
				Solver:   probe.Take().Info(method.String()),
			})
		}
		perSolve := time.Since(t0) / trials
		exp.Aggregate("aoa_err."+method.String(), "deg", errs)
		exp.Value("solve_s."+method.String(), "s", perSolve.Seconds())
		sum, err := stats.Summarize(method.String(), errs)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %-14s %-14v\n", method.String(),
			fmt.Sprintf("%.1f deg", sum.Median), perSolve.Round(time.Millisecond))
	}

	// OMP greedy baseline on the same dictionary.
	dict := core.BuildJointDictionary(arr, ofdm, thetaGrid, tauGrid)
	var errs []float64
	t0 := time.Now()
	for _, pkt := range packets {
		res, err := sparse.OMP(dict, pkt.StackedVector(), 5, 1e-3)
		if err != nil {
			return err
		}
		best := 90.0
		for _, atom := range res.Support {
			theta := thetaGrid[atom%len(thetaGrid)]
			if d := math.Abs(theta - trueAoA); d < best {
				best = d
			}
		}
		errs = append(errs, best)
		exp.Record(quality.Trial{
			System:   SysROArray,
			Label:    "omp",
			Scenario: quality.Scenario{Seed: opt.Seed, SNRdB: 5, Paths: 2, Packets: 1},
			Truth:    quality.AoA(trueAoA),
			Errors:   map[string]float64{"aoa_deg": best},
			// OMP runs one greedy pass per support atom and always terminates.
			Solver: &quality.SolverInfo{Name: "omp", Iterations: len(res.Support), Converged: true},
		})
	}
	perSolve := time.Since(t0) / trials
	exp.Aggregate("aoa_err.omp", "deg", errs)
	exp.Value("solve_s.omp", "s", perSolve.Seconds())
	sum, err := stats.Summarize("omp", errs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %-14s %-14v  (closest support atom; greedy, no spectrum)\n",
		"omp", fmt.Sprintf("%.1f deg", sum.Median), perSolve.Round(time.Millisecond))
	return nil
}
