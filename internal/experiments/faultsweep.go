package experiments

import (
	"fmt"
	"io"
	"math"

	"roarray/internal/core"
	"roarray/internal/fault"
	"roarray/internal/quality"
	"roarray/internal/sparse"
	"roarray/internal/stats"
	"roarray/internal/testbed"
	"roarray/internal/wireless"
)

// faultMode is one condition of the degradation sweep: a label for tables
// and artifacts, and the injection plan that produces it.
type faultMode struct {
	name string
	plan fault.Plan
}

// faultModes builds the sweep conditions. Every CSI mode is a *total*
// single-AP fault — the whole burst of one AP is corrupted — because that is
// the worst case the graceful-degradation machinery must survive: partial
// faults are strictly easier. The solver-budget mode instead starves every
// solve so the ADMM→OMP fallback chain carries the run.
func faultModes(arr wireless.Array, ofdm wireless.OFDM) []faultMode {
	m, l := arr.NumAntennas, ofdm.NumSubcarriers
	return []faultMode{
		{"none", fault.Plan{Kind: fault.KindNone}},
		{"dead-ap", fault.Plan{Kind: fault.KindAntennaDropout, Antennas: m}},
		{"nan-burst", fault.Plan{Kind: fault.KindNaNBurst, Burst: m * l}},
		{"erasure", fault.Plan{Kind: fault.KindSubcarrierErasure, Subcarriers: l}},
		{"phase-jump", fault.Plan{Kind: fault.KindPhaseJump, PhaseRad: math.Pi}},
		{"truncated", fault.Plan{Kind: fault.KindTruncatedPacket, Truncate: l}},
		{"budget", fault.Plan{Kind: fault.KindSolverBudget, SolverIters: 2}},
	}
}

// RunFaultSweep measures localization accuracy under injected faults: the
// same batch of client placements is localized once per fault mode, with AP 0
// totally faulted (or the solver starved), and the per-mode error
// distribution is recorded. The contract under test is graceful degradation:
// every request still yields a position (the sanitizer flags and
// down-weights the dead AP, the fallback chain absorbs solver starvation)
// and the error stays bounded rather than exploding.
//
// The sweep is registered as experiment id "fault" but deliberately kept out
// of AllIDs(): its artifact (BENCH_fault.json) is a separate baseline from
// the fault-free quality gate, and fault-free golden transcripts must never
// depend on this file existing.
func RunFaultSweep(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	header(w, "Fault sweep: single-AP total faults, graceful degradation")
	exp := opt.Recorder.Begin("fault", "localization accuracy under injected faults")
	defer exp.End()
	exp.Params(opt.evalParams())
	ctx := opt.runCtx(exp)

	dep := testbed.Default()
	scenario := testbed.ScenarioConfig{Band: testbed.BandHigh}

	fallbackCounter := func() float64 {
		if opt.Metrics == nil {
			return 0
		}
		return float64(opt.Metrics.Counter("core.solve.fallback_engaged_total").Value())
	}

	fmt.Fprintf(w, "%12s %14s %14s %12s %11s\n",
		"fault", "median err", "p90 err", "flagged", "fallbacks")
	for _, mode := range faultModes(dep.Array, dep.OFDM) {
		// A fresh workload per mode: BatchRequests is deterministic in
		// (opt.Seed), so every mode corrupts the identical placements and
		// bursts and the modes differ only by their fault.
		reqs, truth, err := dep.BatchRequests(opt.Locations, opt.Packets, scenario, opt.Seed)
		if err != nil {
			return err
		}

		cfg := opt.estimatorConfig()
		cfg.Fallback = true
		if mode.plan.Kind == fault.KindSolverBudget {
			cfg.SolverOptions = []sparse.Option{sparse.WithMaxIters(mode.plan.SolverIters)}
		}
		est, err := core.NewEstimator(cfg)
		if err != nil {
			return err
		}
		eng, err := core.NewEngine(est, opt.Workers)
		if err != nil {
			return err
		}

		var inj *fault.Injector
		switch mode.plan.Kind {
		case fault.KindNone, fault.KindSolverBudget:
			// No CSI corruption.
		default:
			if inj, err = fault.New(mode.plan, opt.Seed+77); err != nil {
				return err
			}
		}

		var errs []float64
		flagged := 0
		before := fallbackCounter()
		for r, req := range reqs {
			if opt.APs < len(req.Links) {
				req.Links = req.Links[:opt.APs]
			}
			if inj != nil {
				// Single-AP total fault: corrupt every packet of AP 0.
				req.Links[0].Packets = inj.TransformBurst(req.Links[0].Packets)
			}
			res, err := eng.Localize(ctx, req)
			if err != nil {
				return fmt.Errorf("fault sweep %s request %d: degradation contract broken: %w",
					mode.name, r, err)
			}
			for _, lr := range res.Links {
				if lr.Sanitize != nil {
					flagged++
					break
				}
			}
			d := res.Position.Dist(truth[r])
			errs = append(errs, d)
			exp.Record(quality.Trial{
				System: SysROArray,
				Label:  mode.name,
				Scenario: quality.Scenario{
					Seed: opt.Seed, Band: testbed.BandHigh.String(),
					APs: len(req.Links), Packets: opt.Packets, Fault: mode.name,
				},
				Truth:    quality.Pos(truth[r].X, truth[r].Y),
				Estimate: quality.Pos(res.Position.X, res.Position.Y),
				Errors:   map[string]float64{"loc_m": d},
			})
		}
		fallbacks := fallbackCounter() - before

		exp.Aggregate("loc_err."+mode.name, "m", errs)
		exp.Value("fallbacks."+mode.name, "count", fallbacks)
		sum, err := stats.Summarize("", errs)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%12s %12.2f m %12.2f m %8d/%d %11.0f\n",
			mode.name, sum.Median, sum.P90, flagged, len(reqs), fallbacks)
	}
	fmt.Fprintf(w, "\nEvery mode must return a position for every request; the faulted modes may\n")
	fmt.Fprintf(w, "degrade relative to \"none\" but stay bounded — that bound is what the\n")
	fmt.Fprintf(w, "committed BENCH_fault.json baseline gates.\n")
	return nil
}
