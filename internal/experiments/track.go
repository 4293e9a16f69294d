package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"roarray/internal/core"
	"roarray/internal/quality"
	"roarray/internal/stats"
	"roarray/internal/testbed"
)

// RunTrack measures the mobility pipeline end to end: a seeded waypoint walk
// through the default testbed deployment is localized twice over identical
// per-epoch bursts — once statelessly (every epoch a fresh full grid search,
// the pre-tracking serving path) and once through the tracker (prediction-
// shrunk window search with verified fallback). The experiment records, per
// arm, the along-track error distribution and RMSE, the per-epoch latency,
// and — for the tracked arm — how many cells the accepted searches actually
// evaluated versus the full grid.
//
// The contract under test is "speed without silent accuracy loss": windowed
// epochs must evaluate a small fraction of the grid (the committed
// BENCH_track.json baseline gates the p50 at <= 10% of the full-search cell
// count) while every epoch the tracker did NOT accept from the window must
// be bit-identical to the stateless fix, and the tracked RMSE must stay
// within the stateless arm's tolerance band.
//
// Registered as experiment id "track" but excluded from AllIDs() for the
// same reason as the fault sweep: its artifact (BENCH_track.json) is a
// separate baseline from the fault-free quality gate.
func RunTrack(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	header(w, "Track: moving target, stateless vs prediction-windowed search")
	exp := opt.Recorder.Begin("track", "moving-target accuracy and search cost, stateless vs windowed")
	defer exp.End()
	exp.Params(opt.evalParams())
	ctx := opt.runCtx(exp)

	dep := testbed.Default()
	// The smoke trajectory: one epoch per "location", pinned start so small
	// runs still traverse the room, dwells on so the stationary regime is
	// exercised too.
	plan := testbed.TrajectoryPlan{
		Epochs: opt.Locations,
		Start:  &core.Point{X: 3, Y: 3},
	}
	traj, err := dep.GenerateTrajectory(plan, opt.Seed)
	if err != nil {
		return err
	}
	scenario := testbed.ScenarioConfig{Band: testbed.BandHigh}

	type arm struct {
		name    string
		tracked bool
	}
	arms := []arm{{"stateless", false}, {"tracked", true}}

	results := make(map[string][]*core.LocalizeResult, len(arms))
	errsByArm := make(map[string][]float64, len(arms))
	latByArm := make(map[string][]float64, len(arms))
	var windowedCells []float64
	var fullCells float64
	windowed, fallbacks, mismatches := 0, 0, 0

	for _, a := range arms {
		// Each arm regenerates its requests: TrajectoryRequests is
		// deterministic in (traj, seed), so both arms localize byte-identical
		// bursts without sharing mutable request state.
		reqs, truth, err := dep.TrajectoryRequests(traj, opt.Packets, scenario, opt.Seed+500)
		if err != nil {
			return err
		}
		est, err := core.NewEstimator(opt.estimatorConfig())
		if err != nil {
			return err
		}
		eng, err := core.NewEngine(est, opt.Workers)
		if err != nil {
			return err
		}
		tracker, err := core.NewTracker(0, 0, 0)
		if err != nil {
			return err
		}

		var errs, lats []float64
		for e, req := range reqs {
			if opt.APs < len(req.Links) {
				req.Links = req.Links[:opt.APs]
			}
			t0 := time.Now()
			var res *core.LocalizeResult
			if a.tracked {
				tres, err := eng.LocalizeTracked(ctx, req, tracker, traj.Points[e].T)
				if err != nil {
					return fmt.Errorf("track epoch %d: %w", e, err)
				}
				lats = append(lats, time.Since(t0).Seconds())
				res = tres.Fix
				if tres.Windowed {
					windowed++
					windowedCells = append(windowedCells, float64(res.Search.Evaluated()))
				}
				if tres.Fallback {
					fallbacks++
				}
				fullCells = float64(res.Search.FlatCells)
				// The track error is the *smoothed* estimate against truth.
				d := tres.Track.Smoothed.Dist(truth[e])
				errs = append(errs, d)
				exp.Record(quality.Trial{
					System: SysROArray,
					Label:  a.name,
					Scenario: quality.Scenario{
						Seed: opt.Seed, Band: testbed.BandHigh.String(),
						APs: len(req.Links), Packets: opt.Packets,
					},
					Truth:    quality.Pos(truth[e].X, truth[e].Y),
					Estimate: quality.Pos(tres.Track.Smoothed.X, tres.Track.Smoothed.Y),
					Errors: map[string]float64{
						"loc_m": d,
						"cells": float64(res.Search.Evaluated()),
					},
				})
				// Verified-fallback re-proof: every epoch the tracker did not
				// accept from the window ran the configured full search and
				// must match the stateless arm bit for bit.
				if !tres.Windowed {
					sres := results["stateless"][e]
					if res.Position != sres.Position {
						return fmt.Errorf("track epoch %d: fallback fix (%v) diverged from stateless (%v)",
							e, res.Position, sres.Position)
					}
				} else if res.Position != results["stateless"][e].Position {
					// Windowed epochs are allowed to differ only when the
					// stateless argmin lies outside the gate window; count
					// them — the RMSE band catches any accuracy cost.
					mismatches++
				}
			} else {
				res, err = eng.Localize(ctx, req)
				if err != nil {
					return fmt.Errorf("stateless epoch %d: %w", e, err)
				}
				lats = append(lats, time.Since(t0).Seconds())
				d := res.Position.Dist(truth[e])
				errs = append(errs, d)
				exp.Record(quality.Trial{
					System: SysROArray,
					Label:  a.name,
					Scenario: quality.Scenario{
						Seed: opt.Seed, Band: testbed.BandHigh.String(),
						APs: len(req.Links), Packets: opt.Packets,
					},
					Truth:    quality.Pos(truth[e].X, truth[e].Y),
					Estimate: quality.Pos(res.Position.X, res.Position.Y),
					Errors:   map[string]float64{"loc_m": d},
				})
			}
			results[a.name] = append(results[a.name], res)
		}
		errsByArm[a.name] = errs
		latByArm[a.name] = lats
	}

	fmt.Fprintf(w, "%12s %12s %12s %14s %12s\n", "arm", "rmse", "median err", "p50 latency", "p50 cells")
	for _, a := range arms {
		exp.Aggregate("loc_err."+a.name, "m", errsByArm[a.name])
		exp.Aggregate("latency."+a.name, "s", latByArm[a.name])
		exp.Value("rmse."+a.name, "m", rmse(errsByArm[a.name]))
		esum, err := stats.Summarize("", errsByArm[a.name])
		if err != nil {
			return err
		}
		lsum, err := stats.Summarize("", latByArm[a.name])
		if err != nil {
			return err
		}
		cells := fullCells
		if a.tracked && len(windowedCells) > 0 {
			csum, err := stats.Summarize("", windowedCells)
			if err != nil {
				return err
			}
			cells = csum.Median
		}
		fmt.Fprintf(w, "%12s %10.2f m %10.2f m %12.4f s %12.0f\n",
			a.name, rmse(errsByArm[a.name]), esum.Median, lsum.Median, cells)
	}
	exp.Value("cells.full", "cells", fullCells)
	exp.Value("epochs", "count", float64(len(traj.Points)))
	exp.Value("epochs.windowed", "count", float64(windowed))
	exp.Value("epochs.fallback", "count", float64(fallbacks))
	exp.Value("epochs.window_mismatch", "count", float64(mismatches))
	if len(windowedCells) > 0 {
		exp.Aggregate("cells.windowed", "cells", windowedCells)
	}

	fmt.Fprintf(w, "\n%d/%d epochs accepted the prediction window (%d verified fallbacks,\n",
		windowed, len(traj.Points), fallbacks)
	fmt.Fprintf(w, "%d windowed fixes differed from stateless); the committed BENCH_track.json\n", mismatches)
	fmt.Fprintf(w, "baseline gates the windowed cell count and the tracked-vs-stateless RMSE band.\n")
	return nil
}

// rmse is the root-mean-square of a sample set (0 for an empty set).
func rmse(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v * v
	}
	return math.Sqrt(s / float64(len(vs)))
}
