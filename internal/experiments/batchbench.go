package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"roarray/internal/core"
	"roarray/internal/quality"
	"roarray/internal/stats"
	"roarray/internal/testbed"
)

// BatchBenchResult is the machine-readable outcome of one serial-vs-parallel
// batch localization measurement, one JSON line per run — the format future
// BENCH_*.json trajectory tracking consumes.
type BatchBenchResult struct {
	Benchmark       string  `json:"benchmark"`
	Requests        int     `json:"requests"`
	APsPerRequest   int     `json:"apsPerRequest"`
	Packets         int     `json:"packets"`
	Workers         int     `json:"workers"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	SerialNsPerOp   int64   `json:"serialNsPerOp"`
	ParallelNsPerOp int64   `json:"parallelNsPerOp"`
	Speedup         float64 `json:"speedup"`
	MedianErrM      float64 `json:"medianErrM"`
	Identical       bool    `json:"identical"`
	// Warm-leg fields, present when Options.Warm added the serving-profile
	// leg: its per-request latency, its speedup over the cold
	// parallel leg, and the cold parallel median error for comparison
	// against MedianErrM (which then reports the warm leg).
	Warm           bool    `json:"warm,omitempty"`
	WarmNsPerOp    int64   `json:"warmNsPerOp,omitempty"`
	WarmSpeedup    float64 `json:"warmSpeedup,omitempty"`
	ColdMedianErrM float64 `json:"coldMedianErrM,omitempty"`
	// Metrics is the observability registry snapshot taken after the runs,
	// present when Options.Metrics is set: solver iteration and latency
	// histograms, dictionary cache hits, convergence failures.
	Metrics map[string]any `json:"metrics,omitempty"`
}

// RunBatchBench measures Engine.LocalizeBatchItems throughput on the
// paper's 6-AP testbed workload, serial (1 worker) versus parallel
// (opt.Workers; <= 1 selects GOMAXPROCS), verifies the two runs produced
// bit-identical positions, and reports one result. With jsonOut the JSON
// object is the only thing written to out — human-readable progress goes to
// msg — so the output can be piped straight into jq. Without jsonOut the human report
// goes to out. msg may be nil to discard progress.
func RunBatchBench(out, msg io.Writer, opt Options, jsonOut bool) error {
	if msg == nil {
		msg = io.Discard
	}
	opt = opt.withDefaults()
	workers := opt.Workers
	if workers <= 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Workers stays out of Params on purpose: positions are bit-identical for
	// any worker count, and the latency metrics carry a wide relative band.
	exp := opt.Recorder.Begin("batch", "serial vs parallel batch localization")
	defer exp.End()
	exp.Params(opt.evalParams())

	dep := testbed.Default()
	reqs, truth, err := dep.BatchRequests(opt.Locations, opt.Packets, testbed.ScenarioConfig{Band: testbed.BandHigh}, opt.Seed)
	if err != nil {
		return err
	}
	for _, r := range reqs {
		if opt.APs < len(r.Links) {
			r.Links = r.Links[:opt.APs]
		}
	}
	// The cold legs carry the serial-vs-parallel bitwise-identity contract,
	// so they always run the default profile. With the warm leg enabled, the
	// cold legs record into nothing and opt.Metrics captures the serving
	// profile — the committed BENCH snapshot then reflects what a server
	// running it does.
	coldOpt := opt
	coldOpt.Warm = false
	coldCfg := coldOpt.estimatorConfig()
	if opt.Warm {
		coldCfg.Metrics = nil
	}
	est, err := core.NewEstimator(coldCfg)
	if err != nil {
		return err
	}
	serial, err := core.NewEngine(est, 1)
	if err != nil {
		return err
	}
	parallel, err := core.NewEngine(est, workers)
	if err != nil {
		return err
	}

	ctx := opt.runCtx(exp)

	// Warm the dictionary/factorization caches outside the timed region so
	// both runs measure steady-state serving cost.
	fmt.Fprintf(msg, "batch bench: %d requests, %d APs, %d packets, %d workers\n", len(reqs), opt.APs, opt.Packets, workers)
	items := make([]core.BatchItem, len(reqs))
	for i, req := range reqs {
		items[i].Req = req
	}
	if err := serial.LocalizeBatchItems(context.Background(), items[:1])[0].Err; err != nil {
		return fmt.Errorf("experiments: warmup: %w", err)
	}

	run := func(eng *core.Engine, leg string) ([]*core.LocalizeResult, time.Duration, error) {
		fmt.Fprintf(msg, "running %s leg (%d workers)...\n", leg, eng.Workers())
		start := time.Now()
		outs := eng.LocalizeBatchItems(ctx, items)
		elapsed := time.Since(start)
		results := make([]*core.LocalizeResult, len(outs))
		for i, out := range outs {
			if out.Err != nil {
				return nil, 0, fmt.Errorf("experiments: request %d: %w", i, out.Err)
			}
			results[i] = out.Res
		}
		return results, elapsed, nil
	}
	serialRes, serialT, err := run(serial, "serial")
	if err != nil {
		return err
	}
	parallelRes, parallelT, err := run(parallel, "parallel")
	if err != nil {
		return err
	}

	// Warm leg: a fresh estimator with the serving solve profile, measuring
	// the serving path. Its positions are recorded as
	// the run's trials (so the -compare gate checks the warm medians against
	// the committed baseline), while the cold legs keep the bitwise
	// serial==parallel contract below.
	recordedRes := parallelRes
	var warmT time.Duration
	if opt.Warm {
		warmEst, err := core.NewEstimator(opt.estimatorConfig())
		if err != nil {
			return err
		}
		warmEng, err := core.NewEngine(warmEst, workers)
		if err != nil {
			return err
		}
		if err := warmEng.LocalizeBatchItems(context.Background(), items[:1])[0].Err; err != nil {
			return fmt.Errorf("experiments: warm warmup: %w", err)
		}
		warmRes, t, err := run(warmEng, "warm")
		if err != nil {
			return err
		}
		recordedRes, warmT = warmRes, t
	}

	identical := true
	coldErrs := make([]float64, len(reqs))
	locErrs := make([]float64, len(reqs))
	for i := range serialRes {
		if serialRes[i].Position != parallelRes[i].Position {
			identical = false
		}
		coldErrs[i] = parallelRes[i].Position.Dist(truth[i])
		locErrs[i] = recordedRes[i].Position.Dist(truth[i])
		exp.Record(quality.Trial{
			System:   SysROArray,
			Label:    "batch",
			Scenario: quality.Scenario{Seed: opt.Seed, Band: "high", APs: opt.APs, Packets: opt.Packets},
			Truth:    quality.Pos(truth[i].X, truth[i].Y),
			Estimate: quality.Pos(recordedRes[i].Position.X, recordedRes[i].Position.Y),
			Errors:   map[string]float64{"loc_m": locErrs[i]},
		})
	}
	cdf, err := stats.NewCDF(locErrs)
	if err != nil {
		return err
	}
	exp.Aggregate("loc_err", "m", locErrs)
	exp.Value("serial_s_per_op", "s", serialT.Seconds()/float64(len(reqs)))
	exp.Value("parallel_s_per_op", "s", parallelT.Seconds()/float64(len(reqs)))
	ident := 0.0
	if identical {
		ident = 1.0
	}
	exp.Value("identical", "ratio", ident)
	exp.Value("speedup", "", float64(serialT)/math.Max(float64(parallelT), 1))
	if opt.Warm {
		exp.Value("warm_s_per_op", "s", warmT.Seconds()/float64(len(reqs)))
	}
	res := BatchBenchResult{
		Benchmark:       "LocalizeBatch",
		Requests:        len(reqs),
		APsPerRequest:   opt.APs,
		Packets:         opt.Packets,
		Workers:         workers,
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		SerialNsPerOp:   serialT.Nanoseconds() / int64(len(reqs)),
		ParallelNsPerOp: parallelT.Nanoseconds() / int64(len(reqs)),
		Speedup:         float64(serialT) / math.Max(float64(parallelT), 1),
		MedianErrM:      cdf.Median(),
		Identical:       identical,
	}
	if opt.Warm {
		coldCDF, err := stats.NewCDF(coldErrs)
		if err != nil {
			return err
		}
		res.Warm = true
		res.WarmNsPerOp = warmT.Nanoseconds() / int64(len(reqs))
		res.WarmSpeedup = float64(parallelT) / math.Max(float64(warmT), 1)
		res.ColdMedianErrM = coldCDF.Median()
		// Serving-profile solves end at slightly different iterates, but the
		// localization medians must stay put; a drift past the gate's own
		// tolerance is a correctness bug, not a tuning matter.
		if d := math.Abs(res.MedianErrM - res.ColdMedianErrM); d > math.Max(0.1, 0.25*res.ColdMedianErrM) {
			return fmt.Errorf("experiments: warm median error %.3f m drifted %.3f m from cold %.3f m",
				res.MedianErrM, d, res.ColdMedianErrM)
		}
	}
	if opt.Metrics != nil {
		res.Metrics = opt.Metrics.Snapshot()
	}
	if jsonOut {
		if err := json.NewEncoder(out).Encode(res); err != nil {
			return err
		}
	} else {
		header(out, fmt.Sprintf("Batch localization: %d requests, %d APs, %d packets", res.Requests, res.APsPerRequest, res.Packets))
		fmt.Fprintf(out, "serial   (1 worker):   %v/op\n", time.Duration(res.SerialNsPerOp))
		fmt.Fprintf(out, "parallel (%d workers): %v/op\n", res.Workers, time.Duration(res.ParallelNsPerOp))
		fmt.Fprintf(out, "speedup: %.2fx   identical results: %v   median error: %.2f m\n", res.Speedup, res.Identical, res.MedianErrM)
		if res.Warm {
			fmt.Fprintf(out, "warm     (%d workers): %v/op   %.2fx over cold parallel   cold median: %.2f m\n",
				res.Workers, time.Duration(res.WarmNsPerOp), res.WarmSpeedup, res.ColdMedianErrM)
		}
	}
	if !identical {
		return fmt.Errorf("experiments: serial and parallel batch results diverged")
	}
	return nil
}
