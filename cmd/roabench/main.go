// Command roabench regenerates the paper's evaluation figures and measures
// the batch localization engine.
//
// Usage:
//
//	roabench -fig 6 -locations 40            # Fig. 6 at 40 client placements
//	roabench -fig all -locations 10          # every figure, quick settings
//	roabench -fig cx                         # Sec. III-C complexity table
//	roabench -fig 6 -parallel 8              # fan estimation over 8 workers
//	roabench -batch 32 -parallel 0 -json     # serial-vs-parallel batch bench
//	roabench -batch 8 -trace out.jsonl       # JSONL span tree of the run
//	roabench -batch 8 -metrics-addr :8080 -metrics-hold 30s
//	roabench -fig all -artifact out.json     # + machine-readable telemetry
//	roabench -compare BENCH_quality.json -artifact out.json  # regression gate
//
// Figure ids: 2, 3, 4, 6, 7, 8a, 8b, 8c, cx, plus the ablations og
// (off-grid sensitivity), ab (solver comparison), and fs (fusion-size
// sweep); "all" runs every experiment in that order.
//
// -batch N skips the figures and instead times Engine.LocalizeBatchItems
// over N testbed requests serially and with -parallel workers (0 =
// GOMAXPROCS), verifying the results are identical; with -json it emits
// exactly one machine-readable line on stdout (ns/op, speedup, workers, and
// the metrics registry snapshot) for BENCH_*.json trajectory tracking —
// progress goes to stderr, so the output pipes cleanly into jq.
//
// -artifact FILE writes the run's structured evaluation telemetry (per-trial
// records, aggregates with tolerance bands, per-stage wall-clock, solver
// convergence) as a versioned JSON artifact. -compare BASELINE skips running
// anything: it reads BASELINE and the -artifact file, checks every gated
// aggregate against the baseline's tolerance band, prints a readable diff,
// and exits non-zero on any regression or missing metric.
//
// -metrics-addr serves /metrics (JSON registry snapshot), /debug/vars
// (expvar), and /debug/pprof for the duration of the run; -metrics-hold
// keeps the server up that much longer afterwards so the final counters can
// be inspected. -trace FILE streams one JSON span event per pipeline stage.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"roarray"
	"roarray/internal/core"
	"roarray/internal/experiments"
	"roarray/internal/quality"
)

func main() {
	if err := run(os.Stdout, os.Stderr, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "roabench:", err)
		os.Exit(1)
	}
}

func run(stdout, stderr io.Writer, args []string) error {
	fs := flag.NewFlagSet("roabench", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate: 2,3,4,6,7,8a,8b,8c,cx, ablations og/ab, or all")
	seed := fs.Int64("seed", 1, "random seed")
	locations := fs.Int("locations", 0, "client placements for Figs. 6-8 (0 = default 10; paper used 300)")
	packets := fs.Int("packets", 0, "packets per estimate (0 = default 15)")
	aps := fs.Int("aps", 0, "APs used for localization (0 = default 6)")
	theta := fs.Int("theta", 0, "ROArray AoA grid points (0 = default 46; paper 90)")
	tau := fs.Int("tau", 0, "ROArray ToA grid points (0 = default 20; paper 50)")
	iters := fs.Int("iters", 0, "solver iteration cap (0 = default 150)")
	parallel := fs.Int("parallel", 1, "estimation worker count (0 or negative = GOMAXPROCS)")
	warm := fs.Bool("warm", false, "serving solve profile: joint solves stop once a duality-gap certificate shows them within 2% of optimal (they run on the Kronecker factors with or without it); with -batch this adds a serving-profile leg whose metrics feed the JSON snapshot")
	search := fs.String("search", "coarse", "localization grid-search strategy: coarse, flat, or exact (cross-checked)")
	batch := fs.Int("batch", 0, "run the batch localization benchmark over this many requests instead of figures")
	faultSweep := fs.Bool("fault", false, "run the fault-injection degradation sweep instead of figures (artifact gates against BENCH_fault.json)")
	jsonOut := fs.Bool("json", false, "emit the batch benchmark result as one JSON line on stdout")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address during the run")
	metricsHold := fs.Duration("metrics-hold", 0, "keep the metrics server up this long after the workload finishes")
	traceFile := fs.String("trace", "", "write a JSONL span trace of the run to this file")
	artifact := fs.String("artifact", "", "write the run's evaluation telemetry to this JSON file (with -compare: the current artifact to check)")
	compare := fs.String("compare", "", "compare the -artifact file against this baseline artifact and exit non-zero on regression (runs nothing)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *compare != "" {
		if *artifact == "" {
			return fmt.Errorf("-compare requires -artifact <current.json> to name the artifact under test")
		}
		return runCompare(stdout, *compare, *artifact)
	}

	workers := *parallel
	if workers <= 0 {
		workers = -1 // experiments.Options: negative selects GOMAXPROCS
	}
	searchMode, err := core.ParseSearchMode(*search)
	if err != nil {
		return err
	}
	opt := experiments.Options{
		Seed:        *seed,
		Locations:   *locations,
		Packets:     *packets,
		APs:         *aps,
		ThetaPoints: *theta,
		TauPoints:   *tau,
		SolverIters: *iters,
		Warm:        *warm,
		Search:      core.SearchConfig{Mode: searchMode},
		Workers:     workers,
		Metrics:     roarray.NewMetrics(),
	}
	if *artifact != "" {
		opt.Recorder = quality.NewRecorder(opt.Metrics)
	}

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return fmt.Errorf("create trace file: %w", err)
		}
		defer f.Close()
		tracer := roarray.NewTracer(f)
		opt.Tracer = tracer
		defer func() {
			if n := tracer.WriteErrors(); n > 0 {
				fmt.Fprintf(stderr, "roabench: %d span events were lost to trace write errors\n", n)
			}
		}()
	}
	if *metricsAddr != "" {
		srv, err := roarray.ServeDebug(*metricsAddr, opt.Metrics)
		if err != nil {
			return fmt.Errorf("metrics server: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "roabench: metrics on http://%s/metrics (pprof on /debug/pprof)\n", srv.Addr())
		if *metricsHold > 0 {
			defer func() {
				fmt.Fprintf(stderr, "roabench: holding metrics server for %v\n", *metricsHold)
				time.Sleep(*metricsHold)
			}()
		}
	}

	if *faultSweep {
		if err := experiments.RunFaultSweep(stdout, opt); err != nil {
			return err
		}
		return writeArtifact(stderr, *artifact, opt, *seed)
	}

	if *batch > 0 {
		opt.Locations = *batch
		if err := experiments.RunBatchBench(stdout, stderr, opt, *jsonOut); err != nil {
			return err
		}
		return writeArtifact(stderr, *artifact, opt, *seed)
	}

	ids := []string{*fig}
	if strings.EqualFold(*fig, "all") {
		ids = experiments.AllIDs()
	}
	for _, id := range ids {
		runner, valid := experiments.Get(id)
		if runner == nil {
			return fmt.Errorf("unknown figure %q (valid: %s, all)", id, strings.Join(valid, ", "))
		}
		if err := runner(stdout, opt); err != nil {
			return fmt.Errorf("figure %s: %w", id, err)
		}
	}
	return writeArtifact(stderr, *artifact, opt, *seed)
}

// writeArtifact assembles and writes the recorded telemetry; a no-op when
// -artifact was not given (opt.Recorder nil).
func writeArtifact(stderr io.Writer, path string, opt experiments.Options, seed int64) error {
	if path == "" || opt.Recorder == nil {
		return nil
	}
	art := opt.Recorder.Artifact("roabench", seed, opt.ParamSummary())
	if err := art.Validate(); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	if err := art.WriteFile(path); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	fmt.Fprintf(stderr, "roabench: wrote evaluation artifact %s (%d experiments)\n", path, len(art.Experiments))
	return nil
}

// runCompare implements the regression gate: read both artifacts, check the
// current one against the baseline's tolerance bands, print the report, and
// return an error (non-zero exit) on any regression or missing metric.
func runCompare(stdout io.Writer, basePath, curPath string) error {
	base, err := quality.ReadFile(basePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	cur, err := quality.ReadFile(curPath)
	if err != nil {
		return fmt.Errorf("current: %w", err)
	}
	rep := quality.Compare(base, cur)
	rep.Format(stdout, false)
	if !rep.OK() {
		return fmt.Errorf("quality gate failed against %s", basePath)
	}
	return nil
}
