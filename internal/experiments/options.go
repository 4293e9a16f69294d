// Package experiments regenerates every figure in the paper's evaluation
// (Sec. II Fig. 2, Sec. III Figs. 3-4, Sec. IV Figs. 6-8) plus the
// Sec. III-C complexity discussion, printing paper-reported values next to
// the measured ones. Each figure has a Run function and a registry entry
// used by cmd/roabench and by the top-level benchmarks.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"roarray/internal/core"
	"roarray/internal/obs"
	"roarray/internal/quality"
	"roarray/internal/sparse"
	"roarray/internal/spectra"
	"roarray/internal/testbed"
	"roarray/internal/wireless"
)

// Options control experiment scale. The zero value selects sizes that keep
// a full figure under a couple of minutes on a laptop; raise Locations and
// grid sizes (and be patient) to approach the paper's 300-location runs.
type Options struct {
	// Seed makes runs reproducible.
	Seed int64
	// Locations is the number of client placements for Figs. 6-8
	// (paper: 300; default 10).
	Locations int
	// Packets per estimate (paper: 15).
	Packets int
	// APs used for localization (paper: 6).
	APs int
	// ThetaPoints / TauPoints set the ROArray grid resolution
	// (default 46 x 20; paper works at 90 x 50).
	ThetaPoints int
	TauPoints   int
	// SolverIters caps the ADMM iterations per solve (default 150 — the
	// support stabilizes long before full convergence).
	SolverIters int
	// Warm selects the serving solve profile (core.Config.Warm): its only
	// effect is that joint solves stop once a duality-gap certificate shows
	// them within 2% of optimal (every joint solve runs on the Kronecker
	// factors, with or without it). Off by default — gap-stopped solves end
	// at different iterates, so the bit-reproducible figure pipeline and the
	// cold bench legs leave it off; RunBatchBench's warm leg and the serving
	// path turn it on.
	Warm bool
	// Search tunes the Eq. 19 localization grid search (core.SearchConfig);
	// the zero value selects the branch-and-bound strategy, bit-identical
	// to the flat scan.
	Search core.SearchConfig
	// Workers bounds the goroutines used for per-link estimation fan-out
	// (default 1 = serial; negative selects runtime.GOMAXPROCS). Results are
	// identical for any value: scenario and burst generation stay serial on
	// the figure's seeded RNG, and only the deterministic estimation work is
	// parallelized.
	Workers int
	// Metrics, when non-nil, threads an observability registry through the
	// estimator, engine, and sparse solvers; RunBatchBench also embeds its
	// snapshot in the JSON result. Nil disables all recording.
	Metrics *obs.Registry
	// Tracer, when non-nil, receives JSONL span events for every pipeline
	// stage of the run.
	Tracer *obs.Tracer
	// Recorder, when non-nil, collects the machine-readable evaluation
	// telemetry of every figure run: per-trial records, gated aggregates,
	// per-stage wall-clock, solver convergence. Recording is a pure side
	// channel — the human-readable tables are byte-identical with or
	// without it (pinned by TestGoldenTranscripts).
	Recorder *quality.Recorder
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Locations == 0 {
		o.Locations = 10
	}
	if o.Packets == 0 {
		o.Packets = 15
	}
	if o.APs == 0 {
		o.APs = 6
	}
	if o.ThetaPoints == 0 {
		o.ThetaPoints = 46
	}
	if o.TauPoints == 0 {
		o.TauPoints = 20
	}
	if o.SolverIters == 0 {
		o.SolverIters = 150
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	return o
}

// estimatorConfig builds the ROArray estimator configuration implied by the
// options.
func (o Options) estimatorConfig() core.Config {
	ofdm := wireless.Intel5300OFDM()
	return core.Config{
		Array:     wireless.Intel5300Array(),
		OFDM:      ofdm,
		ThetaGrid: spectra.UniformGrid(0, 180, o.ThetaPoints),
		TauGrid:   spectra.UniformGrid(0, ofdm.MaxToA(), o.TauPoints),
		SolverOptions: []sparse.Option{
			sparse.WithMaxIters(o.SolverIters),
		},
		Warm:    o.Warm,
		Search:  o.Search,
		Metrics: o.Metrics,
	}
}

// runCtx is the context runners pass to the pipeline operations:
// the user's tracer (-trace) when set — it owns the span stream — else the
// experiment record's span→stage bridge.
func (o Options) runCtx(exp *quality.Exp) context.Context {
	ctx := exp.Ctx(context.Background())
	if o.Tracer != nil {
		ctx = obs.WithTracer(context.Background(), o.Tracer)
	}
	return ctx
}

// seedParams names the options every figure's numbers depend on; figures
// with more knobs merge theirs on top via Exp.Params.
func (o Options) seedParams() map[string]int64 {
	return map[string]int64{"seed": o.Seed}
}

// gridParams covers figures driven by the shared estimator configuration.
func (o Options) gridParams() map[string]int64 {
	return map[string]int64{
		"seed":  o.Seed,
		"theta": int64(o.ThetaPoints),
		"tau":   int64(o.TauPoints),
		"iters": int64(o.SolverIters),
	}
}

// evalParams covers the multi-location comparative figures.
func (o Options) evalParams() map[string]int64 {
	p := o.gridParams()
	p["locations"] = int64(o.Locations)
	p["packets"] = int64(o.Packets)
	p["aps"] = int64(o.APs)
	return p
}

// ParamSummary reports the resolved option values an artifact records at
// top level. Informational only: the per-experiment Params maps do the
// comparison gating.
func (o Options) ParamSummary() map[string]int64 {
	o = o.withDefaults()
	return map[string]int64{
		"locations": int64(o.Locations),
		"packets":   int64(o.Packets),
		"aps":       int64(o.APs),
		"theta":     int64(o.ThetaPoints),
		"tau":       int64(o.TauPoints),
		"iters":     int64(o.SolverIters),
	}
}

// Runner executes one experiment, writing a human-readable report.
type Runner func(w io.Writer, opt Options) error

// AllIDs returns every experiment id in canonical run order: the paper
// figures, the complexity table, then the ablations. "-fig all" runs
// exactly this list.
func AllIDs() []string {
	return []string{"2", "3", "4", "6", "7", "8a", "8b", "8c", "cx", "og", "ab", "fs"}
}

// Get resolves an experiment by figure id ("2", "3", "4", "6", "7", "8a",
// "8b", "8c", "cx") or ablation id ("og" off-grid sensitivity, "ab" solver
// comparison, "fs" fusion-size sweep). The second return lists valid ids
// when the lookup fails.
func Get(id string) (Runner, []string) {
	reg := map[string]Runner{
		"2":  RunFig2,
		"3":  RunFig3,
		"4":  RunFig4,
		"6":  RunFig6,
		"7":  RunFig7,
		"8a": RunFig8a,
		"8b": RunFig8b,
		"8c": RunFig8c,
		"cx": RunComplexity,
		"og": RunAblationOffGrid,
		"ab": RunAblationSolvers,
		"fs": RunAblationFusion,
		// "fault" and "track" are addressable directly but excluded from
		// AllIDs(): their artifacts gate against BENCH_fault.json and
		// BENCH_track.json respectively, not the fault-free quality baseline.
		"fault": RunFaultSweep,
		"track": RunTrack,
	}
	if r, ok := reg[id]; ok {
		return r, nil
	}
	ids := make([]string, 0, len(reg))
	for k := range reg {
		ids = append(ids, k)
	}
	sort.Strings(ids)
	return nil, ids
}

// bandLabel renders the paper's band naming.
func bandLabel(b testbed.SNRBand) string {
	switch b {
	case testbed.BandHigh:
		return "high SNRs, >=15 dB"
	case testbed.BandMedium:
		return "medium SNRs, (2,15) dB"
	default:
		return "low SNRs, <=2 dB"
	}
}

// bandKey is the band's compact metric-name component.
func bandKey(b testbed.SNRBand) string {
	switch b {
	case testbed.BandHigh:
		return "high"
	case testbed.BandMedium:
		return "medium"
	default:
		return "low"
	}
}

// header prints a figure banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
