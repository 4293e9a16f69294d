package quality

import (
	"bytes"
	"context"
	"regexp"
	"sync"
	"time"

	"roarray/internal/obs"
	"roarray/internal/stats"
)

// Recorder accumulates the machine-readable side channel of an evaluation
// run: every runner Begins one Exp per figure, records trials and
// aggregates into it, and the CLI serializes the whole run as one Artifact.
// All methods are nil-safe no-ops on a nil *Recorder (and on the nil *Exp a
// nil recorder hands out), so runner code stays unconditional and a run
// without -artifact pays only pointer checks.
type Recorder struct {
	mu      sync.Mutex
	metrics *obs.Registry
	exps    []*Exp
}

// NewRecorder returns an empty recorder. metrics, when non-nil, is sampled
// around each experiment to derive solver-convergence summaries; pass the
// same registry the estimators record into.
func NewRecorder(metrics *obs.Registry) *Recorder {
	return &Recorder{metrics: metrics}
}

// Begin opens the record of one experiment. Safe on a nil receiver
// (returns a nil Exp whose methods all no-op).
func (r *Recorder) Begin(id, title string) *Exp {
	if r == nil {
		return nil
	}
	x := &Exp{
		rec:   r,
		e:     &Experiment{ID: id, Title: title},
		start: time.Now(),
		probe: NewSolverProbe(r.metrics),
	}
	x.tracer = obs.NewTracer(&x.buf)
	r.mu.Lock()
	r.exps = append(r.exps, x)
	r.mu.Unlock()
	return x
}

// Artifact assembles the finished run. Experiments appear in Begin order;
// any still-open Exp is ended first.
func (r *Recorder) Artifact(tool string, seed int64, options map[string]int64) *Artifact {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	exps := append([]*Exp(nil), r.exps...)
	r.mu.Unlock()
	a := &Artifact{SchemaVersion: SchemaVersion, Tool: tool, Seed: seed, Options: options}
	for _, x := range exps {
		x.End()
		a.Experiments = append(a.Experiments, x.e)
	}
	return a
}

// Exp is the open record of one experiment.
type Exp struct {
	rec    *Recorder
	mu     sync.Mutex
	e      *Experiment
	start  time.Time
	buf    bytes.Buffer
	tracer *obs.Tracer
	probe  *SolverProbe
	ended  bool
}

// Params declares the option values that influence this experiment's
// numbers; Compare gates two artifacts' metrics only when they match.
func (x *Exp) Params(kv map[string]int64) {
	if x == nil {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.e.Params == nil {
		x.e.Params = make(map[string]int64, len(kv))
	}
	for k, v := range kv {
		x.e.Params[k] = v
	}
}

// Ctx returns ctx carrying the experiment's span tracer, so pipeline
// operations called under it feed the per-stage wall-clock bridge. A nil Exp
// returns ctx unchanged (no tracer, spans no-op).
func (x *Exp) Ctx(ctx context.Context) context.Context {
	if x == nil {
		return ctx
	}
	return obs.WithTracer(ctx, x.tracer)
}

// Record appends one trial, assigning its Index.
func (x *Exp) Record(t Trial) {
	if x == nil {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	t.Index = len(x.e.Trials)
	x.e.Trials = append(x.e.Trials, t)
}

// Aggregate summarizes samples under the unit's default tolerance band.
func (x *Exp) Aggregate(name, unit string, samples []float64) {
	x.AggregateTol(name, unit, samples, DefaultTolerance(unit))
}

// AggregateTol summarizes samples (median/p90/p95/mean via stats.CDF — the
// repository's one quantile implementation) under an explicit tolerance.
// Empty or NaN-bearing sample sets are dropped silently: an aggregate that
// cannot be computed must not masquerade as a zero.
func (x *Exp) AggregateTol(name, unit string, samples []float64, tol Tolerance) {
	if x == nil {
		return
	}
	sum, err := stats.Summarize(name, samples)
	if err != nil {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	x.e.Aggregates = append(x.e.Aggregates, Aggregate{
		Name:   name,
		Unit:   unit,
		N:      sum.N,
		Median: sum.Median,
		P90:    sum.P90,
		P95:    sum.P95,
		Mean:   sum.Mean,
		Tol:    tol,
	})
}

// Value records a single-sample aggregate (a scalar measurement such as a
// build time or a speedup) under the unit's default tolerance.
func (x *Exp) Value(name, unit string, v float64) {
	x.Aggregate(name, unit, []float64{v})
}

// End closes the record: wall-clock, trials/second, the span→stage bridge,
// and the solver-convergence delta. Idempotent; Artifact calls it for any
// experiment left open.
func (x *Exp) End() {
	if x == nil {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.ended {
		return
	}
	x.ended = true
	x.e.ElapsedNs = time.Since(x.start).Nanoseconds()
	if n := len(x.e.Trials); n > 0 && x.e.ElapsedNs > 0 {
		x.e.TrialsPerSecond = float64(n) / (float64(x.e.ElapsedNs) / 1e9)
	}
	if events, err := obs.ReadEvents(&x.buf); err == nil && len(events) > 0 {
		x.e.Stages = make(map[string]Stage, 16)
		for _, ev := range events {
			name := normalizeStage(ev.Name)
			s := x.e.Stages[name]
			s.Count++
			s.TotalNs += ev.DurNs
			x.e.Stages[name] = s
		}
	}
	if d := x.probe.Take(); d.Solves > 0 {
		x.e.Convergence = &Convergence{
			Solves:       d.Solves,
			NonConverged: d.NonConverged,
			Rate:         float64(d.Solves-d.NonConverged) / float64(d.Solves),
		}
	}
}

// stageIndex strips per-instance suffixes so spans aggregate by stage kind:
// estimate.ap3 -> estimate.ap, localize.req12 -> localize.req.
var stageIndex = regexp.MustCompile(`[0-9]+$`)

func normalizeStage(name string) string {
	return stageIndex.ReplaceAllString(name, "")
}

// SolverProbe samples the sparse-solver telemetry counters of a metrics
// registry so runners can attribute solver outcomes to trials or
// experiments by delta. A nil registry yields a probe whose deltas are
// always zero.
type SolverProbe struct {
	reg     *obs.Registry
	count   int64
	iters   float64
	nonconv int64
}

// SolverDelta is the solver activity observed between two Take calls.
type SolverDelta struct {
	Solves       int64
	Iterations   int64
	NonConverged int64
}

// NewSolverProbe snapshots the registry's solver counters now.
func NewSolverProbe(reg *obs.Registry) *SolverProbe {
	p := &SolverProbe{reg: reg}
	if reg != nil {
		p.snap()
	}
	return p
}

func (p *SolverProbe) snap() {
	h := p.reg.Histogram("sparse.solve.iterations")
	p.count = h.Count()
	p.iters = h.Sum()
	p.nonconv = p.reg.Counter("sparse.solve.nonconverged_total").Value()
}

// Take returns the delta since the probe was created or last Taken, and
// re-arms it. Safe on a nil probe or probe over a nil registry.
func (p *SolverProbe) Take() SolverDelta {
	if p == nil || p.reg == nil {
		return SolverDelta{}
	}
	prevCount, prevIters, prevNonconv := p.count, p.iters, p.nonconv
	p.snap()
	return SolverDelta{
		Solves:       p.count - prevCount,
		Iterations:   int64(p.iters - prevIters),
		NonConverged: p.nonconv - prevNonconv,
	}
}

// Info converts a single-solve delta into the trial-level SolverInfo.
func (d SolverDelta) Info(name string) *SolverInfo {
	if d.Solves == 0 {
		return nil
	}
	return &SolverInfo{
		Name:       name,
		Iterations: int(d.Iterations),
		Converged:  d.NonConverged == 0,
	}
}
