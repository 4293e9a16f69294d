package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"roarray/internal/obs"
	"roarray/internal/spectra"
	"roarray/internal/wireless"
)

// Engine fans localization work out over a bounded pool of workers while
// sharing one Estimator — and therefore one set of lazily-built AoA and
// space-delay dictionaries and their cached solver factorizations (the AoA
// solver's Woodbury Cholesky factor, the joint solver's block-diagonal
// Kronecker ridge step) —
// across all of them. The estimator's solve path reads that shared state and
// allocates per-call scratch, so concurrent use is safe; everything mutable
// lives on the goroutine that created it.
//
// Two axes of parallelism are exposed:
//
//   - Localize fans the per-AP fused joint spectrum + DirectPath work of one
//     request over the pool, then runs the Eq. 19 grid search (a flat scan
//     fans out over the pool in column strips).
//   - LocalizeBatchItems fans whole independent requests over the pool,
//     keeping each request's internal pipeline serial (the batch already
//     saturates the workers; nesting would only oversubscribe).
//
// All results are bit-identical to a serial run for any worker count:
// estimation is deterministic given its inputs, per-request outputs land in
// index-addressed slots, and the grid search reduces strips in scan order.
type Engine struct {
	est     *Estimator
	workers int
	met     *engineMetrics // nil when the estimator has no metrics registry
}

// engineMetrics caches the engine-level metric handles (request counters and
// the end-to-end localization latency histogram).
type engineMetrics struct {
	reg          *obs.Registry
	requests     *obs.Counter
	batches      *obs.Counter
	linkFailures *obs.Counter
	localizeSecs *obs.Histogram
}

func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	if reg == nil {
		return nil
	}
	return &engineMetrics{
		reg:          reg,
		requests:     reg.Counter("engine.requests_total"),
		batches:      reg.Counter("engine.batches_total"),
		linkFailures: reg.Counter("engine.link_failures_total"),
		localizeSecs: reg.Histogram("engine.localize.seconds", obs.ExpBuckets(0.001, 2, 16)...),
	}
}

// NewEngine returns an engine running on the given estimator. workers <= 0
// selects runtime.GOMAXPROCS(0). The engine inherits the estimator's
// metrics registry (Config.Metrics): engine-level request counts and latency
// histograms are recorded there.
func NewEngine(est *Estimator, workers int) (*Engine, error) {
	if est == nil {
		return nil, fmt.Errorf("core: engine needs an estimator")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{est: est, workers: workers, met: newEngineMetrics(est.cfg.Metrics)}, nil
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// Estimator returns the shared estimator.
func (e *Engine) Estimator() *Estimator { return e.est }

// Map runs fn(i) for every i in [0, n) across up to Workers() goroutines and
// returns when all calls have finished. fn must write its result into an
// index-addressed slot (never append to a shared slice) so that output order
// is independent of scheduling. With one worker (or n <= 1) it runs inline.
func (e *Engine) Map(n int, fn func(i int)) {
	w := e.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// LinkInput is one AP's contribution to a localization request: the AP
// geometry, the link RSSI, and the packet burst to estimate the direct-path
// AoA from.
type LinkInput struct {
	// Pos is the AP (array center) position.
	Pos Point
	// AxisDeg is the array axis orientation (degrees CCW from +x).
	AxisDeg float64
	// RSSIdBm is the link's received signal strength (Eq. 19 weight).
	RSSIdBm float64
	// Packets is the CSI burst for this link.
	Packets []*wireless.CSI
}

// LocalizeRequest is one end-to-end localization unit of work: per-AP packet
// bursts plus the search region.
type LocalizeRequest struct {
	Links []LinkInput
	// Bounds is the position search region.
	Bounds Rect
	// Step is the search grid step in meters; <= 0 selects 0.1 m.
	Step float64
}

// LinkResult is the per-AP outcome within a LocalizeResult.
type LinkResult struct {
	// AoADeg is the estimated direct-path AoA. When Err is non-nil this
	// falls back to the uninformative broadside 90 degrees, mirroring how a
	// deployed system degrades rather than aborting on one bad link.
	AoADeg float64
	// Peak is the winning spectrum peak (zero value when Err is non-nil).
	Peak spectra.Peak
	// Err reports a per-link estimation failure.
	Err error
	// Confidence is the fusion weight multiplier assigned when admission
	// sanitization flagged this link faulty (dropped/repaired packets or
	// dead antennas); it stays zero — meaning full weight — on clean links,
	// so fault-free results are unchanged.
	Confidence float64
	// Sanitize reports what admission sanitization did to the link's packet
	// burst; nil when the burst was clean.
	Sanitize *BurstReport
	// Solve summarizes the sparse solve that produced this link's spectrum:
	// which algorithm, how many iterations, whether the fallback chain
	// engaged. Zero value when the link failed before solving.
	Solve SolveInfo
}

// LocalizeResult is the outcome of one request.
type LocalizeResult struct {
	// Position is the Eq. 19 grid-search estimate.
	Position Point
	// Links holds the per-AP estimates in request order.
	Links []LinkResult
	// Search reports what the Eq. 19 grid search actually did (mode and
	// cells evaluated) for this request.
	Search SearchStats
}

// validate checks a request before work is scheduled for it.
func (r *LocalizeRequest) validate() error {
	if r == nil {
		return fmt.Errorf("core: nil localization request")
	}
	if len(r.Links) < 2 {
		return fmt.Errorf("core: request needs >= 2 links, got %d", len(r.Links))
	}
	if r.Bounds.MaxX <= r.Bounds.MinX || r.Bounds.MaxY <= r.Bounds.MinY {
		return fmt.Errorf("core: empty request bounds %+v", r.Bounds)
	}
	return nil
}

// estimateLink runs the single-link pipeline for one request link: admission
// sanitization (reject/repair broken packets), fused joint spectrum, then
// smallest-ToA direct path. A link whose burst the sanitizer had to touch is
// flagged with a reduced Confidence so the Eq. 19 fusion down-weights it; a
// link the sanitizer rejects outright (or that fails estimation after being
// flagged) degrades to broadside at the confidence floor instead of poisoning
// the position with full weight.
func (e *Engine) estimateLink(ctx context.Context, in *LinkInput) LinkResult {
	const fallbackAoA = 90.0
	// A dead context is not a link failure: skip the work and let localize
	// fail the whole request (degrading to broadside here would let a timed
	// out request return a confidently wrong position).
	if err := ctx.Err(); err != nil {
		return LinkResult{AoADeg: fallbackAoA, Err: err}
	}
	if len(in.Packets) == 0 {
		e.met.recordLinkFailure()
		return LinkResult{AoADeg: fallbackAoA, Err: fmt.Errorf("core: link has no packets")}
	}
	cfg := e.est.Config()
	packets, rep, serr := SanitizeBurst(in.Packets, cfg.Array.NumAntennas, cfg.OFDM.NumSubcarriers)
	e.met.recordSanitize(rep)
	if serr != nil {
		e.met.recordLinkFailure()
		report := rep
		return LinkResult{AoADeg: fallbackAoA, Err: serr, Confidence: confidenceFloor, Sanitize: &report}
	}
	var conf float64
	var report *BurstReport
	if !rep.Clean() {
		// A copy, so a clean link's report stays off the heap.
		conf = rep.Confidence()
		flagged := rep
		report = &flagged
	}
	peak, info, err := e.est.EstimateDirectAoA(ctx, packets)
	if err != nil {
		e.met.recordLinkFailure()
		if report != nil {
			// Estimation failed on a burst already flagged faulty: keep the
			// broadside fallback but at the floor weight.
			return LinkResult{AoADeg: fallbackAoA, Err: err, Confidence: confidenceFloor, Sanitize: report, Solve: info}
		}
		return LinkResult{AoADeg: fallbackAoA, Err: err, Solve: info}
	}
	return LinkResult{AoADeg: peak.ThetaDeg, Peak: peak, Confidence: conf, Sanitize: report, Solve: info}
}

func (m *engineMetrics) recordLinkFailure() {
	if m == nil {
		return
	}
	m.linkFailures.Inc()
}

// recordSanitize notes one burst's sanitization outcome. Clean bursts cost a
// nil check and a comparison; flagged ones bump the admission counters.
func (m *engineMetrics) recordSanitize(rep BurstReport) {
	if m == nil || rep.Clean() {
		return
	}
	m.reg.Counter("engine.sanitize.flagged_links_total").Inc()
	if n := rep.DroppedDimension + rep.DroppedNonFinite; n > 0 {
		m.reg.Counter("engine.sanitize.dropped_packets_total").Add(int64(n))
	}
	if rep.Repaired > 0 {
		m.reg.Counter("engine.sanitize.repaired_packets_total").Add(int64(rep.Repaired))
	}
	if rep.DeadAntennas > 0 {
		m.reg.Counter("engine.sanitize.dead_antennas_total").Add(int64(rep.DeadAntennas))
	}
}

// Localize processes one request, fanning the per-AP estimation over the
// worker pool, then running the Eq. 19 grid search. When ctx carries an
// obs.Tracer, the call emits a "localize" span with "estimate.ap<i>"
// children (each wrapping the link's sanitize/dict/fuse/solve/peak stages)
// and a "localize.grid" span around the Eq. 19 search. See localize for the
// cancellation contract.
func (e *Engine) Localize(ctx context.Context, req *LocalizeRequest) (*LocalizeResult, error) {
	return e.localize(ctx, req, e.workers, nil)
}

// estimateLinks runs the per-AP estimation half of a request into out —
// validation, then the sanitize/solve/peak pipeline, fanned over the worker
// pool when workers > 1 and in a plain loop otherwise — and assembles the
// Eq. 19 observations in ob. It overwrites every field of out and reuses
// the capacity of out.Links. It is shared by the stateless and tracked
// localization paths, which differ only in how they run the grid search on
// the observations.
func (e *Engine) estimateLinks(ctx context.Context, req *LocalizeRequest, workers int, out *LocalizeResult, ob *observations) error {
	if err := req.validate(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: localize: %w", err)
	}
	*out = LocalizeResult{Links: grow(out.Links, len(req.Links))}
	if workers <= 1 {
		for i := range req.Links {
			e.estimateLinkSpan(ctx, req, out, i)
		}
	} else {
		inner := *e
		inner.workers = workers
		inner.Map(len(req.Links), func(i int) { e.estimateLinkSpan(ctx, req, out, i) })
	}
	// Fail the request rather than localizing from whatever links finished
	// before the context died.
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: localize estimation aborted: %w", err)
	}
	ob.aps = grow(ob.aps, len(req.Links))
	for i, in := range req.Links {
		ob.aps[i] = APObservation{
			Pos:        in.Pos,
			AxisDeg:    in.AxisDeg,
			AoADeg:     out.Links[i].AoADeg,
			RSSIdBm:    in.RSSIdBm,
			Confidence: out.Links[i].Confidence,
		}
	}
	return nil
}

// estimateLinkSpan estimates link i of req into out.Links[i] under an
// "estimate.ap<i>" span.
func (e *Engine) estimateLinkSpan(ctx context.Context, req *LocalizeRequest, out *LocalizeResult, i int) {
	lctx, lsp := obs.StartSpanf(ctx, "estimate.ap%d", i)
	out.Links[i] = e.estimateLink(lctx, &req.Links[i])
	lsp.End()
}

// localize runs one request with the given degree of internal parallelism,
// writing its result into out (a fresh result when out is nil).
// Cancellation contract: when ctx dies the call returns promptly with an
// error wrapping ctx.Err() — before scheduling work if already dead, at the
// next stage boundary during estimation, and within one branch-and-bound
// node (one grid column in a flat scan) during the Eq. 19 search. A
// timed-out request never yields a position.
func (e *Engine) localize(ctx context.Context, req *LocalizeRequest, workers int, out *LocalizeResult) (*LocalizeResult, error) {
	ctx, sp := obs.StartSpan(ctx, "localize")
	defer sp.End()
	var t0 time.Time
	if e.met != nil {
		t0 = time.Now()
	}
	if out == nil {
		out = new(LocalizeResult)
	}
	ob := takeObservations()
	defer ob.release()
	if err := e.estimateLinks(ctx, req, workers, out, ob); err != nil {
		return nil, err
	}
	_, gsp := obs.StartSpan(ctx, "localize.grid")
	pos, stats, err := LocalizeSearchCtx(ctx, ob.aps, req.Bounds, req.Step, workers, e.est.cfg.Search)
	gsp.End()
	if err != nil {
		return nil, err
	}
	e.met.recordSearch(stats)
	out.Position = pos
	out.Search = stats
	if e.met != nil {
		// The exemplar joins this request's latency bucket back to its
		// request ID (empty when the caller didn't tag the context).
		e.met.localizeSecs.ObserveExemplar(time.Since(t0).Seconds(), obs.RequestIDFrom(ctx))
		e.met.requests.Inc()
	}
	return out, nil
}

// TrackResult is the outcome of one tracked localization epoch.
type TrackResult struct {
	// Fix is the per-epoch localization the filter absorbed. Its Position is
	// the raw grid fix (windowed or full-grid — whichever was accepted) and
	// its Search describes the accepted search.
	Fix *LocalizeResult
	// Track is the filter outcome after absorbing the fix.
	Track TrackFix
	// State is the filter state snapshot after the update, ready for a
	// serving layer to persist for the next epoch.
	State TrackState
	// Windowed reports that the accepted fix came from the prediction-shrunk
	// window search.
	Windowed bool
	// Fallback reports that a windowed attempt ran but was rejected (argmin
	// on a window edge, or innovation outside the NIS gate) and the full
	// search re-ran — the verified-fallback path.
	Fallback bool
	// FallbackCause names why a Fallback attempt was rejected: "gate" when
	// its argmin failed the tracker's NIS gate (or had no innovation to
	// gate), otherwise "edge" when the argmin sat on the window edge. A
	// rejection on both counts is a "gate" one. Empty unless Fallback.
	FallbackCause string
	// WindowStats describes the rejected windowed attempt (zero unless
	// Fallback), so the wasted work is visible to benchmarks.
	WindowStats SearchStats
}

// LocalizeTracked runs one epoch of a tracked target: per-AP estimation
// exactly as Localize, then the Eq. 19 search constrained to the
// tracker's predicted window when one is available. The windowed result is
// accepted only when it lands strictly inside the window and passes the
// tracker's NIS gate; otherwise the full configured search re-runs
// (bit-identical to the stateless path by construction) before the filter
// absorbs the fix. The tracker is mutated by the absorbed fix; on any error
// it is left untouched.
func (e *Engine) LocalizeTracked(ctx context.Context, req *LocalizeRequest, tr *Tracker, t float64) (*TrackResult, error) {
	return e.localizeTracked(ctx, req, tr, t, e.workers, nil, nil)
}

// localizeTracked runs one tracked epoch, writing its result into res and
// the fix into fix (fresh values for whichever is nil).
func (e *Engine) localizeTracked(ctx context.Context, req *LocalizeRequest, tr *Tracker, t float64, workers int, res *TrackResult, fix *LocalizeResult) (*TrackResult, error) {
	if tr == nil {
		return nil, fmt.Errorf("core: tracked localize needs a tracker")
	}
	ctx, sp := obs.StartSpan(ctx, "localize.tracked")
	defer sp.End()
	var t0 time.Time
	if e.met != nil {
		t0 = time.Now()
	}
	if fix == nil {
		fix = new(LocalizeResult)
	}
	ob := takeObservations()
	defer ob.release()
	if err := e.estimateLinks(ctx, req, workers, fix, ob); err != nil {
		return nil, err
	}
	aps := ob.aps
	scfg := e.est.cfg.Search
	if res == nil {
		res = new(TrackResult)
	}
	*res = TrackResult{}
	var pos Point
	var stats SearchStats
	accepted := false
	if win, ok := tr.PredictWindow(t, req.Step); ok {
		wcfg := scfg
		wcfg.Window = &win
		_, gsp := obs.StartSpan(ctx, "localize.grid.window")
		p, st, err := LocalizeSearchCtx(ctx, aps, req.Bounds, req.Step, workers, wcfg)
		gsp.End()
		if err != nil {
			return nil, err
		}
		e.met.recordSearch(st)
		if st.Mode == "window" {
			// Verify: an interior argmin passing the NIS gate is provably
			// the fix the full scan would pick inside the gate region; an
			// edge hit or gate failure means the true optimum may lie
			// outside the window, so the full search must decide.
			nis, ok := tr.NISAt(t, p)
			gated := ok && nis <= tr.GateNIS
			switch {
			case gated && !st.WindowEdge:
				pos, stats, accepted = p, st, true
				res.Windowed = true
			case !gated:
				res.Fallback, res.FallbackCause = true, "gate"
				res.WindowStats = st
			default:
				res.Fallback, res.FallbackCause = true, "edge"
				res.WindowStats = st
			}
		} else {
			// The window missed the grid and the call degraded to the
			// configured full-grid strategy — already a full answer.
			pos, stats, accepted = p, st, true
		}
	}
	if !accepted {
		_, gsp := obs.StartSpan(ctx, "localize.grid")
		p, st, err := LocalizeSearchCtx(ctx, aps, req.Bounds, req.Step, workers, scfg)
		gsp.End()
		if err != nil {
			return nil, err
		}
		e.met.recordSearch(st)
		pos, stats = p, st
	}
	fix.Position = pos
	fix.Search = stats
	tf, err := tr.Update(t, pos)
	if err != nil {
		return nil, err
	}
	res.Fix = fix
	res.Track = tf
	res.State = tr.State()
	e.met.recordTrack(res)
	if e.met != nil {
		e.met.localizeSecs.ObserveExemplar(time.Since(t0).Seconds(), obs.RequestIDFrom(ctx))
		e.met.requests.Inc()
	}
	return res, nil
}

// recordTrack notes one tracked epoch's window/fallback/re-acquisition
// outcome, so an operator can see the prediction shrinkage paying off (or
// thrashing into fallbacks). Fallbacks are also counted by cause, in
// core.track.fallback_gate_total and core.track.fallback_edge_total, which
// sum to core.track.fallback_total.
func (m *engineMetrics) recordTrack(res *TrackResult) {
	if m == nil {
		return
	}
	if res.Windowed {
		m.reg.Counter("core.track.windowed_total").Inc()
	}
	if res.Fallback {
		m.reg.Counter("core.track.fallback_total").Inc()
		if res.FallbackCause == "gate" {
			m.reg.Counter("core.track.fallback_gate_total").Inc()
		} else {
			m.reg.Counter("core.track.fallback_edge_total").Inc()
		}
	}
	if res.Track.Reacquired {
		m.reg.Counter("core.track.reacquired_total").Inc()
	}
}

// recordSearch notes what the Eq. 19 grid search evaluated, so an operator
// can see the branch-and-bound pruning working: core.search.coarse_cells
// counts bounded rectangles (inner nodes included) and refine_cells the
// refined cells, and together they should sit far below flat cells on
// production grids.
func (m *engineMetrics) recordSearch(stats SearchStats) {
	if m == nil {
		return
	}
	switch stats.Mode {
	case "coarse", "exact":
		m.reg.Counter("core.search.coarse_cells").Add(int64(stats.CoarseCells))
		m.reg.Counter("core.search.refine_cells").Add(int64(stats.RefineCells))
	case "window":
		m.reg.Counter("core.search.window_cells").Add(int64(stats.Evaluated()))
	default:
		m.reg.Counter("core.search.flat_cells").Add(int64(stats.FlatCells))
	}
}

// BatchItem is one slot of a mixed micro-batch: a localization request plus
// an optional per-slot context, an optional tracking op and optional
// destinations for its result. When Tracker is non-nil the slot runs the
// tracked pipeline (prediction-shrunk search with verified fallback, then a
// filter update at time T) instead of the stateless one. The tracker must
// not be shared between concurrent slots; the serving layer guarantees this
// by holding the session lock across the epoch.
type BatchItem struct {
	Req *LocalizeRequest
	// Ctx, when non-nil, replaces the batch context for this slot: its
	// deadline or cancellation aborts only this slot, which reports an error
	// wrapping context.Canceled / context.DeadlineExceeded while the rest of
	// the batch completes normally.
	Ctx context.Context
	// Tracker selects the tracked pipeline for this slot.
	Tracker *Tracker
	// T is the epoch timestamp handed to the tracker (seconds).
	T float64
	// Res, when non-nil, is where the slot writes its LocalizeResult (a
	// tracked slot's fix): it overwrites every field and reuses the
	// capacity of Res.Links, and the outcome's Res is Res. Otherwise the
	// slot returns a fresh result.
	Res *LocalizeResult
	// Track, when non-nil on a tracked slot, is where it writes its
	// TrackResult, overwriting every field; the outcome's Track is Track.
	// Stateless slots ignore it.
	//
	// The caller owns both destinations. It must not read or reuse them
	// until the slot's outcome is delivered, and after a failed slot their
	// contents are unspecified.
	Track *TrackResult
}

// BatchOutcome is the per-slot result of LocalizeBatchItems. Stateless
// slots fill Res; tracked slots fill both Track and Res (Res aliases
// Track.Fix, so either view works). A slot with destinations points them at
// its BatchItem's Res and Track.
type BatchOutcome struct {
	Res   *LocalizeResult
	Track *TrackResult
	Err   error
}

// LocalizeBatchItems processes a batch of independent stateless and tracked
// requests concurrently across the worker pool; outcome i belongs to item i,
// and a failing slot leaves its error there without affecting the others.
//
//   - ctx governs every slot without a Ctx of its own: cancelling it aborts
//     those that have not finished. When ctx carries an obs.Tracer the
//     batch emits a "localize.batch" root span with a "localize.req<i>"
//     child for each such slot, wrapping that request's full stage tree.
//     Tracing a parallel batch is race-safe: spans are recycled only once
//     every span under them has ended, and the tracer serializes its JSONL
//     writes.
//   - Each slot runs panic-isolated: a panic inside one request's pipeline is
//     recovered into that slot's error instead of crashing the process — a
//     batch server must not be taken down by one poisoned request.
//
// Results for non-aborted, non-panicked slots are bit-identical to serial
// Localize / LocalizeTracked calls, for any worker count.
func (e *Engine) LocalizeBatchItems(ctx context.Context, items []BatchItem) []BatchOutcome {
	outs := make([]BatchOutcome, len(items))
	e.LocalizeBatchEach(ctx, items, func(i int, out BatchOutcome) { outs[i] = out })
	return outs
}

// LocalizeBatchEach runs a batch exactly as LocalizeBatchItems does, but
// hands outcome i to done(i, outcome) on the worker that finished slot i, as
// soon as it finishes, so a caller can answer each slot without waiting for
// its batchmates. done is called once per slot, possibly concurrently for
// different slots; it must not retain items. The call returns after every
// done has returned.
//
// A slot whose item names destinations (BatchItem.Res and Track) writes its
// result there instead of allocating one, and its outcome points at them:
// a server that owns one result per request answers it without allocating,
// bit-identical to Localize and LocalizeTracked. Once done(i, ...) is
// called, the engine no longer touches slot i's destinations.
func (e *Engine) LocalizeBatchEach(ctx context.Context, items []BatchItem, done func(i int, out BatchOutcome)) {
	ctx, sp := obs.StartSpan(ctx, "localize.batch")
	defer sp.End()
	if min(e.workers, len(items)) <= 1 {
		// Inline, so a one-slot batch allocates no Map closure.
		for i := range items {
			done(i, e.localizeSlot(ctx, i, &items[i]))
		}
	} else {
		e.Map(len(items), func(i int) { done(i, e.localizeSlot(ctx, i, &items[i])) })
	}
	if e.met != nil {
		e.met.batches.Inc()
	}
}

// localizeSlot runs slot i of a batch, panic-isolated, under a
// "localize.req<i>" span.
func (e *Engine) localizeSlot(ctx context.Context, i int, item *BatchItem) (out BatchOutcome) {
	// Each request runs its pipeline serially: the batch fan-out is the
	// parallelism, and estimation is deterministic either way.
	if item.Ctx != nil {
		ctx = item.Ctx
	}
	ctx, sp := obs.StartSpanf(ctx, "localize.req%d", i)
	defer sp.End()
	defer func() {
		if r := recover(); r != nil {
			out = BatchOutcome{Err: fmt.Errorf("core: localize request %d panicked: %v", i, r)}
		}
	}()
	if item.Tracker != nil {
		tr, err := e.localizeTracked(ctx, item.Req, item.Tracker, item.T, 1, item.Track, item.Res)
		if err != nil {
			return BatchOutcome{Err: err}
		}
		return BatchOutcome{Res: tr.Fix, Track: tr}
	}
	out.Res, out.Err = e.localize(ctx, item.Req, 1, item.Res)
	return out
}
