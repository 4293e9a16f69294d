package main

import (
	"context"

	"roarray/internal/core"
	"roarray/internal/obs"
)

// replayLinks runs the per-link half of one fix through the layers' public
// entry points, serially and under the benchmark's spans, the way
// core.Engine does it: admission sanitization, the fused joint spectrum
// (the program's estimate.* spans nest inside), then the smallest-ToA
// direct path. A link that fails degrades to broadside, as in the engine.
func replayLinks(ctx context.Context, est *core.Estimator, req *core.LocalizeRequest) []core.APObservation {
	cfg := est.Config()
	aps := make([]core.APObservation, len(req.Links))
	for i, in := range req.Links {
		aoa, conf := 90.0, 0.0
		_, sp := obs.StartSpan(ctx, spanSanitize)
		packets, rep, err := core.SanitizeBurst(in.Packets, cfg.Array.NumAntennas, cfg.OFDM.NumSubcarriers)
		sp.End()
		if err == nil {
			if !rep.Clean() {
				conf = rep.Confidence()
			}
			ectx, sp := obs.StartSpan(ctx, spanEstimate)
			spec, _, err := est.EstimateJointFusedInfoCtx(ectx, packets)
			sp.End()
			if err == nil {
				_, sp := obs.StartSpan(ctx, spanPeak)
				peak, err := est.DirectPath(spec)
				sp.End()
				if err == nil {
					aoa = peak.ThetaDeg
				}
			}
		}
		aps[i] = core.APObservation{Pos: in.Pos, AxisDeg: in.AxisDeg, AoADeg: aoa, RSSIdBm: in.RSSIdBm, Confidence: conf}
	}
	return aps
}

// replaySearch runs the Eq. 19 grid search on one worker under a span.
func replaySearch(ctx context.Context, aps []core.APObservation, req *core.LocalizeRequest, cfg core.SearchConfig) (core.Point, core.SearchStats, error) {
	sctx, sp := obs.StartSpan(ctx, spanSearch)
	defer sp.End()
	return core.LocalizeSearchCtx(sctx, aps, req.Bounds, req.Step, 1, cfg)
}
