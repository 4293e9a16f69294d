package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"roarray/internal/core"
	"roarray/internal/obs"
	"roarray/internal/serve"
	"roarray/internal/venue"
)

// obsStack is the serving process's production observability: a metrics
// registry, the preset's SLO, the request event log (to a discard sink),
// the flight recorder fed by span mirroring, and the runtime collector —
// the stack cmd/roaserve runs with diagnostics enabled.
type obsStack struct {
	reg      *obs.Registry
	slo      *obs.SLO
	events   *obs.EventLog
	recorder *obs.FlightRecorder
	tracer   *obs.Tracer
	spans    *spanLog // non-nil on a traced pass
}

func newObsStack(slo obs.SLOConfig, traced bool) *obsStack {
	st := &obsStack{reg: obs.NewRegistry()}
	st.slo = obs.NewSLO(slo)
	st.slo.Bind(st.reg)
	st.events = obs.NewEventLog(io.Discard, 256)
	st.events.Bind(st.reg)
	obs.NewRuntimeCollector(st.reg, 100*time.Millisecond)
	st.recorder = obs.NewFlightRecorder(256, 1024)
	st.recorder.Bind(st.reg)
	st.tracer = obs.NewTracer(nil)
	if traced {
		st.spans = &spanLog{}
		rec, log := st.recorder, st.spans
		st.tracer.Mirror(func(ev obs.SpanEvent) {
			rec.RecordSpan(ev)
			log.add(ev)
		})
	} else {
		st.tracer.Mirror(st.recorder.RecordSpan)
	}
	return st
}

// server is one serving process under test.
type server struct {
	srv    *serve.Server
	stack  *obsStack
	venues *venue.Registry
}

// serverConfig is the production server configuration around an engine or a
// venue registry.
func serverConfig(st *obsStack, ps *serve.Preset) serve.Config {
	return serve.Config{
		Metrics:            st.reg,
		Tracer:             st.tracer,
		Events:             st.events,
		Recorder:           st.recorder,
		SLO:                st.slo,
		RetryAfterFull:     ps.RetryAfterFull,
		RetryAfterDraining: ps.RetryAfterDraining,
	}
}

// stop drains the server and closes the event log; every goroutine the
// server started has exited when it returns.
func (s *server) stop() {
	if s == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.srv.Drain(ctx)
	if s.venues != nil {
		s.venues.WaitIdle(30 * time.Second)
	}
	s.stack.events.Close()
}

// call hands one request to the server as an http.Handler — the full
// handler path (decode, admission, batching, encode) without sockets.
func call(h http.Handler, path string, body []byte, requestID string) (status int, respBody []byte, echoedID string) {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return -1, nil, ""
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", requestID)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), rec.Header().Get("X-Request-Id")
}

// servingCounters reads the serving-layer and runtime counters of a
// finished pass.
func servingCounters(s *server, queueMs []float64, win window) map[string]float64 {
	reg := s.stack.reg
	st := s.srv.Stats()
	c := solverCounters(reg)
	c["serve.queue_wait_ms_p50"] = percentile(queueMs, 50)
	c["serve.queue_wait_ms_p99"] = percentile(queueMs, 99)
	c["serve.batch_size_mean"] = ratio(float64(st.Batched), float64(st.Batches))
	c["serve.rejected"] = float64(st.RejectedQueueFull + st.RejectedDraining)
	c["serve.track_rejected"] = float64(reg.Counter("serve.track.rejected_out_of_order_total").Value() +
		reg.Counter("serve.track.rejected_capacity_total").Value())
	c["obs.events_dropped"] = float64(s.stack.events.Dropped())
	c["gc.cpu_fraction"] = win.gcCPU
	c["gc.pause_p99_ms"] = win.gcPauseP99 * 1e3
	return c
}

// solverCounters reads the estimator, solver and search counters the
// program keeps in its registry.
func solverCounters(reg *obs.Registry) map[string]float64 {
	cnt := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	iters := reg.Histogram("sparse.solve.iterations")
	solves := cnt("sparse.solve.total")
	seeded := cnt("sparse.solve.warm_total") + cnt("sparse.solve.warm_rejected_total")
	hits, builds := cnt("core.dict.cache_hits_total"), cnt("core.dict.builds_total")
	cells := cnt("core.search.coarse_cells") + cnt("core.search.refine_cells") +
		cnt("core.search.window_cells") + cnt("core.search.flat_cells")
	return map[string]float64{
		"sparse.iters_per_solve":    ratio(iters.Sum(), float64(iters.Count())),
		"sparse.capped_ratio":       ratio(cnt("sparse.solve.nonconverged_total"), solves),
		"sparse.warm_accept_ratio":  ratio(cnt("sparse.solve.warm_total"), seeded),
		"core.dict_cache_hit_ratio": ratio(hits, hits+builds),
		"search.cells_per_fix":      ratio(cells, cnt("engine.requests_total")),
	}
}

// finite reports whether both coordinates of p are finite.
func finite(p core.Point) bool {
	return !math.IsNaN(p.X) && !math.IsNaN(p.Y) && !math.IsInf(p.X, 0) && !math.IsInf(p.Y, 0)
}

// inRoom reports whether p is a finite point inside r.
func inRoom(p core.Point, r core.Rect) bool { return finite(p) && r.Contains(p) }
