package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"roarray/internal/core"
	"roarray/internal/obs"
	"roarray/internal/serve"
	"roarray/internal/testbed"
)

// serveOpen offers independent users' stateless requests on a seeded
// Poisson schedule at about half the two-core capacity, so the serving
// layers (wire, admission and batching, search, obs) are visible around a
// small solve and the queue stays short.
type serveOpen struct {
	d      time.Duration
	ps     *serve.Preset
	sched  []time.Duration // send offsets from the start of the run
	bodies [][]byte
	ids    []string
	truth  []core.Point
	room   core.Rect
}

// serveRate is the offered load in fixes per second: about 30% of what two
// cores sustain at the smoke preset's ~6.5 ms of CPU per served fix, so the
// micro-batcher still coalesces bursts. Nearer half, queueing amplifies
// every burst of CPU stolen by a shared host into latency, and the latency
// figures stop repeating from run to run.
const serveRate = 90.0

// serveSetupReps is how many server constructions set-up time is the median
// of; one construction takes about a millisecond.
const serveSetupReps = 41

func newServeOpen(seed int64, d time.Duration) (workload, error) {
	ps, err := serve.LookupPreset("smoke")
	if err != nil {
		return nil, err
	}
	n := int(math.Round(serveRate * d.Seconds()))
	if n < 1 {
		n = 1
	}
	reqs, truth, err := ps.Deployment.BatchRequests(n, ps.Packets, testbed.ScenarioConfig{}, seed*1_000_003)
	if err != nil {
		return nil, err
	}
	w := &serveOpen{d: d, ps: ps, truth: truth, room: ps.Deployment.Room}
	w.sched = poissonSchedule(rand.New(rand.NewSource(seed)), n, d)
	for i, req := range reqs {
		body, err := json.Marshal(serve.FromCore(req))
		if err != nil {
			return nil, err
		}
		w.bodies = append(w.bodies, body)
		w.ids = append(w.ids, fmt.Sprintf("so-%d-%d", seed, i))
	}
	return w, nil
}

// poissonSchedule draws n exponential inter-arrival gaps and scales them so
// the n sends span the run length exactly: Poisson-like burstiness with the
// same offered count on every seed.
func poissonSchedule(rng *rand.Rand, n int, d time.Duration) []time.Duration {
	cum := make([]float64, n+1)
	for i := 1; i <= n; i++ {
		cum[i] = cum[i-1] + rng.ExpFloat64()
	}
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(cum[i+1] / cum[n] * float64(d))
	}
	return out
}

// build is one serving process start: warm smoke estimator, engine, the
// production obs stack and the server's dispatcher.
func (w *serveOpen) build(traced bool) (*server, error) {
	st := newObsStack(w.ps.SLO, traced)
	cfg := w.ps.Estimator
	cfg.Metrics = st.reg
	cfg.Warm = true
	est, err := core.NewEstimator(cfg)
	if err != nil {
		return nil, err
	}
	if err := est.Warmup(); err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(est, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	sc := serverConfig(st, w.ps)
	sc.Engine = eng
	srv, err := serve.New(sc)
	if err != nil {
		return nil, err
	}
	return &server{srv: srv, stack: st}, nil
}

// samples is a mutex-guarded float list filled by concurrent callers.
type samples struct {
	mu sync.Mutex
	xs []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.xs = append(s.xs, x)
	s.mu.Unlock()
}

func (w *serveOpen) pass(traced bool) (*passResult, error) {
	s, setup, err := measureSetup(serveSetupReps, func() (*server, error) { return w.build(traced) }, (*server).stop)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	objective := w.ps.SLO.LatencyObjective
	log := newFixLog()
	var queue samples
	win, err := measure(w.d, func() error {
		start := time.Now()
		var wg sync.WaitGroup
		for i := range w.bodies {
			due := start.Add(w.sched[i])
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			log.late(time.Since(due))
			wg.Add(1)
			go func(i int, due time.Time) {
				defer wg.Done()
				w.fix(s, i, due, objective, log, &queue)
			}(i, due)
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &passResult{setup: setup, win: win, log: log, objective: objective, counters: servingCounters(s, queue.xs, win)}
	if s.stack.spans != nil {
		p.spans = s.stack.spans.events()
	}
	return p, nil
}

// fix sends request i, timed from its scheduled send, and checks the answer:
// every response echoes the request id, every 200 lies inside the room.
func (w *serveOpen) fix(s *server, i int, due time.Time, objective time.Duration, log *fixLog, queue *samples) {
	status, body, echo := call(s.srv, "/v1/localize", w.bodies[i], w.ids[i])
	lat := time.Since(due)
	if echo != w.ids[i] {
		log.problem(fmt.Sprintf("request %s: header echoed id %q", w.ids[i], echo))
	}
	if status != 200 {
		log.record(lat, false, 0, objective, status)
		return
	}
	var resp serve.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		log.problem(fmt.Sprintf("request %s: undecodable 200 body: %v", w.ids[i], err))
		log.record(lat, false, 0, objective, status)
		return
	}
	pos := core.Point{X: resp.X, Y: resp.Y}
	switch {
	case resp.RequestID != w.ids[i]:
		log.problem(fmt.Sprintf("request %s: body echoed id %q", w.ids[i], resp.RequestID))
	case !inRoom(pos, w.room):
		log.problem(fmt.Sprintf("request %s: position %+v outside the room", w.ids[i], pos))
	default:
		queue.add(resp.QueueMillis)
		log.record(lat, true, pos.Dist(w.truth[i]), objective, status)
		return
	}
	log.record(lat, false, 0, objective, status)
}

// serveReplayFixes is the decomposed replay's sample size.
const serveReplayFixes = 200

func (w *serveOpen) replay() (breakdown, error) {
	cfg := w.ps.Estimator
	cfg.Warm = true
	est, err := core.NewEstimator(cfg)
	if err != nil {
		return breakdown{}, err
	}
	if err := est.Warmup(); err != nil {
		return breakdown{}, err
	}
	spans := &spanLog{}
	tr := obs.NewTracer(nil)
	tr.Mirror(spans.add)
	base := obs.WithTracer(context.Background(), tr)
	n := min(serveReplayFixes, len(w.bodies))
	links := 0
	for i := 0; i < n; i++ {
		ctx, root := obs.StartSpan(base, spanFix)
		_, sp := obs.StartSpan(ctx, spanDecode)
		var wreq serve.Request
		err := json.Unmarshal(w.bodies[i], &wreq)
		var creq *core.LocalizeRequest
		if err == nil {
			creq, err = wreq.ToCore()
		}
		sp.End()
		if err != nil {
			return breakdown{}, fmt.Errorf("replay decode %d: %w", i, err)
		}
		aps := replayLinks(ctx, est, creq)
		pos, _, err := replaySearch(ctx, aps, creq, est.Config().Search)
		if err != nil {
			return breakdown{}, err
		}
		_, sp = obs.StartSpan(ctx, spanEncode)
		_, err = json.Marshal(responseFor(w.ids[i], pos, aps))
		sp.End()
		if err != nil {
			return breakdown{}, err
		}
		root.End()
		links += len(creq.Links)
	}
	return attribute(spans.events(), n, links), nil
}

// responseFor is the wire response the server would encode for a fix.
func responseFor(id string, pos core.Point, aps []core.APObservation) serve.Response {
	resp := serve.Response{RequestID: id, X: pos.X, Y: pos.Y, Links: make([]serve.LinkResult, len(aps)), BatchSize: 1}
	for i, ap := range aps {
		resp.Links[i] = serve.LinkResult{AoADeg: ap.AoADeg, Confidence: ap.Confidence}
	}
	return resp
}
