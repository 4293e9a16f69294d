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
	"roarray/internal/venue"
)

// trackVenues runs closed-loop walkers over a venue manifest: each walker
// is one sticky /v1/track session in a Zipf-chosen venue, so the tracker's
// prediction window, the session table and the venue cache (evictions and
// cold loads, with a budget of about half the venues) all do real work.
type trackVenues struct {
	d       time.Duration
	ps      *serve.Preset
	man     *venue.Manifest
	budget  int64
	preload []string
	slots   [][]*walk // slots[j] is slot j's walkers, run one after another
}

// walk is one pre-built walker: its room, session id, epoch bodies and the
// ground truth they were synthesized from.
type walk struct {
	room    core.Rect
	session string
	bodies  [][]byte
	ids     []string
	truth   []core.Point
	times   []float64
}

const (
	// trackSlots walkers are active at once; each sends an epoch every
	// trackInterval of wall time (the trajectory clock stays at 1 s per
	// epoch). A walker's 12 epochs span 11 intervals, so 13 slots offer
	// about 94 fixes/s, some 30% of two cores at ~6.5 ms of CPU per fix.
	trackSlots    = 13
	trackInterval = 150 * time.Millisecond
	trackEpochs   = 12
	// trackZipfS skews walker placement towards the first venues.
	trackZipfS = 1.2
	// trackResident venues fit the cache budget: half the manifest.
	trackResident = 3
	// trackSetupReps is how many server starts (registry, venue preload,
	// dispatcher) set-up time is the median of.
	trackSetupReps = 41
	// trackReplayWalkers is the decomposed replay's sample.
	trackReplayWalkers = 8
)

// trackManifest is the benchmark's venue catalog. The first (hottest) venue
// is the 18 m x 12 m testbed room, whose 0.1 m grid has 21901 cells for the
// prediction window to skip. Radio and grid sizes match the smoke preset.
func trackManifest() *venue.Manifest {
	rooms := []struct {
		id   string
		w, h float64
	}{
		{"hall-a", 18, 12}, {"hall-b", 18, 12}, {"lab-c", 15, 10},
		{"atrium-d", 24, 14}, {"office-e", 12, 9}, {"wing-f", 20, 12},
	}
	m := &venue.Manifest{Schema: venue.ManifestSchema}
	for _, r := range rooms {
		m.Venues = append(m.Venues, venue.Spec{
			ID:   r.id,
			Room: venue.RoomSpec{MaxX: r.w, MaxY: r.h},
			APs: []venue.APSpec{
				{X: 0.1, Y: r.h / 2, AxisDeg: 90},
				{X: r.w - 0.1, Y: r.h / 2, AxisDeg: 90},
				{X: r.w / 4, Y: 0.1, AxisDeg: 0},
			},
			Subcarriers:         8,
			SubcarrierSpacingHz: 4e6,
			ThetaPoints:         19,
			TauPoints:           8,
			MaxIters:            60,
		})
	}
	return m
}

func newTrackVenues(seed int64, d time.Duration) (workload, error) {
	ps, err := serve.LookupPreset("smoke")
	if err != nil {
		return nil, err
	}
	man := trackManifest()
	for i := range man.Venues {
		if err := man.Venues[i].Validate(); err != nil {
			return nil, err
		}
	}
	cfg := man.Venues[0].EstimatorConfig()
	cfg.Warm = true
	est, err := core.NewEstimator(cfg)
	if err != nil {
		return nil, err
	}
	w := &trackVenues{d: d, ps: ps, man: man, budget: trackResident * est.FootprintBytes()}
	for _, s := range man.Venues[:trackResident] {
		w.preload = append(w.preload, s.ID)
	}
	// A walker spans trackEpochs-1 intervals plus its last reply; build
	// enough that no slot runs dry before the run ends.
	perSlot := int(math.Ceil(d.Seconds()/((trackEpochs-1)*trackInterval.Seconds()))) + 2
	for j := 0; j < trackSlots; j++ {
		rng := rand.New(rand.NewSource(seed*7919 + int64(j)))
		zipf := rand.NewZipf(rng, trackZipfS, 1, uint64(len(man.Venues)-1))
		var walks []*walk
		for k := 0; k < perSlot; k++ {
			spec := man.Venues[zipf.Uint64()]
			wk, err := buildWalk(spec, seed, j, k)
			if err != nil {
				return nil, err
			}
			walks = append(walks, wk)
		}
		w.slots = append(w.slots, walks)
	}
	return w, nil
}

// buildWalk synthesizes walker k of slot j: a seeded trajectory in the
// venue, one CSI burst per epoch, and the encoded /v1/track bodies with the
// walker's session id and strictly increasing seqs.
func buildWalk(spec venue.Spec, seed int64, j, k int) (*walk, error) {
	dep := spec.Deployment()
	g := int64(j*1000 + k)
	traj, err := dep.GenerateTrajectory(testbed.TrajectoryPlan{Epochs: trackEpochs}, seed*7_000_001+g)
	if err != nil {
		return nil, err
	}
	reqs, truth, err := dep.TrajectoryRequests(traj, 2, testbed.ScenarioConfig{}, seed*1_000_003+g*16)
	if err != nil {
		return nil, err
	}
	wk := &walk{room: dep.Room, session: fmt.Sprintf("tv-%d-%d-%d", seed, j, k), truth: truth}
	for e, req := range reqs {
		tr := serve.TrackRequest{Request: *serve.FromCore(req), SessionID: wk.session, Seq: int64(e + 1), TSeconds: traj.Points[e].T}
		tr.VenueID = spec.ID
		body, err := json.Marshal(tr)
		if err != nil {
			return nil, err
		}
		wk.bodies = append(wk.bodies, body)
		wk.ids = append(wk.ids, fmt.Sprintf("%s-%d", wk.session, e+1))
		wk.times = append(wk.times, traj.Points[e].T)
	}
	return wk, nil
}

func (w *trackVenues) registry(reg *obs.Registry, workers int) *venue.Registry {
	return venue.NewRegistry(w.man, venue.RegistryConfig{
		BudgetBytes: w.budget,
		Build:       venue.BuildConfig{Workers: workers, Warm: true, Metrics: reg},
		Metrics:     reg,
	})
}

// build is one serving process start: venue registry, preload of the
// hottest venues that fit the budget, and the server's dispatcher.
func (w *trackVenues) build(traced bool) (*server, error) {
	st := newObsStack(w.ps.SLO, traced)
	venues := w.registry(st.reg, runtime.GOMAXPROCS(0))
	for _, id := range w.preload {
		if _, err := venues.Get(context.Background(), id); err != nil {
			return nil, err
		}
	}
	sc := serverConfig(st, w.ps)
	sc.Venues = venues
	srv, err := serve.New(sc)
	if err != nil {
		return nil, err
	}
	return &server{srv: srv, stack: st, venues: venues}, nil
}

// trackTally counts the tracking outcomes the responses report.
type trackTally struct {
	mu                             sync.Mutex
	windowed, fallback, reacquired int
}

func (w *trackVenues) pass(traced bool) (*passResult, error) {
	s, setup, err := measureSetup(trackSetupReps, func() (*server, error) { return w.build(traced) }, (*server).stop)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	before := s.venues.Stats()
	loads0 := s.stack.reg.Counter("venue.cache.loads_total").Value()
	objective := w.ps.SLO.LatencyObjective
	log := newFixLog()
	var queue samples
	var tally trackTally
	win, err := measure(w.d, func() error {
		deadline := time.Now().Add(w.d)
		var wg sync.WaitGroup
		for _, walks := range w.slots {
			wg.Add(1)
			go func(walks []*walk) {
				defer wg.Done()
				for _, wk := range walks {
					if !w.walk(s, wk, deadline, objective, log, &queue, &tally) {
						return
					}
				}
				log.problem("a walker slot used all its pre-built walkers before the run ended")
			}(walks)
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		return nil, err
	}
	after := s.venues.Stats()
	c := servingCounters(s, queue.xs, win)
	attempts := float64(tally.windowed + tally.fallback)
	c["track.windowed_ratio"] = ratio(float64(tally.windowed), float64(len(log.okLatMs)))
	c["track.fallback_ratio"] = ratio(float64(tally.fallback), attempts)
	c["track.reacquired"] = float64(tally.reacquired)
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	c["venue.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	c["venue.loads"] = float64(s.stack.reg.Counter("venue.cache.loads_total").Value() - loads0)
	c["venue.evictions"] = float64(after.Evictions - before.Evictions)
	p := &passResult{setup: setup, win: win, log: log, objective: objective, counters: c}
	if s.stack.spans != nil {
		p.spans = s.stack.spans.events()
	}
	return p, nil
}

// walk runs one walker's epochs: each is sent when due (epoch e at e
// intervals after the walker's start) but never before the previous reply.
// It reports false, having stopped early, when an epoch falls due at or after
// the run's deadline.
func (w *trackVenues) walk(s *server, wk *walk, deadline time.Time, objective time.Duration, log *fixLog, queue *samples, tally *trackTally) bool {
	start := time.Now()
	for e := range wk.bodies {
		due := start.Add(time.Duration(e) * trackInterval)
		if !due.Before(deadline) {
			return false
		}
		// The generator's own lag is measured from when the epoch could go
		// out: its due time, or the previous reply if that came later.
		ready := time.Now()
		if d := due.Sub(ready); d > 0 {
			time.Sleep(d)
			ready = due
		}
		log.late(time.Since(ready))
		t0 := time.Now()
		status, body, echo := call(s.srv, "/v1/track", wk.bodies[e], wk.ids[e])
		lat := time.Since(t0)
		if echo != wk.ids[e] {
			log.problem(fmt.Sprintf("epoch %s: header echoed id %q", wk.ids[e], echo))
		}
		if status == 400 || status >= 500 {
			// Every epoch is well formed and in order, so a 400 is an
			// out-of-order or session rejection, and a 5xx a server fault.
			log.problem(fmt.Sprintf("epoch %s: status %d: %s", wk.ids[e], status, body))
		}
		if status != 200 {
			log.record(lat, false, 0, objective, status)
			continue
		}
		var resp serve.TrackResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			log.problem(fmt.Sprintf("epoch %s: undecodable 200 body: %v", wk.ids[e], err))
			log.record(lat, false, 0, objective, status)
			continue
		}
		// The raw grid fix lies inside the room; the smoothed position may
		// overshoot a wall (the filter extrapolates) but must be finite.
		fix := core.Point{X: resp.X, Y: resp.Y}
		smoothed := core.Point{X: resp.SmoothedX, Y: resp.SmoothedY}
		switch {
		case resp.RequestID != wk.ids[e]:
			log.problem(fmt.Sprintf("epoch %s: body echoed id %q", wk.ids[e], resp.RequestID))
		case resp.SessionID != wk.session || resp.Seq != int64(e+1):
			log.problem(fmt.Sprintf("epoch %s: echoed session %q seq %d", wk.ids[e], resp.SessionID, resp.Seq))
		case !inRoom(fix, wk.room) || !finite(smoothed):
			log.problem(fmt.Sprintf("epoch %s: fix %+v outside the room or smoothed %+v not finite", wk.ids[e], fix, smoothed))
		default:
			queue.add(resp.QueueMillis)
			tally.mu.Lock()
			if resp.Windowed {
				tally.windowed++
			}
			if resp.Fallback {
				tally.fallback++
			}
			if resp.Reacquired {
				tally.reacquired++
			}
			tally.mu.Unlock()
			log.record(lat, true, smoothed.Dist(wk.truth[e]), objective, status)
			continue
		}
		log.record(lat, false, 0, objective, status)
	}
	return true
}

// replay runs the first walkers (in start order) serially through the
// layers' public functions: decode, Registry.Get, the per-link pipeline,
// PredictWindow, the windowed search with its verification and full-grid
// fallback, Update, and encode.
func (w *trackVenues) replay() (breakdown, error) {
	venues := w.registry(nil, 1)
	defer venues.WaitIdle(30 * time.Second)
	spans := &spanLog{}
	tr := obs.NewTracer(nil)
	tr.Mirror(spans.add)
	base := obs.WithTracer(context.Background(), tr)
	var order []*walk
	for k := 0; len(order) < trackReplayWalkers; k++ {
		for j := 0; j < len(w.slots) && len(order) < trackReplayWalkers; j++ {
			if k < len(w.slots[j]) {
				order = append(order, w.slots[j][k])
			}
		}
	}
	fixes, links := 0, 0
	var loads venueLoads
	for _, wk := range order {
		tracker, err := core.NewTracker(0, 0, 0)
		if err != nil {
			return breakdown{}, err
		}
		for e := range wk.bodies {
			n, err := replayEpoch(base, venues, tracker, wk, e, &loads)
			if err != nil {
				return breakdown{}, fmt.Errorf("replay %s: %w", wk.ids[e], err)
			}
			fixes++
			links += n
		}
	}
	b := attribute(spans.events(), fixes, links)
	b.venueBuildMsP50 = percentile(loads.buildMs, 50)
	b.venueLoadWaitMsP99 = percentile(loads.waitMs, 99)
	return b, nil
}

// venueLoads records the replay's cold venue loads: the build time of each
// and how long its Registry.Get waited.
type venueLoads struct{ buildMs, waitMs []float64 }

// replayEpoch is one tracked fix, decomposed; it returns the link count.
func replayEpoch(base context.Context, venues *venue.Registry, tracker *core.Tracker, wk *walk, e int, loads *venueLoads) (int, error) {
	ctx, root := obs.StartSpan(base, spanFix)
	defer root.End()

	_, sp := obs.StartSpan(ctx, spanDecode)
	var wreq serve.TrackRequest
	err := json.Unmarshal(wk.bodies[e], &wreq)
	var creq *core.LocalizeRequest
	if err == nil {
		creq, err = wreq.ToCore()
	}
	sp.End()
	if err != nil {
		return 0, err
	}

	misses := venues.Stats().Misses
	vctx, sp := obs.StartSpan(ctx, spanVenueGet)
	t0 := time.Now()
	v, err := venues.Get(vctx, wreq.VenueID)
	wait := time.Since(t0)
	sp.End()
	if err != nil {
		return 0, err
	}
	if venues.Stats().Misses > misses {
		loads.buildMs = append(loads.buildMs, v.BuildDuration.Seconds()*1e3)
		loads.waitMs = append(loads.waitMs, wait.Seconds()*1e3)
	}
	est := v.Engine.Estimator()
	aps := replayLinks(ctx, est, creq)

	t := wk.times[e]
	cfg := est.Config().Search
	_, sp = obs.StartSpan(ctx, spanPredict)
	win, ok := tracker.PredictWindow(t, creq.Step)
	sp.End()
	var pos core.Point
	accepted := false
	if ok {
		wcfg := cfg
		wcfg.Window = &win
		p, st, err := replaySearch(ctx, aps, creq, wcfg)
		if err != nil {
			return 0, err
		}
		if st.Mode == "window" {
			_, sp := obs.StartSpan(ctx, spanVerify)
			nis, ok := tracker.NISAt(t, p)
			sp.End()
			accepted = ok && nis <= tracker.GateNIS && !st.WindowEdge
		} else {
			accepted = true
		}
		pos = p
	}
	if !accepted {
		p, _, err := replaySearch(ctx, aps, creq, cfg)
		if err != nil {
			return 0, err
		}
		pos = p
	}
	_, sp = obs.StartSpan(ctx, spanUpdate)
	fix, err := tracker.Update(t, pos)
	sp.End()
	if err != nil {
		return 0, err
	}

	_, sp = obs.StartSpan(ctx, spanEncode)
	_, err = json.Marshal(serve.TrackResponse{
		Response:  responseFor(wk.ids[e], pos, aps),
		SessionID: wk.session,
		Seq:       int64(e + 1),
		SmoothedX: fix.Smoothed.X,
		SmoothedY: fix.Smoothed.Y,
	})
	sp.End()
	return len(creq.Links), err
}
