// Package serve is the online localization service: an HTTP/JSON front end
// over core.Engine that coalesces concurrent requests into micro-batches the
// way an inference server does.
//
// The request path is: admission control (a bounded queue; a full queue
// answers 429 immediately instead of stacking goroutines), then continuous
// micro-batching (a dispatcher takes the first queued request plus whatever
// else is already queued, up to the batch size cap, and flushes them at
// once through Engine.LocalizeBatchEach, so dictionary and factorization
// reuse amortizes across the batch; requests that arrive during a flush
// form the next batch), then per-request response fan-back. Each
// request carries its own context — the HTTP request context bounded by the
// per-request deadline and wired to the server's hard-stop — so a deadline
// or disconnect aborts exactly one slot of a flush.
//
// Shutdown is two-phase: Drain stops admission (new requests get 503,
// /readyz flips), lets the dispatcher flush everything already accepted, and
// only cancels in-flight work if its context expires first. Every accepted
// request always receives exactly one response.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"roarray/internal/core"
	"roarray/internal/obs"
	"roarray/internal/venue"
)

// Config parameterizes a Server.
type Config struct {
	// Engine executes the localization work for requests that carry no
	// venueId. Required unless Venues is set; with both set, Engine is the
	// default for venue-less requests.
	Engine *core.Engine
	// Venues, when non-nil, enables multi-venue serving: requests carrying a
	// venueId resolve their engine through this registry (loading and
	// caching the venue's dictionaries on first use). Unknown IDs answer
	// 404; with no Engine configured, venue-less requests answer 400.
	Venues *venue.Registry
	// Shards splits admission and dispatch into N independent lanes, venues
	// assigned by consistent hashing on venue id — one hot venue saturates
	// its own lane's queue and dispatcher without wedging the others. <= 0
	// selects 1 (the single-lane behavior of earlier versions, bit-identical
	// for venue-less traffic).
	Shards int
	// BatchSize caps how many requests one flush may coalesce; <= 0 selects
	// 8. 1 disables batching.
	BatchSize int
	// QueueDepth bounds each dispatch lane's admission queue; <= 0 selects
	// 64. The depth is per lane, so total admission capacity (and the
	// worst-case queued memory) is Shards * QueueDepth — size it per lane
	// when raising Shards. A full lane rejects with 429 + Retry-After
	// instead of queueing unboundedly, however idle the other lanes are.
	QueueDepth int
	// RequestTimeout caps the server-side budget (queue + solve) of every
	// request; 0 means no cap. A request's own deadlineMillis tightens but
	// never loosens this.
	RequestTimeout time.Duration
	// Metrics receives serving telemetry (queue depth, batch sizes, latency
	// histograms, admission counters). Stats reads the same counters, so a
	// registry serves one Server; nil keeps them in a private registry.
	Metrics *obs.Registry
	// Tracer, when non-nil, threads span tracing through every request and
	// flush.
	Tracer *obs.Tracer
	// Disturb, when non-nil, is called with each request's context after
	// validation and before admission — the hook the fault harness
	// (internal/fault.Injector.Disturb) uses to inject slow or stuck
	// requests. It runs on the request's handler goroutine, so a wedged
	// Disturb stalls only its own request (until the context dies), never
	// the dispatcher.
	Disturb func(ctx context.Context)
	// Events, when non-nil, receives one wide-event record per terminal
	// request outcome (accepted or rejected). The log is bounded and
	// droppable, so a wedged sink never blocks the request path.
	Events *obs.EventLog
	// Recorder, when non-nil, keeps the flight-recorder ring of recent
	// request events fed: every terminal outcome is copied into the ring
	// (zero allocations per event) so an anomaly-triggered diagnostic bundle
	// can dump the requests leading into the incident. Span mirroring is
	// wired on the Tracer (obs.Tracer.Mirror), not here.
	Recorder *obs.FlightRecorder
	// RetryAfterFull and RetryAfterDraining seed the Retry-After advice on
	// 429 (queue full) and 503 (draining) rejections; <= 0 selects 1 s and
	// 5 s. The advertised value scales with the current queue fill —
	// ceil((1 + fill) * seed), never below 1 s — so a saturated server asks
	// clients to back off up to twice as long as an idle one.
	RetryAfterFull     time.Duration
	RetryAfterDraining time.Duration
	// SLO, when non-nil, tracks rolling-window availability and latency
	// attainment over the served traffic. Client errors (400/405) are not
	// observed — they spend the client's budget, not the server's. Bind it
	// to Metrics to export the windows as burn-rate gauges.
	SLO *obs.SLO
	// TrackSessionTTL bounds how long an idle /v1/track session survives
	// between epochs before lazy eviction reclaims it; <= 0 selects 5 m.
	TrackSessionTTL time.Duration
	// TrackMaxSessions caps live tracking sessions; <= 0 selects 4096. At
	// capacity (after a forced sweep of expired sessions) new sessions
	// answer 429.
	TrackMaxSessions int
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.RetryAfterFull <= 0 {
		c.RetryAfterFull = time.Second
	}
	if c.RetryAfterDraining <= 0 {
		c.RetryAfterDraining = 5 * time.Second
	}
	return c
}

// Stats is a point-in-time snapshot of the server's lifetime counters.
type Stats struct {
	// Accepted counts requests admitted to the queue.
	Accepted int64
	// Finished is Completed + Failed: accepted requests that received a
	// response. Accepted - Finished is the in-flight depth.
	Finished int64
	// Completed counts 200 responses; Failed counts accepted requests that
	// ended in an error status: 500/503/504, or the 400 a /v1/track epoch
	// gets when the tracking filter rejects it after its batch ran.
	Completed int64
	Failed    int64
	// RejectedQueueFull counts 429s; RejectedDraining counts 503s issued
	// after drain began.
	RejectedQueueFull int64
	RejectedDraining  int64
	// Batches counts flushes; Batched counts requests carried by them, so
	// Batched/Batches is the mean coalescing factor.
	Batches int64
	Batched int64
	// Panics counts recovered handler panics.
	Panics int64
	// TrackSessions is the current live /v1/track session count;
	// TrackEpochs counts accepted tracking epochs over the lifetime.
	TrackSessions int64
	TrackEpochs   int64
}

// DrainReport summarizes a graceful drain.
type DrainReport struct {
	// Pending is how many accepted requests were still unanswered when the
	// drain began; Drained of them completed with 200 and Failed with an
	// error status (nonzero only if the drain context expired and in-flight
	// work was cancelled, or requests were already failing).
	Pending int64
	Drained int64
	Failed  int64
	// RejectedDraining counts requests turned away with 503 during (and
	// after) the drain.
	RejectedDraining int64
	// Elapsed is the wall time the drain took.
	Elapsed time.Duration
	// Forced reports whether the drain context expired and in-flight work
	// was hard-cancelled.
	Forced bool
}

// metrics holds the serving counters Stats reads and /metrics exports; New
// always builds it, on Config.Metrics or on a private registry.
type metrics struct {
	reg          *obs.Registry
	queueDepth   *obs.Gauge
	batchSize    *obs.Histogram
	queueWait    *obs.Histogram
	e2e          *obs.Histogram
	accepted     *obs.Counter
	rejectedFull *obs.Counter
	rejectedDrn  *obs.Counter
	completed    *obs.Counter
	failed       *obs.Counter
	batches      *obs.Counter
	panics       *obs.Counter

	// serve.track.*: the RED row of the /v1/track session surface.
	trackEpochs    *obs.Counter
	trackWindowed  *obs.Counter
	trackFallback  *obs.Counter
	trackReacq     *obs.Counter
	trackOutOfOrd  *obs.Counter
	trackCapacity  *obs.Counter
	trackStarted   *obs.Counter
	trackEvicted   *obs.Counter
	trackSessions  *obs.Gauge
	trackE2E       *obs.Histogram
	trackWindowEff *obs.Histogram
}

func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &metrics{
		reg:          reg,
		queueDepth:   reg.Gauge("serve.queue_depth"),
		batchSize:    reg.Histogram("serve.batch_size", obs.LinearBuckets(1, 1, 16)...),
		queueWait:    reg.Histogram("serve.queue_wait.seconds", obs.ExpBuckets(0.0005, 2, 14)...),
		e2e:          reg.Histogram("serve.e2e.seconds", obs.ExpBuckets(0.001, 2, 16)...),
		accepted:     reg.Counter("serve.accepted_total"),
		rejectedFull: reg.Counter("serve.rejected_queue_full_total"),
		rejectedDrn:  reg.Counter("serve.rejected_draining_total"),
		completed:    reg.Counter("serve.completed_total"),
		failed:       reg.Counter("serve.failed_total"),
		batches:      reg.Counter("serve.batches_total"),
		panics:       reg.Counter("serve.panics_total"),

		trackEpochs:    reg.Counter("serve.track.epochs_total"),
		trackWindowed:  reg.Counter("serve.track.windowed_total"),
		trackFallback:  reg.Counter("serve.track.fallback_total"),
		trackReacq:     reg.Counter("serve.track.reacquired_total"),
		trackOutOfOrd:  reg.Counter("serve.track.rejected_out_of_order_total"),
		trackCapacity:  reg.Counter("serve.track.rejected_capacity_total"),
		trackStarted:   reg.Counter("serve.track.sessions_started_total"),
		trackEvicted:   reg.Counter("serve.track.sessions_evicted_total"),
		trackSessions:  reg.Gauge("serve.track.sessions"),
		trackE2E:       reg.Histogram("serve.track.e2e.seconds", obs.ExpBuckets(0.001, 2, 16)...),
		trackWindowEff: reg.Histogram("serve.track.cells_fraction", obs.LinearBuckets(0.05, 0.05, 20)...),
	}
}

// Server is the online localization service. It implements http.Handler:
//
//	POST /v1/localize — localize one request (micro-batched server-side)
//	POST /v1/track    — localize one epoch of a sticky tracking session
//	GET  /healthz     — liveness (200 while the process runs)
//	GET  /readyz      — readiness (503 once draining)
//
// Construct with New, serve with net/http, stop with Drain.
type Server struct {
	cfg                  Config
	antennas, subcarrier int

	// queues holds one admission queue per dispatcher lane; ring assigns
	// venues to lanes (nil when Shards == 1, where lane 0 takes everything).
	queues []chan *pending
	ring   *Ring
	met    *metrics
	mux    *http.ServeMux

	// sessions is the sticky /v1/track session store.
	sessions *trackSessions

	// venueMu guards the lazily-created per-venue metric handles.
	venueMu  sync.Mutex
	venueMet map[string]*venueMetrics

	// admitMu guards the draining flag against the queue send: an admission
	// holds the read side across its send so Drain's close(queue) (write
	// side) cannot race a handler mid-send.
	admitMu  sync.RWMutex
	draining bool

	dispatcherDone chan struct{}
	// hardCtx is the flushes' context, cancelled by a forced drain.
	// hardStopped is set just before it is, for request contexts to poll.
	hardCtx     context.Context
	hardCancel  context.CancelFunc
	hardStopped atomic.Bool

	// arenaReleased, when set before the first request, sees every arena a
	// finished call releases (a test's probe; see arena.release).
	arenaReleased func(*arena)
}

// New validates cfg, starts the dispatcher lanes, and returns the server.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil && cfg.Venues == nil {
		return nil, fmt.Errorf("serve: config needs an engine or a venue registry")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:            cfg,
		met:            newMetrics(cfg.Metrics),
		venueMet:       make(map[string]*venueMetrics),
		dispatcherDone: make(chan struct{}),
	}
	if cfg.Engine != nil {
		est := cfg.Engine.Estimator().Config()
		s.antennas = est.Array.NumAntennas
		s.subcarrier = est.OFDM.NumSubcarriers
	}
	s.queues = make([]chan *pending, cfg.Shards)
	for i := range s.queues {
		s.queues[i] = make(chan *pending, cfg.QueueDepth)
	}
	if cfg.Shards > 1 {
		lanes := make([]string, cfg.Shards)
		for i := range lanes {
			lanes[i] = fmt.Sprintf("shard-%d", i)
		}
		ring, err := NewRing(lanes, 0)
		if err != nil {
			return nil, err
		}
		s.ring = ring
	}
	base := context.Background()
	if cfg.Tracer != nil {
		base = obs.WithTracer(base, cfg.Tracer)
	}
	s.hardCtx, s.hardCancel = context.WithCancel(base)
	sessions := newTrackSessions(cfg.TrackSessionTTL, cfg.TrackMaxSessions)
	sessions.evicted = s.met.trackEvicted
	s.sessions = sessions
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/localize", s.handleLocalize)
	s.mux.HandleFunc("/v1/track", s.handleTrack)
	s.mux.HandleFunc("/healthz", handleStaticOK("ok"))
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	var lanes sync.WaitGroup
	for i := range s.queues {
		lanes.Add(1)
		q := s.queues[i]
		go func() {
			defer lanes.Done()
			s.dispatch(&lane{queue: q})
		}()
	}
	go func() {
		lanes.Wait()
		close(s.dispatcherDone)
	}()
	return s, nil
}

// ServeHTTP routes requests through the panic-isolating middleware: a
// panicking handler answers 500 and increments serve.panics_total instead of
// unwinding the connection goroutine.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			s.met.panics.Inc()
			// Best effort: if the handler already wrote headers this is a
			// no-op on a broken response, which is all that can be done.
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// Stats returns a snapshot of the lifetime counters, read from the metric
// handles the request ledger (record) and the dispatcher keep.
func (s *Server) Stats() Stats {
	m := s.met
	st := Stats{
		Accepted:          m.accepted.Value(),
		Completed:         m.completed.Value(),
		Failed:            m.failed.Value(),
		RejectedQueueFull: m.rejectedFull.Value(),
		RejectedDraining:  m.rejectedDrn.Value(),
		Batches:           m.batchSize.Count(),
		Batched:           int64(m.batchSize.Sum()),
		Panics:            m.panics.Value(),
		TrackSessions:     s.sessions.Sessions(),
		TrackEpochs:       m.trackEpochs.Value(),
	}
	st.Finished = st.Completed + st.Failed
	return st
}

// Drain gracefully stops the server: admission closes (new requests answer
// 503 with Retry-After, /readyz flips to 503), every request already
// accepted is flushed and answered, and the dispatcher exits. If ctx expires
// first, in-flight work is hard-cancelled — engine calls abort at their next
// stage boundary and the affected requests answer 503/504 — so Drain still
// returns promptly with Forced set. Safe to call more than once; later calls
// just wait for the dispatcher and report no pending work.
func (s *Server) Drain(ctx context.Context) DrainReport {
	t0 := time.Now()
	s.admitMu.Lock()
	already := s.draining
	s.draining = true
	s.admitMu.Unlock()

	rep := DrainReport{}
	pre := s.Stats()
	if !already {
		rep.Pending = pre.Accepted - pre.Finished
		for _, q := range s.queues {
			close(q)
		}
	}

	select {
	case <-s.dispatcherDone:
	case <-ctx.Done():
		rep.Forced = true
		s.hardStop()
		<-s.dispatcherDone
	}
	// Once the dispatcher has exited, every accepted request's outcome sits
	// in its buffered done channel; give the handler goroutines a beat to
	// record them so the report balances (bounded in case a handler was
	// killed mid-flight by its client). A request counts as finished in the
	// same step that counts it completed or failed, so the two cannot
	// disagree.
	post := s.Stats()
	for waited := time.Duration(0); post.Finished < post.Accepted && waited < time.Second; waited += 200 * time.Microsecond {
		time.Sleep(200 * time.Microsecond)
		post = s.Stats()
	}
	rep.Drained = post.Completed - pre.Completed
	rep.Failed = post.Failed - pre.Failed
	rep.RejectedDraining = post.RejectedDraining
	rep.Elapsed = time.Since(t0)
	return rep
}

// hardStop cancels the flushes and every request context armed with the
// hard stop.
func (s *Server) hardStop() {
	s.hardStopped.Store(true)
	s.hardCancel()
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.admitMu.RLock()
	draining := s.draining
	s.admitMu.RUnlock()
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// maxBodyBytes bounds a request body on the servers and the proxy. It is
// sized from the largest preset: a "paper" request (15-packet bursts from 6
// APs of 3 x 30 CSI) is about 350 KB on the wire, so 4 MiB leaves more than
// 10x headroom (TestPaperBodyUnderLimit). The bound also caps what a body
// can cost before it is refused: encoding/json buffers a value that is
// still open at the limit whole.
const maxBodyBytes = 4 << 20

// call is one /v1/localize or /v1/track request on its way through the
// request path both endpoints share. The handlers run its steps in a
// straight line and answer the request at the first step that reports
// false; only the decode target, the session steps and the response shape
// are their own. A call lives in its arena, which holds every buffer the
// request fills.
type call struct {
	s   *Server
	a   *arena
	w   http.ResponseWriter
	rid string
	// venue stays empty until the id is known to the manifest, so per-venue
	// attribution never interns a client-invented id (see recordVenue).
	venue string
	// session and seq identify a /v1/track epoch; zero on /v1/localize.
	session string
	seq     int64

	t0         time.Time
	deadlineMs float64
	eng        *core.Engine
	// inflight is set while the dispatcher holds the request: from its
	// admission to its outcome.
	inflight bool

	// ev is what the request accrued riding its batch (queue and total
	// time, deadline, batch), zero until submit returns. The event of the
	// request's answer builds on it.
	ev obs.RequestEvent
}

// newCall takes an arena for the request, honors the client's
// X-Request-Id (sanitized) or mints one, and echoes it on every response,
// including errors, so the client can always quote an id the server-side
// telemetry knows.
func (s *Server) newCall(w http.ResponseWriter, r *http.Request) *call {
	rid := obs.SanitizeRequestID(r.Header.Get("X-Request-Id"))
	if rid == "" {
		rid = obs.NewRequestID()
	}
	w.Header().Set("X-Request-Id", rid)
	a := arenaPool.Get().(*arena)
	a.call = call{s: s, a: a, w: w, rid: rid}
	return &a.call
}

func (s *Server) handleLocalize(w http.ResponseWriter, r *http.Request) {
	c := s.newCall(w, r)
	defer c.end()
	wreq := &c.a.req.Request
	if !c.decode(r, wreq) {
		return
	}
	creq, ok := c.validate(wreq)
	if !ok || !c.prepare(r, wreq) {
		return
	}
	out, ok := c.submit(creq, nil, 0)
	if !ok {
		return
	}
	if out.err != nil {
		c.fail(c.ev, "", out.err)
		return
	}
	c.respond(c.response(&out), out.res, out.res.Position)
}

// answer stamps the request's identity onto its terminal event ev, records
// it, and only then writes body with ev's status, so a client that has read
// its answer always finds itself in Stats.
func (c *call) answer(ev obs.RequestEvent, body any) {
	ev.ID, ev.Venue, ev.Session, ev.Seq = c.rid, c.venue, c.session, c.seq
	c.s.record(ev)
	c.a.out.write(c.w, ev.Status, body)
}

// badRequest answers a client error. After the batch the event keeps what
// the request accrued riding it.
func (c *call) badRequest(status int, class, msg string) {
	ev := c.ev
	ev.Outcome, ev.Status, ev.ErrorClass, ev.Error = "bad_request", status, class, msg
	c.answer(ev, ErrorResponse{Error: msg})
}

// fail answers a server-side failure and logs it on ev. The status and
// outcome follow err's cause: the request's deadline (504), a cancellation
// by the client or the hard stop (503), anything else (500). An empty class
// names the outcome.
func (c *call) fail(ev obs.RequestEvent, class string, err error) {
	ev.Outcome, ev.Status = failure(err)
	if class == "" {
		class = ev.Outcome
	}
	ev.ErrorClass, ev.Error = class, err.Error()
	c.answer(ev, ErrorResponse{Error: ev.Error})
}

func failure(err error) (outcome string, status int) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline", http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return "canceled", http.StatusServiceUnavailable
	}
	return "error", http.StatusInternalServerError
}

// turnAway answers a request the server refused before admitting it with
// ev's status, the error message msg, and Retry-After advice scaled from
// seed; ev is logged as the caller built it, plus the budget and the time
// spent.
func (c *call) turnAway(ev obs.RequestEvent, msg string, seed time.Duration) {
	c.w.Header().Set("Retry-After", c.s.retryAfter(seed))
	ev.DeadlineMillis, ev.TotalMillis = c.deadlineMs, time.Since(c.t0).Seconds()*1e3
	c.answer(ev, ErrorResponse{Error: msg})
}

// decode runs the method and decode gates: v (the arena's *Request or
// *TrackRequest) holds the body when it reports true.
func (c *call) decode(r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		c.w.Header().Set("Allow", http.MethodPost)
		c.badRequest(http.StatusMethodNotAllowed, "method", "POST only")
		return false
	}
	if err := c.a.decodeBody(c.w, r, v); err != nil {
		c.badRequest(http.StatusBadRequest, "decode", fmt.Sprintf("decode request: %v", err))
		return false
	}
	return true
}

// validate is the validate gate: the wire request as engine input, built
// in the arena.
func (c *call) validate(wreq *Request) (*core.LocalizeRequest, bool) {
	creq, err := c.a.csi.toCore(wreq)
	if err != nil {
		c.badRequest(http.StatusBadRequest, "validate", err.Error())
		return nil, false
	}
	return creq, true
}

// prepare derives the request's context and budget, resolves the engine
// that will run it, checks the CSI dimensions against that engine, and
// wires the hard stop and the Disturb hook.
func (c *call) prepare(r *http.Request, wreq *Request) bool {
	s := c.s
	// The context and budget are set BEFORE venue resolution: the HTTP
	// context (client disconnect) tightened by the effective deadline, so a
	// cold venue load (waiting on a dictionary build) spends the request's
	// own budget and fails with 504 instead of letting handler goroutines
	// pile up behind a stuck build. The request ID rides the context so
	// every span and every latency exemplar downstream carries it.
	c.t0 = time.Now()
	timeout := s.cfg.RequestTimeout
	if d := wreq.Deadline(); d > 0 && (timeout == 0 || d < timeout) {
		timeout = d
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = c.t0.Add(timeout)
	}
	c.deadlineMs = float64(timeout) / float64(time.Millisecond)
	ctx := &c.a.ctx
	ctx.start(r.Context(), c.rid, s.cfg.Tracer, deadline)

	rv := s.resolveEngine(ctx, wreq.VenueID)
	if rv.attribute {
		c.venue = wreq.VenueID
	}
	if rv.err != nil {
		if rv.status < http.StatusInternalServerError {
			c.badRequest(rv.status, rv.class, rv.err.Error())
			return false
		}
		c.fail(obs.RequestEvent{
			DeadlineMillis: c.deadlineMs, TotalMillis: time.Since(c.t0).Seconds() * 1e3,
		}, rv.class, rv.err)
		return false
	}
	if m, l := wreq.Dims(); m != rv.antennas || l != rv.subcarriers {
		c.badRequest(http.StatusBadRequest, "dimension", fmt.Sprintf(
			"CSI is %dx%d (antennas x subcarriers), server is configured for %dx%d",
			m, l, rv.antennas, rv.subcarriers))
		return false
	}
	c.eng = rv.eng

	ctx.arm(s, c.venue)
	// Fault-injection hook: disturb the request on its own goroutine before
	// it competes for a queue slot. A stuck disturbance releases when the
	// request's context dies, after which the request proceeds to admission
	// and fails fast at the engine's first stage-boundary check (504/503).
	if s.cfg.Disturb != nil {
		s.cfg.Disturb(ctx)
	}
	return true
}

// end releases the request's arena, its context included. A call that
// unwinds while the dispatcher still holds its request (only a panic can)
// cancels the context instead, so the engine drops the request, and leaves
// the arena to the garbage collector.
func (c *call) end() {
	if c.inflight {
		c.a.ctx.abandon()
		return
	}
	c.a.release(c.s.arenaReleased)
}

// submit admits the request to its lane and waits for its batch; a tracker
// selects the tracked pipeline at epoch time t. It reports false once it
// has turned the request away. Otherwise the outcome's error, if any, is
// still to be answered, and c.ev holds what the request accrued.
func (c *call) submit(creq *core.LocalizeRequest, tracker *core.Tracker, t float64) (outcome, bool) {
	s := c.s
	// The admission timestamp is distinct from t0: t0 anchors end-to-end
	// latency (and includes any cold venue load), while enq anchors the
	// queue-wait measurement so a slow load does not masquerade as queueing.
	enq := time.Now()
	p := &c.a.p
	if p.done == nil {
		p.done = make(chan outcome, 1)
	}
	*p = pending{
		req: creq, eng: c.eng, venue: c.venue, ctx: &c.a.ctx,
		tracker: tracker, t: t, res: &c.a.res, track: &c.a.track,
		done: p.done, enqueued: enq,
	}
	// Lane selection: consistent hashing on venue id, so one venue's traffic
	// always shares a lane (and its micro-batches), while a hot venue can
	// only fill its own lane's queue. Single-lane servers skip the ring.
	queue := s.queues[0]
	if s.ring != nil {
		queue = s.queues[s.ring.OwnerIndex(c.venue)]
	}
	// Admission: the read lock pins the draining flag across the queue send
	// so Drain cannot close the channel mid-send.
	s.admitMu.RLock()
	if s.draining {
		s.admitMu.RUnlock()
		c.turnAway(obs.RequestEvent{Outcome: "rejected_draining", Status: http.StatusServiceUnavailable},
			"draining", s.cfg.RetryAfterDraining)
		return outcome{}, false
	}
	select {
	case queue <- p:
		c.inflight = true
		s.met.accepted.Inc()
		s.admitMu.RUnlock()
	default:
		s.admitMu.RUnlock()
		c.turnAway(obs.RequestEvent{Outcome: "rejected_queue_full", Status: http.StatusTooManyRequests},
			"queue full", s.cfg.RetryAfterFull)
		return outcome{}, false
	}
	s.met.queueDepth.Set(float64(s.queuedTotal()))

	// The dispatcher always answers every accepted request — on flush, on
	// forced cancellation, or on drain — so this receive cannot leak.
	out := <-p.done
	c.inflight = false
	queueMs := out.dequeued.Sub(enq).Seconds() * 1e3
	if out.dequeued.IsZero() {
		queueMs = 0
	}
	c.ev = obs.RequestEvent{
		QueueMillis:    queueMs,
		TotalMillis:    time.Since(c.t0).Seconds() * 1e3,
		DeadlineMillis: c.deadlineMs,
		BatchID:        out.batchID,
		BatchSize:      out.batchSize,
	}
	return out, true
}

// response is the wire view of a completed request's fix, built in the
// arena's response.
func (c *call) response(out *outcome) *Response {
	a := c.a
	a.links = grow(a.links, len(out.res.Links))
	for i, lr := range out.res.Links {
		a.links[i] = LinkResult{AoADeg: lr.AoADeg, Confidence: lr.Confidence}
		if lr.Err != nil {
			a.links[i].Error = lr.Err.Error()
		}
	}
	a.resp.Response = Response{
		RequestID:   c.rid,
		X:           out.res.Position.X,
		Y:           out.res.Position.Y,
		Links:       a.links,
		BatchSize:   out.batchSize,
		QueueMillis: c.ev.QueueMillis,
		TotalMillis: c.ev.TotalMillis,
	}
	return &a.resp.Response
}

// respond answers a completed request with resp and records its ok event:
// the estimate est, the search that placed res, the links' merged solver
// provenance, and their lowest sanitize confidence.
func (c *call) respond(resp any, res *core.LocalizeResult, est core.Point) {
	ev := c.ev
	ev.Outcome, ev.Status = "ok", http.StatusOK
	ev.SearchMode = res.Search.Mode
	ev.CellsEvaluated = res.Search.Evaluated()
	c.a.est = [2]float64{est.X, est.Y}
	ev.Est = c.a.est[:]
	var solve core.SolveInfo
	for _, lr := range res.Links {
		// SanitizeConfidence is the lowest reduced fusion weight any flagged
		// link carries (0 = every burst clean), including links that failed
		// after being flagged.
		if lr.Sanitize != nil && (ev.SanitizeConfidence == 0 || lr.Confidence < ev.SanitizeConfidence) {
			ev.SanitizeConfidence = lr.Confidence
		}
		if lr.Solve.Solver != "" {
			solve = solve.Merge(lr.Solve)
		}
	}
	ev.Solver = solve.Solver
	ev.FallbackStage = solve.Fallback
	c.answer(ev, resp)
}

// engineResolution classifies the outcome of mapping a request's venueId to
// the engine that will run it. status/class describe a failure (err != nil):
// 400/404 are client errors, 5xx server errors. attribute reports whether
// the venue id is known to the manifest and therefore safe to attribute to
// the per-venue metric namespace — a client-invented id must never mint
// metric handles (each unique bogus id would permanently allocate them:
// unauthenticated unbounded growth).
type engineResolution struct {
	eng                   *core.Engine
	antennas, subcarriers int
	status                int
	class                 string
	attribute             bool
	err                   error
}

// resolveEngine resolves the engine serving a request: the venue's engine
// (loading its dictionaries on first touch, bounded by ctx) when venueID is
// non-empty, the configured default otherwise. Shared by /v1/localize and
// /v1/track so both surfaces classify venue failures identically.
func (s *Server) resolveEngine(ctx context.Context, venueID string) engineResolution {
	r := engineResolution{eng: s.cfg.Engine, antennas: s.antennas, subcarriers: s.subcarrier}
	if venueID == "" {
		if r.eng == nil {
			r.status, r.class = http.StatusBadRequest, "venue"
			r.err = errors.New("venueId required: server has no default engine")
		}
		return r
	}
	if s.cfg.Venues == nil {
		r.status, r.class = http.StatusBadRequest, "venue"
		r.err = fmt.Errorf("venueId %q: server is single-venue (no venue registry configured)", venueID)
		return r
	}
	v, err := s.cfg.Venues.Get(ctx, venueID)
	if err != nil {
		if errors.Is(err, venue.ErrUnknownVenue) {
			r.status, r.class, r.err = http.StatusNotFound, "venue_unknown", err
			return r
		}
		// Any other failure names a manifest venue (Get validates the id
		// before building), so per-venue attribution is safe.
		r.attribute = true
		r.class, r.err = "venue_load", err
		_, r.status = failure(err)
		return r
	}
	r.attribute = true
	r.eng = v.Engine
	ecfg := r.eng.Estimator().Config()
	r.antennas, r.subcarriers = ecfg.Array.NumAntennas, ecfg.OFDM.NumSubcarriers
	return r
}

// record is the request ledger: the one step every terminal outcome takes,
// and the only place an outcome is counted. It reads everything from ev:
//   - the rejections count by outcome, and an out-of-order epoch by class;
//   - the SLO observes 200s, 429s and 5xx. Client errors (400/404/405)
//     spend the client's error budget, not the server's, and are skipped;
//   - the venue's RED row, a tracked epoch's search outcome, and the
//     latency histograms of admitted requests (those that rode a batch, so
//     BatchID > 0);
//   - the event log and the flight recorder get ev;
//   - last, an admitted request counts completed or failed, so Drain never
//     sees a request finished before its record is done.
func (s *Server) record(ev obs.RequestEvent) {
	m := s.met
	ok := ev.Status == http.StatusOK
	total := ev.TotalMillis / 1e3
	switch ev.Outcome {
	case "rejected_queue_full":
		m.rejectedFull.Inc()
	case "rejected_draining":
		m.rejectedDrn.Inc()
	case "rejected_session_capacity":
		m.trackCapacity.Inc()
	}
	if ev.ErrorClass == "track_seq" {
		m.trackOutOfOrd.Inc()
	}
	if ok || ev.Status == http.StatusTooManyRequests || ev.Status >= http.StatusInternalServerError {
		s.cfg.SLO.Observe(ok, time.Duration(total*float64(time.Second)))
	}
	s.recordVenue(ev)
	admitted := ev.BatchID > 0
	if admitted {
		// The e2e exemplar is the entry point of a slow-request diagnosis:
		// /metrics names the request that most recently landed in each
		// latency bucket.
		m.e2e.ObserveExemplar(total, ev.ID)
		if ev.Session != "" {
			m.trackE2E.Observe(total)
		}
	}
	if ok && ev.Session != "" {
		m.trackEpochs.Inc()
		countIf(m.trackWindowed, ev.Windowed)
		countIf(m.trackFallback, ev.TrackFallback)
		countIf(m.trackReacq, ev.Reacquired)
	}
	if s.cfg.Events != nil || s.cfg.Recorder != nil {
		ev.TimeUnixNs = time.Now().UnixNano()
		s.cfg.Recorder.RecordRequest(ev)
		s.cfg.Events.Log(ev)
	}
	switch {
	case admitted && ok:
		m.completed.Inc()
	case admitted:
		m.failed.Inc()
	}
}

func countIf(c *obs.Counter, cond bool) {
	if cond {
		c.Inc()
	}
}

// venueMetrics is one venue's RED row: request/ok/error counters plus the
// end-to-end latency histogram (serve.venue.<id>.*).
type venueMetrics struct {
	requests *obs.Counter
	ok       *obs.Counter
	errs     *obs.Counter
	e2e      *obs.Histogram
}

// venueMetricsFor lazily resolves (and caches) the metric handles for one
// venue. Only ids that resolved through the registry reach here (see prepare
// and resolveEngine), and recordVenue re-checks the manifest alphabet, so
// embedding them in metric names cannot collide with the fixed schema or
// grow without bound under client-invented ids.
func (s *Server) venueMetricsFor(id string) *venueMetrics {
	s.venueMu.Lock()
	defer s.venueMu.Unlock()
	vm := s.venueMet[id]
	if vm == nil {
		reg := s.met.reg
		vm = &venueMetrics{
			requests: reg.Counter("serve.venue." + id + ".requests_total"),
			ok:       reg.Counter("serve.venue." + id + ".ok_total"),
			errs:     reg.Counter("serve.venue." + id + ".errors_total"),
			e2e:      reg.Histogram("serve.venue."+id+".e2e.seconds", obs.ExpBuckets(0.001, 2, 16)...),
		}
		s.venueMet[id] = vm
	}
	return vm
}

// recordVenue attributes one terminal outcome to its venue's RED metrics
// (no-op for venue-less requests). The alphabet gate
// is defense in depth: metric handles live forever, so only ids obeying the
// manifest contract ([A-Za-z0-9_-], the alphabet roastat's parser assumes)
// may mint them, whatever path produced the event.
func (s *Server) recordVenue(ev obs.RequestEvent) {
	if ev.Venue == "" || !venue.ValidID(ev.Venue) {
		return
	}
	vm := s.venueMetricsFor(ev.Venue)
	vm.requests.Inc()
	if ev.Status == http.StatusOK {
		vm.ok.Inc()
	} else {
		vm.errs.Inc()
	}
	if ev.TotalMillis > 0 {
		vm.e2e.Observe(ev.TotalMillis / 1e3)
	}
}

// queuedTotal sums the current depth across every lane.
func (s *Server) queuedTotal() int {
	n := 0
	for _, q := range s.queues {
		n += len(q)
	}
	return n
}

// QueueFill reports the fullest lane's fill fraction (0..1) — the
// saturation signal the diagnostic trigger engine watches. The max (not the
// mean) is the operative signal: a request for a venue on a full lane is
// rejected no matter how idle the other lanes are.
func (s *Server) QueueFill() float64 {
	worst := 0.0
	for _, q := range s.queues {
		if f := float64(len(q)) / float64(cap(q)); f > worst {
			worst = f
		}
	}
	return worst
}

// retryAfter renders the Retry-After advice for a rejection: the configured
// seed scaled by the current queue fill, ceil((1 + fill) * seed) in whole
// seconds, never below 1.
func (s *Server) retryAfter(seed time.Duration) string {
	secs := int(math.Ceil((1 + s.QueueFill()) * seed.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// writeError answers a request that has no arena (the proxy's, or one whose
// handler panicked) with status and msg.
func writeError(w http.ResponseWriter, status int, msg string) {
	new(jsonOut).write(w, status, ErrorResponse{Error: msg})
}
