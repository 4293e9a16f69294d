package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"roarray/internal/core"
	"roarray/internal/obs"
	"roarray/internal/testbed"
)

// smokeServer builds a server the way the production stack runs the smoke
// preset: a warm estimator and an engine over every CPU, with metrics, the
// SLO, an event log, and a flight recorder fed by span mirroring.
func smokeServer(t testing.TB) *Server {
	t.Helper()
	ps, err := LookupPreset("smoke")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ps.Estimator
	cfg.Warm = true
	est, err := core.NewEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := est.Warmup(); err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(est, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	events := obs.NewEventLog(io.Discard, 256)
	rec := obs.NewFlightRecorder(256, 1024)
	tr := obs.NewTracer(nil)
	tr.Mirror(rec.RecordSpan)
	srv, err := New(Config{
		Engine: eng, Metrics: reg, Tracer: tr, Events: events, Recorder: rec,
		SLO: obs.NewSLO(ps.SLO),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Drain(context.Background())
		events.Close()
	})
	return srv
}

// smokeTrackBodies encodes one smoke-preset walker's n epochs as /v1/track
// bodies of one session, with strictly increasing seqs and times.
func smokeTrackBodies(t testing.TB, n int) [][]byte {
	t.Helper()
	ps, err := LookupPreset("smoke")
	if err != nil {
		t.Fatal(err)
	}
	traj, err := ps.Deployment.GenerateTrajectory(testbed.TrajectoryPlan{Epochs: n}, 3)
	if err != nil {
		t.Fatal(err)
	}
	reqs, _, err := ps.Deployment.TrajectoryRequests(traj, ps.Packets, testbed.ScenarioConfig{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, n)
	for e, req := range reqs {
		bodies[e] = mustMarshal(t, &TrackRequest{
			Request: *FromCore(req), SessionID: "alloc-walker", Seq: int64(e + 1), TSeconds: traj.Points[e].T,
		})
	}
	return bodies
}

// replayer hands bodies to a server's ServeHTTP through one reused request
// and response writer, so what it counts is the server's own work.
type replayer struct {
	srv  *Server
	req  *http.Request
	body *bodyReader
	w    *recordWriter
}

// bodyReader is a resettable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// recordWriter keeps the last response's status and body.
type recordWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *recordWriter) Header() http.Header         { return w.h }
func (w *recordWriter) WriteHeader(status int)      { w.status = status }
func (w *recordWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

func newReplayer(srv *Server, path string) *replayer {
	r := &replayer{srv: srv, body: new(bodyReader), w: &recordWriter{h: http.Header{}}}
	r.req = httptest.NewRequest(http.MethodPost, path, nil)
	r.req.Header.Set("X-Request-Id", "alloc-probe")
	return r
}

// serve posts body and fails t unless the answer is a 200.
func (r *replayer) serve(t testing.TB, body []byte) {
	r.body.Reset(body)
	r.req.Body = r.body
	clear(r.w.h)
	r.w.status = 0
	r.w.body.Reset()
	r.srv.ServeHTTP(r.w, r.req)
	if r.w.status != http.StatusOK {
		t.Fatalf("status %d: %s", r.w.status, r.w.body.Bytes())
	}
}

// Allocation ceilings of one warm smoke-preset request through ServeHTTP,
// every goroutine it touches counted (handler, dispatcher, engine workers).
// Measured at 1 (/v1/localize) and 2 (/v1/track) objects on 2 CPUs: the
// X-Request-Id header's value slice, which must outlive the arena (a
// ResponseRecorder reads it after the handler has returned), and on
// /v1/track the session id string, which the session store keeps. The
// request's context lives in its arena and answers its values from fields,
// the body is bounded by the arena's reader, the Content-Type value is
// shared, the event's estimate is the arena's and the flight ring copies
// it, spans are pooled, the engine writes its result into the arena and
// histogram exemplars are copied into fixed slots, so none of them counts.
// The margin of 8 absorbs pooled buffers a garbage collection drops
// mid-run.
const (
	serveLocalizeAllocCeiling = 9
	serveTrackAllocCeiling    = 10
)

func TestServeLocalizeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled arenas at random under -race")
	}
	srv := smokeServer(t)
	bodies, _ := smokeBodies(t, 8)
	r := newReplayer(srv, "/v1/localize")
	for _, b := range bodies {
		r.serve(t, b)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		r.serve(t, bodies[i%len(bodies)])
		i++
	})
	t.Logf("%.1f allocations per /v1/localize request", allocs)
	if allocs > serveLocalizeAllocCeiling {
		t.Fatalf("/v1/localize allocates %.1f objects per request, ceiling %d", allocs, serveLocalizeAllocCeiling)
	}
}

func TestServeTrackAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled arenas at random under -race")
	}
	const warm, runs = 8, 100
	srv := smokeServer(t)
	// AllocsPerRun calls its function once more than runs.
	bodies := smokeTrackBodies(t, warm+runs+1)
	r := newReplayer(srv, "/v1/track")
	for _, b := range bodies[:warm] {
		r.serve(t, b)
	}
	i := warm
	allocs := testing.AllocsPerRun(runs, func() {
		r.serve(t, bodies[i])
		i++
	})
	t.Logf("%.1f allocations per /v1/track epoch", allocs)
	if allocs > serveTrackAllocCeiling {
		t.Fatalf("/v1/track allocates %.1f objects per epoch, ceiling %d", allocs, serveTrackAllocCeiling)
	}
}

// BenchmarkServeLocalize serves smoke-preset /v1/localize bodies through
// ServeHTTP, one at a time, with allocations reported.
func BenchmarkServeLocalize(b *testing.B) {
	srv := smokeServer(b)
	bodies, _ := smokeBodies(b, 8)
	r := newReplayer(srv, "/v1/localize")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.serve(b, bodies[i%len(bodies)])
	}
}

// BenchmarkServeTrack serves one smoke-preset walker's /v1/track epochs
// through ServeHTTP, one at a time, with allocations reported.
func BenchmarkServeTrack(b *testing.B) {
	srv := smokeServer(b)
	bodies := smokeTrackBodies(b, b.N)
	r := newReplayer(srv, "/v1/track")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.serve(b, bodies[i])
	}
}
