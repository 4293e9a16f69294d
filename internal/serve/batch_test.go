package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roarray/internal/obs"
)

// gateKey finds a gateCtx from any context derived from it.
type gateKey struct{}

// gateCtx is a request's root context that, once armed, blocks every value
// lookup until released. Armed from the Disturb hook, just before the
// request competes for admission, it stalls the request's batch slot inside
// the engine at the slot's first context lookup.
type gateCtx struct {
	context.Context
	armed    atomic.Bool
	once     sync.Once
	entered  chan struct{}
	release  chan struct{}
	released sync.Once
}

// newGate returns an unarmed gate that is opened at the test's cleanup at
// the latest. Cleanups run after defers, so a test that parks a server's
// dispatcher on a gate registers the server's Drain with t.Cleanup before
// making the gate, or the Drain would wait on it forever when the test
// fails early.
func newGate(t *testing.T) *gateCtx {
	g := &gateCtx{Context: context.Background(), entered: make(chan struct{}), release: make(chan struct{})}
	t.Cleanup(g.open)
	return g
}

// open releases every lookup blocked on the gate; later calls do nothing.
func (g *gateCtx) open() { g.released.Do(func() { close(g.release) }) }

func (g *gateCtx) Value(key any) any {
	if key == (gateKey{}) {
		return g
	}
	if g.armed.Load() {
		g.once.Do(func() { close(g.entered) })
		<-g.release
	}
	return g.Context.Value(key)
}

// armGate is a Disturb hook that arms the request's gateCtx, if it has one.
func armGate(ctx context.Context) {
	if g, _ := ctx.Value(gateKey{}).(*gateCtx); g != nil {
		g.armed.Store(true)
	}
}

// serveAsync serves one POST through srv's handler under ctx on its own
// goroutine and delivers the recorded response.
func serveAsync(srv *Server, ctx context.Context, path string, body []byte) <-chan *httptest.ResponseRecorder {
	done := make(chan *httptest.ResponseRecorder, 1)
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
	go func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r)
		done <- rec
	}()
	return done
}

// await polls cond until it holds, failing the test after 10 s.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitAccepted waits until srv has admitted n requests in total.
func waitAccepted(t *testing.T, srv *Server, n int64) {
	t.Helper()
	await(t, fmt.Sprintf("%d admissions", n), func() bool { return srv.Stats().Accepted >= n })
}

// parkDispatcher serves a gated /v1/localize request on srv, whose Disturb
// hook must be armGate, and returns once the lane's dispatcher is flushing
// it, stalled inside the engine. Requests admitted from then on queue up
// behind it; releasing the gate lets the flush finish, and the dispatcher's
// next batch is whatever queued meanwhile.
func parkDispatcher(t *testing.T, srv *Server, body []byte) (*gateCtx, <-chan *httptest.ResponseRecorder) {
	t.Helper()
	gate := newGate(t)
	done := serveAsync(srv, gate, "/v1/localize", body)
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("gated request never reached the engine")
	}
	return gate, done
}

// decodeOK checks that rec is a 200 and decodes its body.
func decodeOK(t *testing.T, what string, rec *httptest.ResponseRecorder) Response {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", what, rec.Code, rec.Body.Bytes())
	}
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestBatchAnswersEachMemberWhenItsItemFinishes flushes two requests as one
// micro-batch on a two-worker engine and stalls one of them inside the
// engine: its batchmate must be answered while the stalled slot is still
// running, not after the whole group returns.
func TestBatchAnswersEachMemberWhenItsItemFinishes(t *testing.T) {
	eng := serveTestEngine(t, 2)
	srv, err := New(Config{Engine: eng, BatchSize: 2, Disturb: armGate})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Drain(context.Background()) })
	reqs := serveTestRequests(t, 3, 2, 4100)

	park, parked := parkDispatcher(t, srv, mustMarshal(t, FromCore(reqs[2])))
	gate := newGate(t)
	// The stalled member queues first, so it takes the batch's first slot.
	slow := serveAsync(srv, gate, "/v1/localize", mustMarshal(t, FromCore(reqs[0])))
	waitAccepted(t, srv, 2)
	fast := serveAsync(srv, context.Background(), "/v1/localize", mustMarshal(t, FromCore(reqs[1])))
	waitAccepted(t, srv, 3)
	park.open()
	if resp := decodeOK(t, "parking request", <-parked); resp.BatchSize != 1 {
		t.Fatalf("parking request rode a batch of %d, want 1", resp.BatchSize)
	}

	select {
	case rec := <-fast:
		if resp := decodeOK(t, "fast member", rec); resp.BatchSize != 2 {
			t.Fatalf("fast member rode a batch of %d, want 2", resp.BatchSize)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fast member not answered while its batchmate was still running")
	}
	select {
	case <-gate.entered:
	default:
		t.Fatal("stalled member never reached the engine")
	}
	select {
	case rec := <-slow:
		t.Fatalf("stalled member answered before its release: status %d", rec.Code)
	default:
	}
	gate.open()
	if resp := decodeOK(t, "stalled member", <-slow); resp.BatchSize != 2 {
		t.Fatalf("stalled member rode a batch of %d, want 2", resp.BatchSize)
	}
}

// TestBacklogFlushesInCappedBatches pins continuous batching under a
// backlog: BatchSize+2 requests that queue up behind a busy dispatcher
// flush as one full batch of BatchSize, then one batch of the 2 left over,
// in that order.
func TestBacklogFlushesInCappedBatches(t *testing.T) {
	const batch = 4
	var eventBuf obsSyncBuffer
	events := obs.NewEventLog(&eventBuf, 64)
	srv, err := New(Config{Engine: serveTestEngine(t, 1), BatchSize: batch, Disturb: armGate, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Drain(context.Background()) })
	reqs := serveTestRequests(t, batch+3, 1, 4200)

	park, parked := parkDispatcher(t, srv, mustMarshal(t, FromCore(reqs[batch+2])))
	backlog := make([]<-chan *httptest.ResponseRecorder, batch+2)
	for i := range backlog {
		backlog[i] = serveAsync(srv, context.Background(), "/v1/localize", mustMarshal(t, FromCore(reqs[i])))
	}
	waitAccepted(t, srv, batch+3)
	park.open()
	decodeOK(t, "parking request", <-parked)
	sizeOf := make(map[string]int)
	for i, done := range backlog {
		resp := decodeOK(t, fmt.Sprintf("backlog request %d", i), <-done)
		sizeOf[resp.RequestID] = resp.BatchSize
	}

	events.Close()
	evs, err := obs.ReadRequestEvents(strings.NewReader(eventBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	members := make(map[int64]int)
	idOfSize := make(map[int]int64)
	for _, ev := range evs {
		size, ok := sizeOf[ev.ID]
		if !ok {
			continue
		}
		if ev.BatchSize != size {
			t.Fatalf("request %s: event batch size %d, response %d", ev.ID, ev.BatchSize, size)
		}
		members[ev.BatchID]++
		idOfSize[size] = ev.BatchID
	}
	if len(members) != 2 || members[idOfSize[batch]] != batch || members[idOfSize[2]] != 2 {
		t.Fatalf("backlog flushed as %v (batch id -> members), want one batch of %d and one of 2", members, batch)
	}
	if idOfSize[batch] >= idOfSize[2] {
		t.Fatalf("batch of 2 (id %d) flushed before the full batch (id %d)", idOfSize[2], idOfSize[batch])
	}
}
