package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gateKey finds a gateCtx from any context derived from it.
type gateKey struct{}

// gateCtx is a request's root context that, once armed, blocks every value
// lookup until released. Armed from the Disturb hook, just before the
// request competes for admission, it stalls the request's batch slot inside
// the engine at the slot's first context lookup.
type gateCtx struct {
	context.Context
	armed   atomic.Bool
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

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

// TestBatchAnswersEachMemberWhenItsItemFinishes flushes two requests as one
// micro-batch on a two-worker engine and stalls one of them inside the
// engine: its batchmate must be answered while the stalled slot is still
// running, not after the whole group returns.
func TestBatchAnswersEachMemberWhenItsItemFinishes(t *testing.T) {
	eng := serveTestEngine(t, 2)
	srv, err := New(Config{
		Engine: eng, BatchSize: 2, BatchLinger: time.Minute,
		Disturb: func(ctx context.Context) {
			if g, _ := ctx.Value(gateKey{}).(*gateCtx); g != nil {
				g.armed.Store(true)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(context.Background())
	reqs := serveTestRequests(t, 2, 2, 4100)
	gate := &gateCtx{Context: context.Background(), entered: make(chan struct{}), release: make(chan struct{})}
	released := false
	defer func() {
		if !released {
			close(gate.release)
		}
	}()

	post := func(ctx context.Context, i int) <-chan *httptest.ResponseRecorder {
		done := make(chan *httptest.ResponseRecorder, 1)
		r := httptest.NewRequest(http.MethodPost, "/v1/localize", nil).WithContext(ctx)
		r.Body = &bodyReader{}
		r.Body.(*bodyReader).Reset(mustMarshal(t, FromCore(reqs[i])))
		go func() {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, r)
			done <- rec
		}()
		return done
	}
	slow := post(gate, 0)
	for deadline := time.Now().Add(10 * time.Second); srv.Stats().Accepted < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("stalled request never admitted")
		}
	}
	fast := post(context.Background(), 1)

	select {
	case rec := <-fast:
		if rec.Code != http.StatusOK {
			t.Fatalf("fast member: status %d: %s", rec.Code, rec.Body.Bytes())
		}
		var resp Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.BatchSize != 2 {
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
	close(gate.release)
	released = true
	if rec := <-slow; rec.Code != http.StatusOK {
		t.Fatalf("stalled member: status %d: %s", rec.Code, rec.Body.Bytes())
	}
}
