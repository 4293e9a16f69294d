//go:build race

package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"roarray/internal/obs"
)

// TestReqCtxPoisonedAfterRelease: in -race builds the context a served
// request ran under panics on every use once its arena is released, until
// the arena serves another request.
func TestReqCtxPoisonedAfterRelease(t *testing.T) {
	srv, err := New(Config{Engine: serveTestEngine(t, 1), Tracer: obs.NewTracer(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(context.Background())
	var released *arena
	srv.arenaReleased = func(a *arena) { released = a }
	r := httptest.NewRequest(http.MethodPost, "/v1/localize", nil)
	r.Body = &bodyReader{}
	r.Body.(*bodyReader).Reset(mustMarshal(t, FromCore(serveTestRequests(t, 1, 2, 21)[0])))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	if w.Code != http.StatusOK || released == nil {
		t.Fatalf("status %d, arena released %v", w.Code, released != nil)
	}
	c := &released.ctx
	uses := []struct {
		name string
		use  func()
	}{
		{"Value", func() { c.Value(foreignKey{}) }},
		{"RequestIDFrom", func() { obs.RequestIDFrom(c) }},
		{"Err", func() { _ = c.Err() }},
		{"Done", func() { c.Done() }},
		{"Deadline", func() { c.Deadline() }},
		{"AfterFunc", func() { c.AfterFunc(func() {}) }},
		{"StartSpan", func() { obs.StartSpan(c, "late") }},
	}
	for _, u := range uses {
		func() {
			defer func() {
				if r := recover(); r != errCtxReleased {
					t.Errorf("%s after release: recovered %v, want %q", u.name, r, errCtxReleased)
				}
			}()
			u.use()
		}()
	}
}
