package serve

import (
	"context"
	"runtime"
	"testing"
	"time"

	"roarray/internal/obs"
)

// foreignKey is a context key of a package other than obs, which a request
// context answers from its parent.
type foreignKey struct{}

// chainCtx builds the context chain the request path built per request
// before reqCtx replaced it: the request id, the tracer and the deadline on
// the parent, then the venue, a cancel, and an AfterFunc that cancels on
// the server's hard stop.
func chainCtx(parent context.Context, s *Server, id string, tr *obs.Tracer, venue string, deadline time.Time) (context.Context, context.CancelFunc) {
	ctx := obs.WithTracer(obs.WithRequestID(parent, id), tr)
	cancelDeadline := context.CancelFunc(func() {})
	if !deadline.IsZero() {
		ctx, cancelDeadline = context.WithDeadline(ctx, deadline)
	}
	ctx, cancel := context.WithCancel(obs.WithVenue(ctx, venue))
	stop := context.AfterFunc(s.hardCtx, cancel)
	return ctx, func() {
		stop()
		cancel()
		cancelDeadline()
	}
}

// TestReqCtxMatchesChain holds the pooled request context to the chain it
// replaces: the same values (the request id, tracer and venue, and a
// foreign key through the parent), and the same Deadline and Err while live
// and after each way a request ends: the client cancels, the request's
// deadline passes, the parent's earlier deadline passes, the server hard
// stops. Each case runs twice. Polled, Err alone must notice the end and no
// channel is made. Watched, a Done channel asked for before the request
// ends, and before the hard stop is armed, must close, and a
// context.WithCancel child made beforehand, which must start no goroutine,
// must be cancelled with the same error.
func TestReqCtxMatchesChain(t *testing.T) {
	const wait = 40 * time.Millisecond
	tr := obs.NewTracer(nil)
	cases := []struct {
		name string
		// own and parent are the request's own and its parent's deadline
		// offsets (0 for none); end ends the request (nil to stay live).
		own, parent time.Duration
		end         func(cancelParent context.CancelFunc, s *Server)
		want        error
	}{
		{name: "live", own: time.Hour},
		{name: "client cancel", own: time.Hour, end: func(cancel context.CancelFunc, _ *Server) { cancel() }, want: context.Canceled},
		{name: "request deadline", own: wait, end: func(context.CancelFunc, *Server) {}, want: context.DeadlineExceeded},
		{name: "parent deadline", own: time.Hour, parent: wait, end: func(context.CancelFunc, *Server) {}, want: context.DeadlineExceeded},
		{name: "hard stop", end: func(_ context.CancelFunc, s *Server) { s.hardStop() }, want: context.Canceled},
	}
	for _, tc := range cases {
		for _, watched := range []bool{false, true} {
			s := &Server{}
			s.hardCtx, s.hardCancel = context.WithCancel(context.Background())
			parent, cancelParent := context.WithCancel(context.WithValue(context.Background(), foreignKey{}, "foreign"))
			if tc.parent > 0 {
				parent, cancelParent = context.WithTimeout(parent, tc.parent)
			}
			var deadline time.Time
			if tc.own > 0 {
				deadline = time.Now().Add(tc.own)
			}
			chain, endChain := chainCtx(parent, s, "rid-1", tr, "venue-a", deadline)
			c := new(reqCtx)
			c.start(parent, "rid-1", tr, deadline)
			var done <-chan struct{}
			var child context.Context
			cancelChild := context.CancelFunc(func() {})
			if watched {
				done = c.Done()
				before := runtime.NumGoroutine()
				child, cancelChild = context.WithCancel(c)
				if after := runtime.NumGoroutine(); after > before {
					t.Errorf("%s: context.WithCancel on a request context started %d goroutines", tc.name, after-before)
				}
			}
			c.arm(s, "venue-a")
			name := tc.name
			if watched {
				name += " (watched)"
			}
			same(t, name, chain, c)
			if tc.end != nil {
				tc.end(cancelParent, s)
				if watched {
					waitClosed(t, name, done)
					waitClosed(t, name+" child", child.Done())
					if err := child.Err(); err != tc.want {
						t.Errorf("%s: child Err %v, want %v", name, err, tc.want)
					}
				} else if tc.own == wait || tc.parent == wait {
					time.Sleep(2 * wait)
				}
				waitClosed(t, name+" chain", chain.Done())
			}
			if err := c.Err(); err != tc.want {
				t.Errorf("%s: Err %v, want %v", name, err, tc.want)
			}
			same(t, name, chain, c)
			if !watched && c.done != nil {
				t.Errorf("%s: polling Err made a Done channel", name)
			}
			cancelChild()
			endChain()
			cancelParent()
			c.release()
			s.hardCancel()
		}
	}
}

// same fails t unless got answers like the chain want.
func same(t *testing.T, name string, want, got context.Context) {
	t.Helper()
	if g, w := obs.RequestIDFrom(got), obs.RequestIDFrom(want); g != w {
		t.Errorf("%s: request id %q, chain %q", name, g, w)
	}
	if g, w := obs.TracerFrom(got), obs.TracerFrom(want); g != w {
		t.Errorf("%s: tracer %p, chain %p", name, g, w)
	}
	if g, w := obs.VenueFrom(got), obs.VenueFrom(want); g != w {
		t.Errorf("%s: venue %q, chain %q", name, g, w)
	}
	if g, w := got.Value(foreignKey{}), want.Value(foreignKey{}); g != w {
		t.Errorf("%s: foreign value %v, chain %v", name, g, w)
	}
	gd, gok := got.Deadline()
	wd, wok := want.Deadline()
	if !gd.Equal(wd) || gok != wok {
		t.Errorf("%s: Deadline (%v, %v), chain (%v, %v)", name, gd, gok, wd, wok)
	}
	if g, w := got.Err(), want.Err(); g != w {
		t.Errorf("%s: Err %v, chain %v", name, g, w)
	}
}

func waitClosed(t *testing.T, name string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: Done not closed", name)
	}
}
