package serve

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"roarray/internal/obs"
)

// reqCtx is a request's context. It lives by value in the request's arena
// and is started afresh for each call, in place of the chain the request
// path would otherwise build per request (WithRequestID, WithTracer,
// WithTimeout, WithVenue, WithCancel and an AfterFunc on the server's hard
// stop), and it answers as that chain would:
//   - Value answers the request id, tracer and venue from its fields
//     (obs.RequestValues) and every other key from the parent, the HTTP
//     request's context;
//   - Err polls three sources, the parent, the effective deadline and, once
//     armed, the server's hard-stop flag, and latches the first error it
//     sees;
//   - Done makes its channel, and the watchers that close it, only when a
//     caller asks for one (a cold venue load's wait, the fault injector's
//     Disturb, a derived child). AfterFunc lets context.WithCancel on it
//     register its child without starting a goroutine.
//
// Its fields are written only by the request's handler, before the request
// is admitted to a lane; the lazily made channel, its watchers and the
// latched error are guarded by mu. In -race builds a released context is
// poisoned: every method of it panics until its arena serves another
// request.
type reqCtx struct {
	obs.RequestValues
	// deadline is the request's own effective deadline (zero for none).
	deadline time.Time
	// srv is the server whose hard stop cancels the context; nil until arm.
	srv *Server
	// err is the latched error, nil while the context is live.
	err atomic.Pointer[error]

	mu sync.Mutex
	// gen numbers the context's uses, so a watcher of an earlier request
	// that fires late changes nothing.
	gen  uint64
	done chan struct{}
	// stops unregisters the watchers on the parent and the hard stop, timer
	// is the deadline's; afters are the AfterFunc callbacks not yet run,
	// and running counts those started and not yet returned.
	stops    []func() bool
	timer    *time.Timer
	afters   []*func()
	running  sync.WaitGroup
	poisoned bool
}

// errCtxReleased is the panic value of a released request context (-race
// builds).
const errCtxReleased = "serve: request context used after release"

// start readies c for a new request: parent is the HTTP request's context,
// id and tracer its values, and deadline its effective deadline (zero for
// none). The venue and the hard stop come later, once known (arm).
func (c *reqCtx) start(parent context.Context, id string, tracer *obs.Tracer, deadline time.Time) {
	c.RequestValues = obs.RequestValues{Context: parent, ID: id, Tracer: tracer}
	c.deadline = deadline
	c.poisoned = false
}

// arm wires the server's hard stop to c and records the venue it resolved
// to.
func (c *reqCtx) arm(s *Server, venue string) {
	c.Venue = venue
	c.mu.Lock()
	defer c.mu.Unlock()
	c.srv = s
	if c.done != nil && c.err.Load() == nil {
		c.watchHardLocked()
	}
}

// release ends c's use by the finished request: it stops the watchers,
// waits for AfterFunc callbacks already started (they may still read c),
// drops every reference the request left, and in -race builds poisons c.
func (c *reqCtx) release() {
	c.mu.Lock()
	c.gen++
	c.unwatchLocked()
	c.mu.Unlock()
	c.running.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.stops)
	clear(c.afters)
	c.stops, c.afters, c.timer, c.done = c.stops[:0], c.afters[:0], nil, nil
	c.RequestValues, c.deadline, c.srv = obs.RequestValues{}, time.Time{}, nil
	c.err.Store(nil)
	c.poisoned = raceEnabled
}

// abandon cancels c, unless it has ended already, and stops its watchers:
// the request's handler has unwound while the dispatcher still holds it,
// and c is left, with its arena, to the garbage collector.
func (c *reqCtx) abandon() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cancelLocked(context.Canceled)
	c.unwatchLocked()
}

// unwatchLocked stops the watchers on the sources.
func (c *reqCtx) unwatchLocked() {
	for _, stop := range c.stops {
		stop()
	}
	if c.timer != nil {
		c.timer.Stop()
	}
}

func (c *reqCtx) check() {
	if raceEnabled && c.poisoned {
		panic(errCtxReleased)
	}
}

// Value answers the request id, tracer and venue from c's fields and every
// other key from the parent.
func (c *reqCtx) Value(key any) any {
	c.check()
	return c.RequestValues.Value(key)
}

// Deadline is the earlier of the parent's deadline and c's own.
func (c *reqCtx) Deadline() (time.Time, bool) {
	c.check()
	d, ok := c.Context.Deadline()
	if !c.deadline.IsZero() && (!ok || c.deadline.Before(d)) {
		return c.deadline, true
	}
	return d, ok
}

// Err reports the latched error, or polls the sources and latches the
// first that has ended the request: the parent's error, context.Canceled
// once the armed hard stop is set, context.DeadlineExceeded once the
// deadline has passed.
func (c *reqCtx) Err() error {
	c.check()
	if err := c.err.Load(); err != nil {
		return *err
	}
	err := c.Context.Err()
	switch {
	case err != nil:
	case c.srv != nil && c.srv.hardStopped.Load():
		err = context.Canceled
	case !c.deadline.IsZero() && !time.Now().Before(c.deadline):
		err = context.DeadlineExceeded
	default:
		return nil
	}
	c.mu.Lock()
	c.cancelLocked(err)
	c.mu.Unlock()
	return *c.err.Load()
}

// Done returns a channel closed once c is cancelled, made (with the
// watchers on the parent, the deadline and the armed hard stop that close
// it) on the first call.
func (c *reqCtx) Done() <-chan struct{} {
	c.check()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.doneLocked()
	return c.done
}

func (c *reqCtx) doneLocked() {
	if c.done != nil {
		return
	}
	c.done = make(chan struct{})
	if c.err.Load() != nil {
		close(c.done)
		return
	}
	gen, parent := c.gen, c.Context
	c.stops = append(c.stops, context.AfterFunc(parent, func() { c.fire(gen, parent.Err()) }))
	if !c.deadline.IsZero() {
		c.timer = time.AfterFunc(time.Until(c.deadline), func() { c.fire(gen, context.DeadlineExceeded) })
	}
	if c.srv != nil {
		c.watchHardLocked()
	}
}

func (c *reqCtx) watchHardLocked() {
	gen := c.gen
	c.stops = append(c.stops, context.AfterFunc(c.srv.hardCtx, func() { c.fire(gen, context.Canceled) }))
}

// fire cancels c with err on behalf of a watcher of use gen.
func (c *reqCtx) fire(gen uint64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen == gen {
		c.cancelLocked(err)
	}
}

// cancelLocked latches err unless an error is latched already, closes the
// channel if one was made, and runs the AfterFunc callbacks, each on its
// own goroutine.
func (c *reqCtx) cancelLocked(err error) {
	if c.err.Load() != nil {
		return
	}
	c.err.Store(&err)
	if c.done != nil {
		close(c.done)
	}
	for _, f := range c.afters {
		c.goLocked(*f)
	}
	clear(c.afters)
	c.afters = c.afters[:0]
}

// goLocked runs f on its own goroutine, which release waits for.
func (c *reqCtx) goLocked(f func()) {
	c.running.Add(1)
	go func() {
		defer c.running.Done()
		f()
	}()
}

// AfterFunc arranges for f to run on its own goroutine once c is cancelled
// (at once if it already is), as context.AfterFunc would; stop unregisters
// f and reports whether it did so before f was started. context.WithCancel
// on c registers its child here instead of starting a goroutine to watch
// c.Done().
func (c *reqCtx) AfterFunc(f func()) (stop func() bool) {
	c.check()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.doneLocked()
	if c.err.Load() != nil {
		c.goLocked(f)
		return func() bool { return false }
	}
	w := &f
	c.afters = append(c.afters, w)
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		i := slices.Index(c.afters, w)
		if i < 0 {
			return false
		}
		c.afters = slices.Delete(c.afters, i, i+1)
		return true
	}
}
