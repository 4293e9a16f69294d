package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"roarray/internal/core"
	"roarray/internal/obs"
)

// trackSessionShards fixes the lock-striping width of the session store.
// A session's shard is its id's ringHash modulo the width, so a hot session
// can only contend with its own shard.
const trackSessionShards = 8

// ErrSessionCapacity reports that the session store is at its configured
// maximum and no expired session could be evicted to make room.
var ErrSessionCapacity = errors.New("serve: session capacity reached")

// ErrSessionSeq reports an epoch that arrived with a sequence number at or
// below one the session has already claimed — out-of-order or replayed.
var ErrSessionSeq = errors.New("serve: epoch out of order")

// ErrSessionVenue reports an epoch addressed to a session that belongs to a
// different venue: trackers are venue state, so cross-venue reuse of a
// session id is a client bug, never a silent re-bind.
var ErrSessionVenue = errors.New("serve: session bound to another venue")

// trackSession is one sticky tracking target. The handler holds mu across
// the whole epoch — sequence claim, engine call, response — so concurrent
// epochs for the same target serialize and the tracker is never shared
// between in-flight batch slots.
type trackSession struct {
	mu sync.Mutex

	venue string
	// seq is the highest sequence number claimed; seqSet distinguishes a
	// fresh session (any first seq accepted) from seq 0 already claimed.
	// A failed epoch leaves the tracker untouched but keeps its claim, so
	// a retry must use a fresh seq — the session survives the dropped
	// epoch, the epoch itself is not replayable.
	seq     int64
	seqSet  bool
	tracker *core.Tracker

	// touched is the admission time of the most recent epoch, guarded by
	// the owning shard's lock (not mu) so the sweeper never has to take
	// session locks.
	touched time.Time
}

type trackShard struct {
	mu        sync.Mutex
	m         map[string]*trackSession
	lastSweep time.Time
}

// trackSessions is the sharded sticky-session store behind /v1/track.
// Eviction is lazy: each shard sweeps its expired sessions at most once per
// sweep interval, on the request path that touches it — no background
// goroutine to leak or to coordinate with Drain.
type trackSessions struct {
	ttl    time.Duration
	max    int
	shards [trackSessionShards]trackShard
	count  atomic.Int64

	// newTracker builds the filter for a fresh session; swapped in tests.
	newTracker func() (*core.Tracker, error)
	// evicted counts the sessions the sweeps reclaimed
	// (serve.track.sessions_evicted_total; nil counts nothing).
	evicted *obs.Counter
}

func newTrackSessions(ttl time.Duration, max int) *trackSessions {
	if ttl <= 0 {
		ttl = 5 * time.Minute
	}
	if max <= 0 {
		max = 4096
	}
	ts := &trackSessions{ttl: ttl, max: max}
	ts.newTracker = func() (*core.Tracker, error) { return core.NewTracker(0, 0, 0) }
	for i := range ts.shards {
		ts.shards[i].m = make(map[string]*trackSession)
	}
	return ts
}

// Sessions returns the current live session count.
func (ts *trackSessions) Sessions() int64 { return ts.count.Load() }

// acquire returns the session for id, creating it (bound to venue) on first
// touch, with the session lock HELD — the caller owns the epoch until it
// calls sess.mu.Unlock. created reports a fresh session.
func (ts *trackSessions) acquire(id, venue string, now time.Time) (sess *trackSession, created bool, err error) {
	sh := &ts.shards[ringHash(id)%trackSessionShards]
	sh.mu.Lock()
	ts.sweepLocked(sh, now, false)
	sess = sh.m[id]
	if sess == nil {
		if int(ts.count.Load()) >= ts.max {
			// The lazy sweep above already reclaimed this shard's expired
			// sessions; other shards may still hold expired entries, so a
			// full sweep is the last resort before rejecting.
			sh.mu.Unlock()
			ts.sweepAll(now)
			sh.mu.Lock()
			if sess = sh.m[id]; sess == nil && int(ts.count.Load()) >= ts.max {
				sh.mu.Unlock()
				return nil, false, ErrSessionCapacity
			}
		}
		if sess == nil {
			tr, terr := ts.newTracker()
			if terr != nil {
				sh.mu.Unlock()
				return nil, false, terr
			}
			sess = &trackSession{venue: venue, tracker: tr}
			sh.m[id] = sess
			ts.count.Add(1)
			created = true
		}
	}
	sess.touched = now
	sh.mu.Unlock()

	sess.mu.Lock()
	if sess.venue != venue {
		sess.mu.Unlock()
		return nil, false, fmt.Errorf("%w: session %q serves venue %q", ErrSessionVenue, id, sess.venue)
	}
	return sess, created, nil
}

// claimSeq validates and claims one epoch's sequence number. Caller holds
// the session lock. The claim sticks even if the epoch later fails.
func (sess *trackSession) claimSeq(seq int64) error {
	if sess.seqSet && seq <= sess.seq {
		return fmt.Errorf("%w: seq %d already claimed (last %d)", ErrSessionSeq, seq, sess.seq)
	}
	sess.seq = seq
	sess.seqSet = true
	return nil
}

// sweepLocked evicts this shard's expired sessions if a sweep interval has
// elapsed, or whenever force is set. Caller holds sh.mu. Sessions whose
// epoch is still in flight are safe to drop from the map: the handler owns
// the *trackSession directly, and an expired-then-recreated id simply
// starts a fresh track — exactly what a target silent past the TTL
// deserves.
func (ts *trackSessions) sweepLocked(sh *trackShard, now time.Time, force bool) {
	if !force && now.Sub(sh.lastSweep) < ts.ttl/4 {
		return
	}
	sh.lastSweep = now
	n := int64(0)
	for id, sess := range sh.m {
		if now.Sub(sess.touched) > ts.ttl {
			delete(sh.m, id)
			n++
		}
	}
	ts.count.Add(-n)
	ts.evicted.Add(n)
}

// sweepAll force-sweeps every shard (ignoring the per-shard interval) — the
// capacity path's last resort before a 429.
func (ts *trackSessions) sweepAll(now time.Time) {
	for i := range ts.shards {
		sh := &ts.shards[i]
		sh.mu.Lock()
		ts.sweepLocked(sh, now, true)
		sh.mu.Unlock()
	}
}
