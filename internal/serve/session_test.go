package serve

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"roarray/internal/obs"
)

func TestSessionStoreLifecycle(t *testing.T) {
	ts := newTrackSessions(time.Minute, 10)
	now := time.Unix(1000, 0)

	sess, created, err := ts.acquire("a", "v1", now)
	if err != nil || !created {
		t.Fatalf("first acquire: created=%v err=%v", created, err)
	}
	if sess.tracker == nil {
		t.Fatal("fresh session has no tracker")
	}
	if err := sess.claimSeq(3); err != nil {
		t.Fatalf("first seq: %v", err)
	}
	sess.mu.Unlock()

	sess2, created, err := ts.acquire("a", "v1", now.Add(time.Second))
	if err != nil || created {
		t.Fatalf("re-acquire: created=%v err=%v", created, err)
	}
	if sess2 != sess {
		t.Fatal("re-acquire returned a different session")
	}
	if err := sess2.claimSeq(3); !errors.Is(err, ErrSessionSeq) {
		t.Fatalf("replayed seq: %v", err)
	}
	if err := sess2.claimSeq(2); !errors.Is(err, ErrSessionSeq) {
		t.Fatalf("stale seq: %v", err)
	}
	if err := sess2.claimSeq(4); err != nil {
		t.Fatalf("fresh seq: %v", err)
	}
	sess2.mu.Unlock()
	if got := ts.Sessions(); got != 1 {
		t.Fatalf("Sessions() = %d, want 1", got)
	}
}

func TestSessionStoreVenueBinding(t *testing.T) {
	ts := newTrackSessions(time.Minute, 10)
	now := time.Unix(1000, 0)
	sess, _, err := ts.acquire("a", "v1", now)
	if err != nil {
		t.Fatal(err)
	}
	sess.mu.Unlock()
	if _, _, err := ts.acquire("a", "v2", now); !errors.Is(err, ErrSessionVenue) {
		t.Fatalf("cross-venue acquire: %v", err)
	}
	// The original binding still works.
	sess, _, err = ts.acquire("a", "v1", now)
	if err != nil {
		t.Fatal(err)
	}
	sess.mu.Unlock()
}

func TestSessionStoreTTLEviction(t *testing.T) {
	ts := newTrackSessions(time.Minute, 100)
	now := time.Unix(1000, 0)
	for i := 0; i < 10; i++ {
		sess, _, err := ts.acquire(fmt.Sprintf("s%d", i), "", now)
		if err != nil {
			t.Fatal(err)
		}
		sess.mu.Unlock()
	}
	if got := ts.Sessions(); got != 10 {
		t.Fatalf("Sessions() = %d, want 10", got)
	}
	ts.evicted = new(obs.Counter)

	// Two minutes later every session is past the TTL; touching one id
	// sweeps that shard, and a capacity-style full sweep reclaims the rest.
	later := now.Add(2 * time.Minute)
	sess, created, err := ts.acquire("s0", "", later)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("expired session was resurrected instead of recreated")
	}
	if sess.seqSet {
		t.Fatal("recreated session inherited the old sequence state")
	}
	sess.mu.Unlock()
	ts.sweepAll(later)
	if got := ts.Sessions(); got != 1 {
		t.Fatalf("after full sweep: Sessions() = %d, want 1 (the recreated s0)", got)
	}
	if evicted := ts.evicted.Value(); evicted != 9 && evicted != 10 {
		// s0's old entry may be evicted by its shard's lazy sweep before the
		// recreate (10) or replaced in place if the sweep interval gated it.
		t.Fatalf("evicted = %d, want 9 or 10", evicted)
	}
}

func TestSessionStoreCapacity(t *testing.T) {
	ts := newTrackSessions(time.Minute, 3)
	now := time.Unix(1000, 0)
	for i := 0; i < 3; i++ {
		sess, _, err := ts.acquire(fmt.Sprintf("c%d", i), "", now)
		if err != nil {
			t.Fatal(err)
		}
		sess.mu.Unlock()
	}
	if _, _, err := ts.acquire("c3", "", now); !errors.Is(err, ErrSessionCapacity) {
		t.Fatalf("over-capacity acquire: %v", err)
	}
	// Existing sessions are unaffected by the rejection.
	sess, created, err := ts.acquire("c1", "", now.Add(time.Second))
	if err != nil || created {
		t.Fatalf("existing session after capacity hit: created=%v err=%v", created, err)
	}
	sess.mu.Unlock()

	// Once the old sessions expire, the forced sweep makes room.
	later := now.Add(2 * time.Minute)
	sess, created, err = ts.acquire("c3", "", later)
	if err != nil || !created {
		t.Fatalf("post-expiry acquire: created=%v err=%v", created, err)
	}
	sess.mu.Unlock()
}
