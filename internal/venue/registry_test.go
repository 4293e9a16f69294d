package venue

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"roarray/internal/core"
	"roarray/internal/obs"
	"roarray/internal/testbed"
)

func testManifest(ids ...string) *Manifest {
	m := &Manifest{Schema: 1}
	for _, id := range ids {
		m.Venues = append(m.Venues, smokeSpec(id))
	}
	return m
}

func TestRegistryUnknownVenue(t *testing.T) {
	r := NewRegistry(testManifest("hq"), RegistryConfig{})
	_, err := r.Get(context.Background(), "nope")
	if !errors.Is(err, ErrUnknownVenue) {
		t.Fatalf("want ErrUnknownVenue, got %v", err)
	}
}

// TestRegistryColdLoadHonorsContext pins the deadline contract of Get: a
// caller whose context expires mid-build fails with ctx.Err() promptly —
// even the caller that triggered the build — while the build itself runs to
// completion on its detached goroutine and serves the next caller.
func TestRegistryColdLoadHonorsContext(t *testing.T) {
	release := make(chan struct{})
	r := NewRegistry(testManifest("hq"), RegistryConfig{
		Build: BuildConfig{Disturb: func() { <-release }},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := r.Get(ctx, "hq"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stuck cold load returned %v, want context.DeadlineExceeded", err)
	}
	close(release)
	if !r.WaitIdle(5 * time.Second) {
		t.Fatal("abandoned build never finished")
	}
	v, err := r.Get(context.Background(), "hq")
	if err != nil || v == nil {
		t.Fatalf("build abandoned by its waiter was lost: %v", err)
	}
	if st := r.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (second Get must hit the installed venue)", st.Misses)
	}
}

func TestRegistryHitAndIDs(t *testing.T) {
	r := NewRegistry(testManifest("b", "a"), RegistryConfig{})
	if ids := r.IDs(); len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("IDs = %v", ids)
	}
	v1, err := r.Get(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := r.Get(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatal("second Get rebuilt a resident venue")
	}
	st := r.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Resident != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Bytes != v1.Bytes {
		t.Fatalf("accounted %d bytes, venue is %d", st.Bytes, v1.Bytes)
	}
}

func TestRegistryEvictsColdestUnderBudget(t *testing.T) {
	reg := obs.NewRegistry()
	// Budget sized for two smoke venues: loading a third must evict exactly
	// the coldest one.
	one, err := Build(smokeSpec("probe"), BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(testManifest("a", "b", "c"), RegistryConfig{
		BudgetBytes: 2 * one.Bytes,
		Metrics:     reg,
	})
	ctx := context.Background()
	for _, id := range []string{"a", "b"} {
		if _, err := r.Get(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" is coldest when "c" arrives.
	if _, err := r.Get(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	if r.Resident("b") {
		t.Fatal("coldest venue b survived over-budget load")
	}
	if !r.Resident("a") || !r.Resident("c") {
		t.Fatal("hot venues evicted")
	}
	st := r.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes > r.Budget() {
		t.Fatalf("resident %d bytes over budget %d", st.Bytes, r.Budget())
	}
	snap := reg.Snapshot()
	if got, _ := snap["venue.cache.evictions_total"].(int64); got != 1 {
		t.Fatalf("eviction counter not exported: %v", snap["venue.cache.evictions_total"])
	}
}

func TestRegistryOversizedVenueStillLoads(t *testing.T) {
	r := NewRegistry(testManifest("a"), RegistryConfig{BudgetBytes: 1})
	v, err := r.Get(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if v == nil || !r.Resident("a") {
		t.Fatal("venue bigger than budget refused to load")
	}
}

// TestRegistrySingleflight proves a thundering herd on one cold venue builds
// its dictionaries exactly once: every waiter gets the same *Venue and the
// miss counter moves once.
func TestRegistrySingleflight(t *testing.T) {
	r := NewRegistry(testManifest("hq"), RegistryConfig{})
	const herd = 16
	got := make([]*Venue, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := r.Get(context.Background(), "hq")
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = v
		}(i)
	}
	wg.Wait()
	for i := 1; i < herd; i++ {
		if got[i] != got[0] {
			t.Fatalf("waiter %d got a different venue instance", i)
		}
	}
	if st := r.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 build for the herd", st.Misses)
	}
}

// TestRegistryColdLoadRaceHammer churns concurrent Gets across venues under
// a budget that forces constant eviction — the -race gate's target for the
// cache's locking discipline.
func TestRegistryColdLoadRaceHammer(t *testing.T) {
	one, err := Build(smokeSpec("probe"), BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"a", "b", "c", "d"}
	r := NewRegistry(testManifest(ids...), RegistryConfig{BudgetBytes: 2 * one.Bytes})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				id := ids[(g+i)%len(ids)]
				if _, err := r.Get(context.Background(), id); err != nil {
					t.Errorf("get %s: %v", id, err)
					return
				}
				if i%5 == g%5 {
					r.Invalidate(id)
				}
			}
		}(g)
	}
	wg.Wait()
	if !r.WaitIdle(0) {
		t.Fatal("loads still in flight after hammer")
	}
	st := r.Stats()
	if st.Bytes > r.Budget() && st.Resident > 1 {
		t.Fatalf("over budget with %d resident: %+v", st.Resident, st)
	}
}

// TestEvictReloadBitIdentical is the dictionary-rebuild determinism gate:
// localizing the same request on a venue, evicting it, and localizing again
// on the reloaded venue must reproduce bit-identical positions and AoAs —
// eviction must never change answers, only latency.
func TestEvictReloadBitIdentical(t *testing.T) {
	r := NewRegistry(testManifest("hq"), RegistryConfig{})
	ctx := context.Background()
	spec := smokeSpec("hq")
	reqs, _, err := spec.Deployment().BatchRequests(3, 2, testbed.ScenarioConfig{}, 42)
	if err != nil {
		t.Fatal(err)
	}

	solve := func() []*core.LocalizeResult {
		v, err := r.Get(ctx, "hq")
		if err != nil {
			t.Fatal(err)
		}
		out := make([]*core.LocalizeResult, len(reqs))
		for i, req := range reqs {
			res, err := v.Engine.Localize(context.Background(), req)
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			out[i] = res
		}
		return out
	}

	before := solve()
	r.Invalidate("hq")
	if r.Resident("hq") {
		t.Fatal("invalidate left venue resident")
	}
	after := solve()
	if st := r.Stats(); st.Misses != 2 {
		t.Fatalf("misses = %d, want a rebuild after eviction", st.Misses)
	}

	for i := range before {
		b, a := before[i], after[i]
		if b.Position != a.Position {
			t.Fatalf("request %d: position %+v != %+v after reload", i, b.Position, a.Position)
		}
		if len(b.Links) != len(a.Links) {
			t.Fatalf("request %d: link count changed", i)
		}
		for j := range b.Links {
			if math.Float64bits(b.Links[j].AoADeg) != math.Float64bits(a.Links[j].AoADeg) {
				t.Fatalf("request %d link %d: AoA %v != %v after reload",
					i, j, b.Links[j].AoADeg, a.Links[j].AoADeg)
			}
		}
	}
}
