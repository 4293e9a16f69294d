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

// shapesManifest declares one venue per id, each of its own estimation
// shape (theta grids of 19, 21, 23, ... points on the smoke CSI layout), so
// every venue is a separate cache entry.
func shapesManifest(ids ...string) *Manifest {
	m := testManifest(ids...)
	for i := range m.Venues {
		m.Venues[i].ThetaPoints = 19 + 2*i
	}
	return m
}

// budgetForTwo is a budget that fits any two shapes of shapesManifest(n)
// and no three: twice the largest footprint.
func budgetForTwo(t *testing.T, m *Manifest) int64 {
	t.Helper()
	v, err := Build(m.Venues[len(m.Venues)-1], BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return 2 * v.Bytes
}

// TestRegistrySharesEngineByShape pins the cache key: two venues of one
// shape get the same engine from one build, however their rooms and APs
// differ, and a venue of another shape gets its own.
func TestRegistrySharesEngineByShape(t *testing.T) {
	reg := obs.NewRegistry()
	m := testManifest("hq", "lab", "big")
	m.Venues[1].Room = RoomSpec{MaxX: 12, MaxY: 9}
	m.Venues[1].APs = []APSpec{{X: 0.1, Y: 4.5, AxisDeg: 90}, {X: 11.9, Y: 4.5, AxisDeg: 90}}
	m.Venues[2].ThetaPoints = 21
	r := NewRegistry(m, RegistryConfig{Metrics: reg})
	ctx := context.Background()
	get := func(id string) *Venue {
		v, err := r.Get(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	hq, lab := get("hq"), get("lab")
	if hq.Engine != lab.Engine {
		t.Fatal("same-shape venues got different engines")
	}
	if st := r.Stats(); st.Misses != 1 || st.Hits != 1 || st.Resident != 1 || st.Bytes != hq.Bytes {
		t.Fatalf("after two same-shape venues: %+v, want one build and one hit", st)
	}
	if got := reg.Counter("venue.cache.loads_total").Value(); got != 1 {
		t.Fatalf("loads_total = %d, want 1", got)
	}

	big := get("big")
	if big.Engine == hq.Engine {
		t.Fatal("a venue of another shape shared the engine")
	}
	if got := len(big.Engine.Estimator().Config().ThetaGrid); got != 21 {
		t.Fatalf("big venue's engine has %d angles, want its own 21", got)
	}
	if st := r.Stats(); st.Misses != 2 || st.Resident != 2 || st.Bytes != hq.Bytes+big.Bytes {
		t.Fatalf("after a second shape: %+v", st)
	}
}

func TestRegistryEvictsColdestUnderBudget(t *testing.T) {
	reg := obs.NewRegistry()
	m := shapesManifest("a", "b", "c")
	r := NewRegistry(m, RegistryConfig{BudgetBytes: budgetForTwo(t, m), Metrics: reg})
	ctx := context.Background()
	get := func(id string) {
		if _, err := r.Get(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	get("a")
	get("b")
	// Touch "a" so "b" is coldest when "c" arrives.
	get("a")
	get("c")
	st := r.Stats()
	if st.Evictions != 1 || st.Resident != 2 {
		t.Fatalf("after the third shape: %+v, want 1 eviction and 2 resident", st)
	}
	if st.Bytes > r.Budget() {
		t.Fatalf("resident %d bytes over budget %d", st.Bytes, r.Budget())
	}
	// The hot shapes answer from the cache; the coldest one was evicted.
	get("a")
	get("c")
	if got := r.Stats(); got.Misses != st.Misses || got.Hits != st.Hits+2 {
		t.Fatalf("hot shapes were evicted: %+v before, %+v after", st, got)
	}
	get("b")
	if got := r.Stats(); got.Misses != st.Misses+1 {
		t.Fatalf("coldest shape b survived the over-budget load: %+v", got)
	}
	snap := reg.Snapshot()
	if got, _ := snap["venue.cache.evictions_total"].(int64); got != 2 {
		t.Fatalf("eviction counter not exported: %v", snap["venue.cache.evictions_total"])
	}
}

func TestRegistryOversizedVenueStillLoads(t *testing.T) {
	r := NewRegistry(testManifest("a"), RegistryConfig{BudgetBytes: 1})
	for i := 0; i < 2; i++ {
		if v, err := r.Get(context.Background(), "a"); err != nil || v == nil {
			t.Fatalf("venue bigger than budget refused to load: %v", err)
		}
	}
	if st := r.Stats(); st.Resident != 1 || st.Misses != 1 || st.Evictions != 0 {
		t.Fatalf("oversized shape not kept resident: %+v", st)
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

// TestRegistryColdLoadRaceHammer churns concurrent Gets across four shapes
// under a budget for two, so loads, dedups and evictions interleave — the
// -race gate's target for the cache's locking discipline.
func TestRegistryColdLoadRaceHammer(t *testing.T) {
	ids := []string{"a", "b", "c", "d"}
	m := shapesManifest(ids...)
	r := NewRegistry(m, RegistryConfig{BudgetBytes: budgetForTwo(t, m)})
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
			}
		}(g)
	}
	wg.Wait()
	if !r.WaitIdle(0) {
		t.Fatal("loads still in flight after hammer")
	}
	st := r.Stats()
	if st.Evictions == 0 {
		t.Fatalf("four shapes under a two-shape budget never evicted: %+v", st)
	}
	if st.Bytes > r.Budget() || st.Resident > 2 {
		t.Fatalf("over budget: %+v", st)
	}
}

// TestEvictReloadBitIdentical is the dictionary-rebuild determinism gate:
// localizing the same request on a venue, evicting its shape through the
// budget, and localizing again on the rebuilt engine must reproduce the
// same bits for every position and AoA — eviction must never change
// answers, only latency.
func TestEvictReloadBitIdentical(t *testing.T) {
	// A one-byte budget keeps one shape resident, so loading "lab" evicts
	// "hq" and the next "hq" request rebuilds it.
	r := NewRegistry(shapesManifest("hq", "lab"), RegistryConfig{BudgetBytes: 1})
	ctx := context.Background()
	spec := smokeSpec("hq")
	reqs, _, err := spec.Deployment().BatchRequests(3, 2, testbed.ScenarioConfig{}, 42)
	if err != nil {
		t.Fatal(err)
	}
	get := func(id string) *Venue {
		v, err := r.Get(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	solve := func(v *Venue) []*core.LocalizeResult {
		out := make([]*core.LocalizeResult, len(reqs))
		for i, req := range reqs {
			res, err := v.Engine.Localize(ctx, req)
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			out[i] = res
		}
		return out
	}

	first := get("hq")
	before := solve(first)
	get("lab")
	reloaded := get("hq")
	if reloaded == first {
		t.Fatal("hq was not evicted: the reload returned the first engine")
	}
	if st := r.Stats(); st.Misses != 3 || st.Evictions != 2 {
		t.Fatalf("stats %+v, want 3 builds and 2 evictions", st)
	}
	after := solve(reloaded)

	for i := range before {
		b, a := before[i], after[i]
		if math.Float64bits(b.Position.X) != math.Float64bits(a.Position.X) ||
			math.Float64bits(b.Position.Y) != math.Float64bits(a.Position.Y) {
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
