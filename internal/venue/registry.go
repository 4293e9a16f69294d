package venue

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"roarray/internal/obs"
)

// ErrUnknownVenue marks requests for venue IDs absent from the registry's
// manifest. Callers match it with errors.Is to map the failure to a 404
// rather than a server fault.
var ErrUnknownVenue = errors.New("venue: unknown venue")

// RegistryConfig parameterizes a Registry.
type RegistryConfig struct {
	// BudgetBytes bounds the total estimator footprint of resident venues.
	// The budget floors at one venue: a single venue larger than the budget
	// still loads (and is the only resident), because refusing to serve any
	// venue would be strictly worse than briefly exceeding the budget.
	// <= 0 selects 256 MiB.
	BudgetBytes int64
	// Build parameterizes venue loads (worker pool, solve profile, metrics).
	Build BuildConfig
	// Metrics, when non-nil, receives the venue.cache.* counters and gauges.
	Metrics *obs.Registry
}

// registryMetrics caches the cache's metric handles (nil when disabled).
type registryMetrics struct {
	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	dedups    *obs.Counter
	loads     *obs.Counter
	loadErrs  *obs.Counter
	bytes     *obs.Gauge
	resident  *obs.Gauge
	loadSecs  *obs.Histogram
}

func newRegistryMetrics(reg *obs.Registry) *registryMetrics {
	if reg == nil {
		return nil
	}
	return &registryMetrics{
		hits:      reg.Counter("venue.cache.hits_total"),
		misses:    reg.Counter("venue.cache.misses_total"),
		evictions: reg.Counter("venue.cache.evictions_total"),
		dedups:    reg.Counter("venue.cache.load_dedup_total"),
		loads:     reg.Counter("venue.cache.loads_total"),
		loadErrs:  reg.Counter("venue.cache.load_errors_total"),
		bytes:     reg.Gauge("venue.cache.bytes"),
		resident:  reg.Gauge("venue.cache.resident"),
		loadSecs:  reg.Histogram("venue.cache.load.seconds", obs.ExpBuckets(0.001, 2, 14)...),
	}
}

// resident is one cached venue plus its LRU bookkeeping.
type residentVenue struct {
	id string
	v  *Venue
}

// inflight is one in-progress load: followers wait on done instead of
// building the same dictionaries concurrently (singleflight semantics).
type inflight struct {
	done chan struct{}
	v    *Venue
	err  error
}

// Stats is a point-in-time snapshot of the cache counters, available even
// without a metrics registry (tests and the drain report use it).
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Dedups    int64
	Resident  int
	Bytes     int64
}

// Registry resolves venue IDs to loaded venues, keeping at most BudgetBytes
// of estimator state resident. Lookups are lock-cheap; a miss builds the
// venue outside the lock with singleflight dedup, then installs it and
// evicts coldest venues until the budget holds again. All methods are safe
// for concurrent use.
type Registry struct {
	specs  map[string]Spec
	budget int64
	bcfg   BuildConfig
	met    *registryMetrics

	mu       sync.Mutex
	cached   map[string]*list.Element // id -> element whose Value is *residentVenue
	lru      *list.List               // front = hottest, back = coldest
	loading  map[string]*inflight
	resBytes int64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	dedups    atomic.Int64
}

// NewRegistry builds a registry over the manifest's venues. The manifest
// must already be validated (DecodeManifest does this).
func NewRegistry(m *Manifest, cfg RegistryConfig) *Registry {
	if cfg.BudgetBytes <= 0 {
		cfg.BudgetBytes = 256 << 20
	}
	specs := make(map[string]Spec, len(m.Venues))
	for _, s := range m.Venues {
		specs[s.ID] = s
	}
	bcfg := cfg.Build
	if bcfg.Metrics == nil {
		bcfg.Metrics = cfg.Metrics
	}
	return &Registry{
		specs:   specs,
		budget:  cfg.BudgetBytes,
		bcfg:    bcfg,
		met:     newRegistryMetrics(cfg.Metrics),
		cached:  make(map[string]*list.Element),
		lru:     list.New(),
		loading: make(map[string]*inflight),
	}
}

// IDs returns the manifest's venue IDs, sorted.
func (r *Registry) IDs() []string {
	out := make([]string, 0, len(r.specs))
	for id := range r.specs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Budget returns the configured resident-bytes bound.
func (r *Registry) Budget() int64 { return r.budget }

// Stats snapshots the cache counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	res, bytes := r.lru.Len(), r.resBytes
	r.mu.Unlock()
	return Stats{
		Hits:      r.hits.Load(),
		Misses:    r.misses.Load(),
		Evictions: r.evictions.Load(),
		Dedups:    r.dedups.Load(),
		Resident:  res,
		Bytes:     bytes,
	}
}

// Get resolves a venue ID: a resident venue is returned immediately (and
// marked hottest); an unknown ID fails with ErrUnknownVenue; a cold venue is
// built — once, on a detached goroutine, with every concurrent caller
// waiting on the same load — then installed, evicting coldest venues until
// the budget holds. ctx bounds only this caller's wait, never the build: a
// load already underway completes for the next caller even when every
// current waiter gives up, and a caller arriving with a tight deadline
// fails fast with ctx.Err() instead of riding out a slow build.
func (r *Registry) Get(ctx context.Context, id string) (*Venue, error) {
	spec, ok := r.specs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownVenue, id)
	}

	r.mu.Lock()
	if el, ok := r.cached[id]; ok {
		r.lru.MoveToFront(el)
		r.mu.Unlock()
		r.hits.Add(1)
		if r.met != nil {
			r.met.hits.Inc()
		}
		return el.Value.(*residentVenue).v, nil
	}
	fl, underway := r.loading[id]
	if !underway {
		fl = &inflight{done: make(chan struct{})}
		r.loading[id] = fl
	}
	r.mu.Unlock()

	if underway {
		// A load is already underway — wait for its result instead of
		// building the same dictionaries again (the thundering-herd path).
		r.dedups.Add(1)
		if r.met != nil {
			r.met.dedups.Inc()
		}
	} else {
		r.misses.Add(1)
		if r.met != nil {
			r.met.misses.Inc()
		}
		go r.build(spec, fl)
	}
	select {
	case <-fl.done:
		return fl.v, fl.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// build runs one venue load to completion and installs the result; it is
// deliberately detached from any request context so an abandoned wait never
// wastes the dictionaries it already paid for.
func (r *Registry) build(spec Spec, fl *inflight) {
	v, err := Build(spec, r.bcfg)
	if r.met != nil {
		r.met.loads.Inc()
		if err != nil {
			r.met.loadErrs.Inc()
		} else {
			r.met.loadSecs.Observe(v.BuildDuration.Seconds())
		}
	}

	r.mu.Lock()
	delete(r.loading, spec.ID)
	if err == nil {
		el := r.lru.PushFront(&residentVenue{id: spec.ID, v: v})
		r.cached[spec.ID] = el
		r.resBytes += v.Bytes
		r.evictLocked()
		r.publishLocked()
	}
	r.mu.Unlock()

	fl.v, fl.err = v, err
	close(fl.done)
}

// evictLocked drops coldest venues until the budget holds, always keeping at
// least one resident venue (see RegistryConfig.BudgetBytes). Caller holds mu.
func (r *Registry) evictLocked() {
	for r.resBytes > r.budget && r.lru.Len() > 1 {
		el := r.lru.Back()
		rv := el.Value.(*residentVenue)
		r.lru.Remove(el)
		delete(r.cached, rv.id)
		r.resBytes -= rv.v.Bytes
		r.evictions.Add(1)
		if r.met != nil {
			r.met.evictions.Inc()
		}
	}
}

// publishLocked refreshes the resident gauges. Caller holds mu.
func (r *Registry) publishLocked() {
	if r.met == nil {
		return
	}
	r.met.bytes.Set(float64(r.resBytes))
	r.met.resident.Set(float64(r.lru.Len()))
}

// Invalidate drops a venue from the cache if resident (a no-op otherwise),
// forcing the next Get to rebuild it from the same manifest spec — specs
// are fixed at NewRegistry and there is no hot spec-reload path, so this
// changes when the dictionaries are built, never what they contain (the
// rebuild-determinism gate in the tests relies on exactly that). The
// removal counts toward the eviction telemetry so the resident gauges and
// the evictions counter stay reconcilable.
func (r *Registry) Invalidate(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.cached[id]
	if !ok {
		return
	}
	rv := el.Value.(*residentVenue)
	r.lru.Remove(el)
	delete(r.cached, id)
	r.resBytes -= rv.v.Bytes
	r.evictions.Add(1)
	if r.met != nil {
		r.met.evictions.Inc()
	}
	r.publishLocked()
}

// Resident reports whether a venue is currently cached (primarily for tests
// and the drain report).
func (r *Registry) Resident(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.cached[id]
	return ok
}

// WaitIdle blocks until no loads are in flight or the timeout elapses,
// returning whether the registry went idle. Drain uses it so a process exit
// never races a dictionary build.
func (r *Registry) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		r.mu.Lock()
		n := len(r.loading)
		r.mu.Unlock()
		if n == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}
