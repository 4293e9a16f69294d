package venue

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"roarray/internal/obs"
)

// ErrUnknownVenue marks requests for venue IDs absent from the registry's
// manifest. Callers match it with errors.Is to map the failure to a 404
// rather than a server fault.
var ErrUnknownVenue = errors.New("venue: unknown venue")

// RegistryConfig parameterizes a Registry.
type RegistryConfig struct {
	// BudgetBytes bounds the total estimator footprint of resident shapes:
	// venues of one estimation shape share one engine, so they are charged
	// once. The budget floors at one shape: a shape larger than the budget
	// still loads (and is the only resident), because refusing to serve its
	// venues would be strictly worse than briefly exceeding the budget.
	// <= 0 selects 256 MiB.
	BudgetBytes int64
	// Build parameterizes shape loads (worker pool, solve profile, metrics).
	Build BuildConfig
	// Metrics receives the venue.cache.* counters and gauges, which Stats
	// reads back, so one obs registry serves one Registry; nil keeps them
	// in a private registry.
	Metrics *obs.Registry
}

// registryMetrics holds the cache's metric handles; NewRegistry always
// builds it, on RegistryConfig.Metrics or on a private registry.
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
		reg = obs.NewRegistry()
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

// residentShape is one cached engine plus its LRU key.
type residentShape struct {
	key shape
	v   *Venue
}

// inflight is one in-progress load: followers wait on done instead of
// building the same dictionaries concurrently (singleflight semantics).
type inflight struct {
	done chan struct{}
	v    *Venue
	err  error
}

// Stats is a point-in-time snapshot of the cache counters. Misses, evictions
// and the resident count and bytes are of shapes, not venues.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Dedups    int64
	Resident  int
	Bytes     int64
}

// Registry resolves venue IDs to loaded engines, keeping at most BudgetBytes
// of estimator state resident. The cache is keyed by estimation shape, so
// every venue of one shape gets the same engine from one build. Lookups are
// lock-cheap; a miss builds the shape outside the lock with singleflight
// dedup, then installs it and evicts coldest shapes until the budget holds
// again. All methods are safe for concurrent use.
type Registry struct {
	specs  map[string]Spec
	budget int64
	bcfg   BuildConfig
	met    *registryMetrics

	mu       sync.Mutex
	cached   map[shape]*list.Element // Value is *residentShape
	lru      *list.List              // front = hottest, back = coldest
	loading  map[shape]*inflight
	resBytes int64
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
		cached:  make(map[shape]*list.Element),
		lru:     list.New(),
		loading: make(map[shape]*inflight),
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
		Hits:      r.met.hits.Value(),
		Misses:    r.met.misses.Value(),
		Evictions: r.met.evictions.Value(),
		Dedups:    r.met.dedups.Value(),
		Resident:  res,
		Bytes:     bytes,
	}
}

// Get resolves a venue ID to the engine of its shape: a resident shape is
// returned immediately (and marked hottest); an unknown ID fails with
// ErrUnknownVenue; a cold shape is built — once, on a detached goroutine,
// with every concurrent caller for any venue of that shape waiting on the
// same load — then installed, evicting coldest shapes until the budget
// holds. ctx bounds only this caller's wait, never the build: a load
// already underway completes for the next caller even when every current
// waiter gives up, and a caller arriving with a tight deadline fails fast
// with ctx.Err() instead of riding out a slow build.
func (r *Registry) Get(ctx context.Context, id string) (*Venue, error) {
	spec, ok := r.specs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownVenue, id)
	}
	key := spec.shape()

	r.mu.Lock()
	if el, ok := r.cached[key]; ok {
		r.lru.MoveToFront(el)
		r.mu.Unlock()
		r.met.hits.Inc()
		return el.Value.(*residentShape).v, nil
	}
	fl, underway := r.loading[key]
	if !underway {
		fl = &inflight{done: make(chan struct{})}
		r.loading[key] = fl
	}
	r.mu.Unlock()

	if underway {
		// A load is already underway — wait for its result instead of
		// building the same dictionaries again (the thundering-herd path).
		r.met.dedups.Inc()
	} else {
		r.met.misses.Inc()
		go r.build(spec, key, fl)
	}
	select {
	case <-fl.done:
		return fl.v, fl.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// build runs one shape load to completion and installs the result; it is
// deliberately detached from any request context so an abandoned wait never
// wastes the dictionaries it already paid for.
func (r *Registry) build(spec Spec, key shape, fl *inflight) {
	v, err := Build(spec, r.bcfg)
	r.met.loads.Inc()
	if err != nil {
		r.met.loadErrs.Inc()
	} else {
		r.met.loadSecs.Observe(v.BuildDuration.Seconds())
	}

	r.mu.Lock()
	delete(r.loading, key)
	if err == nil {
		r.cached[key] = r.lru.PushFront(&residentShape{key: key, v: v})
		r.resBytes += v.Bytes
		r.evictLocked()
		r.met.bytes.Set(float64(r.resBytes))
		r.met.resident.Set(float64(r.lru.Len()))
	}
	r.mu.Unlock()

	fl.v, fl.err = v, err
	close(fl.done)
}

// evictLocked drops coldest shapes until the budget holds, always keeping at
// least one resident (see RegistryConfig.BudgetBytes). Caller holds mu.
func (r *Registry) evictLocked() {
	for r.resBytes > r.budget && r.lru.Len() > 1 {
		rs := r.lru.Remove(r.lru.Back()).(*residentShape)
		delete(r.cached, rs.key)
		r.resBytes -= rs.v.Bytes
		r.met.evictions.Inc()
	}
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
