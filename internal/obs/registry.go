// Package obs is the pipeline-wide observability layer: a concurrent
// metrics registry (counters, gauges, fixed-bucket histograms) with an
// expvar-compatible JSON snapshot, span-based stage tracing that streams
// JSONL events, and an optional debug HTTP server exposing /metrics,
// /debug/vars, and net/http/pprof.
//
// Everything is stdlib-only and nil-safe: a nil *Registry hands out nil
// metric handles whose record methods are no-ops, so instrumented hot paths
// pay a single pointer check when observability is disabled. Handles are
// intended to be resolved once at construction time (e.g. when an Estimator
// or Solver is built) and recorded against from any number of goroutines.
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n and returns the new count, so a counter
// can also number the events it counts. Safe on a nil receiver (a no-op
// returning 0).
func (c *Counter) Add(n int64) int64 {
	if c == nil {
		return 0
	}
	return c.v.Add(n)
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float value (queue depths, wait times, ...).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. Safe on a nil receiver (no-op).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 for a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bucket i holds
// observations v with v <= Bounds[i] (and v > Bounds[i-1]); one implicit
// overflow bucket catches everything above the last bound. All methods are
// safe for concurrent use; only the exemplar ids sit behind locks.
type Histogram struct {
	bounds  []float64 // ascending upper bounds
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
	// exemplars[i] names the most recent request whose observation landed
	// in bucket i (empty until a request-attributed observation arrives), so
	// a slow bucket in /metrics points at a concrete trace to pull.
	exemplars []exemplar
}

// exemplar is one bucket's most recent request id, copied under the
// bucket's own lock into a fixed slot so that recording it allocates
// nothing. The slot is allocated at the bucket's first attributed
// observation, so buckets that never get one cost no more than the lock.
type exemplar struct {
	mu  sync.Mutex
	n   int // length of the id in buf
	buf *[MaxRequestIDLen]byte
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{
		bounds:    bs,
		counts:    make([]atomic.Int64, len(bs)+1),
		exemplars: make([]exemplar, len(bs)+1),
	}
}

// Observe records one value. Safe on a nil receiver (no-op).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound is >= v; len(bounds) is the overflow.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveExemplar is Observe plus exemplar attribution: when id is non-empty
// the bucket the value lands in retains id, cut to MaxRequestIDLen bytes, as
// its most recent exemplar (last-writer-wins). With an empty id it is
// exactly Observe, so call sites can pass RequestIDFrom(ctx) unconditionally.
func (h *Histogram) ObserveExemplar(v float64, id string) {
	if h == nil {
		return
	}
	if id != "" {
		ex := &h.exemplars[sort.SearchFloat64s(h.bounds, v)]
		ex.mu.Lock()
		if ex.buf == nil {
			ex.buf = new([MaxRequestIDLen]byte)
		}
		ex.n = copy(ex.buf[:], id)
		ex.mu.Unlock()
	}
	h.Observe(v)
}

// id returns the exemplar's request id ("" = none).
func (ex *exemplar) id() string {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.buf == nil {
		return ""
	}
	return string(ex.buf[:ex.n])
}

// Count returns the total number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the p-quantile (0 <= p <= 1) from the bucket counts by
// linear interpolation within the bucket holding the target rank: the usual
// fixed-bucket estimate, exact only at bucket boundaries. The first bucket
// interpolates from 0, and the overflow bucket pins to the last bound (no
// upper edge to interpolate toward). NaN when empty or p is out of range.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil || p < 0 || p > 1 {
		return math.NaN()
	}
	total := h.count.Load()
	if total == 0 || len(h.bounds) == 0 {
		return math.NaN()
	}
	rank := p * float64(total)
	var cum int64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			if i == len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			return lo + (h.bounds[i]-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// HistogramSnapshot is the JSON shape of one histogram: per-bucket counts
// aligned with Bounds, plus one trailing overflow count. P50/P95 are
// bucket-interpolated quantile estimates (0 when the histogram is empty).
// Exemplars, when present, aligns with Counts: Exemplars[i] is the request
// ID of the most recent attributed observation in bucket i ("" = none).
type HistogramSnapshot struct {
	Bounds    []float64 `json:"bounds"`
	Counts    []int64   `json:"counts"`
	Count     int64     `json:"count"`
	Sum       float64   `json:"sum"`
	P50       float64   `json:"p50"`
	P95       float64   `json:"p95"`
	Exemplars []string  `json:"exemplars,omitempty"`
}

// Snapshot returns a point-in-time copy of the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		if id := h.exemplars[i].id(); id != "" {
			if s.Exemplars == nil {
				s.Exemplars = make([]string, len(h.counts))
			}
			s.Exemplars[i] = id
		}
	}
	// NaN is not valid JSON; an empty histogram snapshots quantiles as 0.
	if s.Count > 0 {
		s.P50 = h.Quantile(0.5)
		s.P95 = h.Quantile(0.95)
	}
	return s
}

// Quantile estimates the p-quantile from the snapshot's bucket counts with
// the same interpolation Histogram.Quantile uses — so offline consumers
// (roastat, including on differenced snapshots) compute quantiles exactly
// the way the live registry would. NaN when empty or p is out of range.
func (s HistogramSnapshot) Quantile(p float64) float64 {
	if p < 0 || p > 1 || s.Count <= 0 || len(s.Bounds) == 0 {
		return math.NaN()
	}
	rank := p * float64(s.Count)
	var cum int64
	for i, n := range s.Counts {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			if i == len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			return lo + (s.Bounds[i]-lo)*frac
		}
		cum += n
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Sub returns the interval histogram snapshot - prev: per-bucket count
// deltas (clamped at zero against restarts), with P50/P95 recomputed over
// the interval and exemplars taken from the newer snapshot. It is how a
// poller turns two cumulative snapshots into "what happened in between".
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{
		Bounds:    append([]float64(nil), s.Bounds...),
		Counts:    make([]int64, len(s.Counts)),
		Sum:       s.Sum - prev.Sum,
		Exemplars: s.Exemplars,
	}
	for i, n := range s.Counts {
		d := n
		if i < len(prev.Counts) && len(prev.Bounds) == len(s.Bounds) {
			d -= prev.Counts[i]
		}
		if d < 0 {
			d = 0
		}
		out.Counts[i] = d
		out.Count += d
	}
	if out.Count > 0 {
		out.P50 = out.Quantile(0.5)
		out.P95 = out.Quantile(0.95)
	} else {
		out.Sum = 0
	}
	return out
}

// ExpBuckets returns n upper bounds start, start*factor, start*factor^2, ...
// — the usual latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n upper bounds start, start+width, start+2*width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// Registry is a concurrent, name-addressed collection of metrics. The zero
// value is not usable; call NewRegistry. A nil *Registry is the disabled
// fast path: every lookup returns a nil handle whose methods no-op.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	hookMu sync.Mutex
	hooks  []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil (no-op) handle.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (later calls reuse the existing buckets and
// ignore bounds). Empty bounds select a 1ms..~65s exponential latency
// ladder. A nil registry returns a nil (no-op) handle.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	if len(bounds) == 0 {
		bounds = ExpBuckets(0.001, 2, 17)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot returns a point-in-time flat map of every metric: counters as
// int64, gauges as float64, histograms as HistogramSnapshot. The map is
// freshly allocated and safe to mutate or marshal. A nil registry returns
// nil.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	r.runHooks()
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name] = h.Snapshot()
	}
	return out
}

// OnSnapshot registers fn to run at the start of every Snapshot (and
// therefore every /metrics scrape), before metric values are read. It is
// how pull-refreshed state — the SLO rolling windows — stays current even
// when no traffic has arrived since the last request. Hooks run outside the
// registry's read lock and must not call Snapshot themselves. Nil-safe.
func (r *Registry) OnSnapshot(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.hookMu.Lock()
	r.hooks = append(r.hooks, fn)
	r.hookMu.Unlock()
}

// runHooks runs the registered snapshot hooks, serialized so hooks never
// race themselves across concurrent scrapes.
func (r *Registry) runHooks() {
	r.hookMu.Lock()
	defer r.hookMu.Unlock()
	for _, fn := range r.hooks {
		fn()
	}
}

// WriteJSON writes the snapshot as one indented JSON object — the /metrics
// payload.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	if snap == nil {
		snap = map[string]any{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// PublishExpvar exposes the registry under the given expvar name so it
// appears in /debug/vars alongside cmdline and memstats. Publishing the
// same name twice is a no-op (expvar itself panics on duplicates); the
// first registry published under a name wins.
func (r *Registry) PublishExpvar(name string) {
	if r == nil || name == "" {
		return
	}
	publishMu.Lock()
	defer publishMu.Unlock()
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

var publishMu sync.Mutex

// String renders a terse one-line summary, handy in logs.
func (r *Registry) String() string {
	if r == nil {
		return "obs.Registry(nil)"
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return fmt.Sprintf("obs.Registry(%d counters, %d gauges, %d histograms)",
		len(r.counters), len(r.gauges), len(r.hists))
}
