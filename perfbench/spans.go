package main

import (
	"sort"
	"strings"
	"sync"

	"roarray/internal/obs"
)

// spanLog keeps every span a traced pass emits in memory: the program's own
// spans (localize, estimate.*, localize.grid, ...) and the benchmark's spans
// around its calls into each layer. It is attached as an obs.Tracer mirror.
type spanLog struct {
	mu    sync.Mutex
	spans []obs.SpanEvent
}

func (l *spanLog) add(ev obs.SpanEvent) {
	l.mu.Lock()
	l.spans = append(l.spans, ev)
	l.mu.Unlock()
}

func (l *spanLog) events() []obs.SpanEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]obs.SpanEvent(nil), l.spans...)
}

// Benchmark span names, one per public entry point the decomposed replay
// calls. The program's own spans nest under them.
const (
	spanFix      = "fix"
	spanDecode   = "serve.decode"  // json.Unmarshal + Request.ToCore
	spanEncode   = "serve.encode"  // json.Marshal of the response
	spanVenueGet = "venue.get"     // venue.Registry.Get
	spanSanitize = "core.sanitize" // core.SanitizeBurst
	spanEstimate = "core.estimate" // Estimator.EstimateJointFusedInfoCtx
	spanPeak     = "core.peak"     // Estimator.DirectPath
	spanSearch   = "search"        // core.LocalizeSearchCtx
	spanPredict  = "track.predict" // Tracker.PredictWindow
	spanVerify   = "track.verify"  // Tracker.NISAt on a windowed fix
	spanUpdate   = "track.update"  // Tracker.Update
	layerUnattr  = "unattributed"  // the fix root's own time
	layerSparse  = "sparse"        // estimate.solve and its fallback
	layerCore    = "core"          // sanitize, dictionary, fusion, peak
	layerServe   = "serve"         // wire decode and encode
	layerVenue   = "venue"         // registry lookups and cold loads
	layerSearch  = "search"        // Eq. 19 grid search
	layerTrack   = "track"         // predict, verify, update
)

// layers lists the self-time buckets in report order.
var layers = []string{layerServe, layerVenue, layerCore, layerSparse, layerSearch, layerTrack, layerUnattr}

// layerOf maps a span name to the layer its self time is billed to.
func layerOf(name string) string {
	switch {
	case name == spanFix:
		return layerUnattr
	case name == "estimate.solve" || name == "estimate.fallback":
		return layerSparse
	case strings.HasPrefix(name, "serve."):
		return layerServe
	case strings.HasPrefix(name, "venue."):
		return layerVenue
	case name == spanSearch || strings.HasPrefix(name, "localize.grid"):
		return layerSearch
	case strings.HasPrefix(name, "track."):
		return layerTrack
	default:
		return layerCore
	}
}

// selfTimes computes every span's self time: its duration minus the part
// of it its children cover. Children of one parent in the decomposed replay
// run one after another, so their durations add without overlap.
func selfTimes(evs []obs.SpanEvent) map[uint64]int64 {
	self := make(map[uint64]int64, len(evs))
	for _, ev := range evs {
		self[ev.Span] += ev.DurNs
	}
	for _, ev := range evs {
		if ev.Parent != 0 {
			if _, ok := self[ev.Parent]; ok {
				self[ev.Parent] -= ev.DurNs
			}
		}
	}
	for id, v := range self {
		if v < 0 {
			self[id] = 0
		}
	}
	return self
}

// breakdown is the decomposed replay's time accounting.
type breakdown struct {
	fixes    int
	links    int
	rootNs   int64            // total duration of the fix roots
	layerNs  map[string]int64 // self time by layer
	byNameNs map[string]int64 // self time by span name
	count    map[string]int   // spans by name
	// The venue cache's cold loads in the replay: median build time and the
	// p99 of how long Registry.Get waited for one (zero without venues).
	venueBuildMsP50, venueLoadWaitMsP99 float64
}

// attribute folds the spans under the replay's fix roots into per-layer self
// times. Spans outside any fix root (none are expected) are ignored.
func attribute(evs []obs.SpanEvent, fixes, links int) breakdown {
	b := breakdown{fixes: fixes, links: links, layerNs: map[string]int64{}, byNameNs: map[string]int64{}, count: map[string]int{}}
	roots := map[uint64]bool{}
	for _, ev := range evs {
		if ev.Name == spanFix && ev.Parent == 0 {
			roots[ev.Trace] = true
			b.rootNs += ev.DurNs
		}
	}
	self := selfTimes(evs)
	for _, ev := range evs {
		if !roots[ev.Trace] {
			continue
		}
		b.layerNs[layerOf(ev.Name)] += self[ev.Span]
		b.byNameNs[ev.Name] += self[ev.Span]
		b.count[ev.Name]++
	}
	return b
}

// perFixMs is a layer's self time per fix in milliseconds.
func (b breakdown) perFixMs(layer string) float64 {
	return ratio(float64(b.layerNs[layer])/1e6, float64(b.fixes))
}

// perLinkMs is the named span's self time per link in milliseconds.
func (b breakdown) perLinkMs(names ...string) float64 {
	var ns int64
	for _, n := range names {
		ns += b.byNameNs[n]
	}
	return ratio(float64(ns)/1e6, float64(b.links))
}

// perFixNamedMs is the named span's self time per fix in milliseconds.
func (b breakdown) perFixNamedMs(names ...string) float64 {
	var ns int64
	for _, n := range names {
		ns += b.byNameNs[n]
	}
	return ratio(float64(ns)/1e6, float64(b.fixes))
}

// workerIdle reads Engine.Map's idle share from the program's spans. A
// server flush fans a micro-batch's requests over the engine's workers
// inside a "localize.batch" span; it occupies up to workers goroutines from
// its start to its last request's end, of which the requests'
// "localize.req<i>" spans are the busy part. Requests are matched to the
// flush whose interval holds their start, because a served request's span
// hangs off the request's own context rather than the batch span. Flushes
// never overlap: a server lane flushes one batch at a time.
func workerIdle(evs []obs.SpanEvent, workers int) float64 {
	type flush struct {
		start, end int64 // end: the last request's end
		busy       int64
		requests   int
	}
	var fans []*flush
	for _, ev := range evs {
		if ev.Name == "localize.batch" {
			fans = append(fans, &flush{start: ev.StartUnixNs})
		}
	}
	sort.Slice(fans, func(i, j int) bool { return fans[i].start < fans[j].start })
	for _, ev := range evs {
		if !strings.HasPrefix(ev.Name, "localize.req") {
			continue
		}
		i := sort.Search(len(fans), func(i int) bool { return fans[i].start > ev.StartUnixNs }) - 1
		if i < 0 {
			continue
		}
		f := fans[i]
		f.busy += ev.DurNs
		f.requests++
		f.end = max(f.end, ev.StartUnixNs+ev.DurNs)
	}
	var busy, capacity float64
	for _, f := range fans {
		if f.requests == 0 {
			continue
		}
		busy += float64(f.busy)
		capacity += float64(min(workers, f.requests)) * float64(f.end-f.start)
	}
	if capacity == 0 {
		return 0
	}
	return max(0, 1-busy/capacity)
}
