package obs

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"time"
)

// RuntimeSample is one point-in-time reading of the Go runtime's health:
// memory footprint, GC behavior, goroutine population, and scheduler
// latency. GC pause and scheduler-latency quantiles are computed over the
// interval since the previous sample (runtime/metrics exposes cumulative
// histograms; the collector differences them), so a spike shows up in the
// sample that covers it rather than being buried under process lifetime.
type RuntimeSample struct {
	TimeUnixNs int64 `json:"tNs"`
	// HeapBytes is live heap object memory; TotalBytes is everything the Go
	// runtime has mapped (heap, stacks, metadata).
	HeapBytes  uint64 `json:"heapBytes"`
	TotalBytes uint64 `json:"totalBytes"`
	// Goroutines is the live goroutine count.
	Goroutines int `json:"goroutines"`
	// GCCycles is the cumulative completed GC cycle count; GCCPUFraction is
	// the fraction of available CPU spent in the GC since process start.
	GCCycles      uint64  `json:"gcCycles"`
	GCCPUFraction float64 `json:"gcCpuFraction"`
	// GCPauseP50/P99 are stop-the-world pause quantiles over the sampling
	// interval (seconds; 0 when no pauses occurred in the interval).
	GCPauseP50 float64 `json:"gcPauseP50"`
	GCPauseP99 float64 `json:"gcPauseP99"`
	// SchedLatencyP50/P99 are goroutine scheduling-latency quantiles (time
	// spent runnable before running) over the sampling interval, seconds.
	SchedLatencyP50 float64 `json:"schedLatP50"`
	SchedLatencyP99 float64 `json:"schedLatP99"`
}

// runtime/metrics names the collector reads every sample.
const (
	rmHeapBytes  = "/memory/classes/heap/objects:bytes"
	rmTotalBytes = "/memory/classes/total:bytes"
	rmGoroutines = "/sched/goroutines:goroutines"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmGCPauses   = "/gc/pauses:seconds"
	rmSchedLat   = "/sched/latencies:seconds"
	rmGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU   = "/cpu/classes/total:cpu-seconds"
)

// runtimeHistorySamples bounds the collector's in-memory sample ring — at the
// default 1 s trigger cadence this is two minutes of history, which is what a
// diagnostic bundle ships as the "trend leading into the anomaly".
const runtimeHistorySamples = 120

// RuntimeCollector samples runtime/metrics into an obs Registry as runtime.*
// gauges and keeps a bounded ring of recent samples for diagnostic bundles.
// Registered as a snapshot hook, it refreshes on every /metrics scrape; the
// trigger engine additionally samples it on its own cadence. Samples within
// minInterval of each other are coalesced (the previous sample is returned),
// so overlapping scrape and trigger cadences never double-pay the runtime
// read. A nil collector no-ops everywhere.
type RuntimeCollector struct {
	minInterval time.Duration

	mu      sync.Mutex
	descs   []rtmetrics.Sample
	last    RuntimeSample
	lastAt  time.Time
	history []RuntimeSample // ring, history[head] is the oldest when full
	head    int
	filled  bool
	// prev* retain the previous cumulative histogram state for differencing.
	prevGCPause  *rtmetrics.Float64Histogram
	prevSchedLat *rtmetrics.Float64Histogram

	gHeap, gTotal, gGoroutines, gGCCycles, gGCCPU *Gauge
	gPauseP50, gPauseP99, gSchedP50, gSchedP99    *Gauge
}

// NewRuntimeCollector returns a collector bound to reg (nil reg disables the
// gauge export but sampling still works). minInterval coalesces samples
// closer together than it; <= 0 selects 100 ms. The collector registers a
// snapshot hook so every /metrics scrape sees fresh runtime.* values:
//
//	runtime.heap_bytes, runtime.total_bytes, runtime.goroutines
//	runtime.gc_cycles_total, runtime.gc_cpu_fraction
//	runtime.gc_pause_p50_seconds, runtime.gc_pause_p99_seconds
//	runtime.sched_latency_p50_seconds, runtime.sched_latency_p99_seconds
func NewRuntimeCollector(reg *Registry, minInterval time.Duration) *RuntimeCollector {
	if minInterval <= 0 {
		minInterval = 100 * time.Millisecond
	}
	c := &RuntimeCollector{
		minInterval: minInterval,
		history:     make([]RuntimeSample, runtimeHistorySamples),
		descs: []rtmetrics.Sample{
			{Name: rmHeapBytes}, {Name: rmTotalBytes}, {Name: rmGoroutines},
			{Name: rmGCCycles}, {Name: rmGCPauses}, {Name: rmSchedLat},
			{Name: rmGCCPU}, {Name: rmTotalCPU},
		},
	}
	if reg != nil {
		c.gHeap = reg.Gauge("runtime.heap_bytes")
		c.gTotal = reg.Gauge("runtime.total_bytes")
		c.gGoroutines = reg.Gauge("runtime.goroutines")
		c.gGCCycles = reg.Gauge("runtime.gc_cycles_total")
		c.gGCCPU = reg.Gauge("runtime.gc_cpu_fraction")
		c.gPauseP50 = reg.Gauge("runtime.gc_pause_p50_seconds")
		c.gPauseP99 = reg.Gauge("runtime.gc_pause_p99_seconds")
		c.gSchedP50 = reg.Gauge("runtime.sched_latency_p50_seconds")
		c.gSchedP99 = reg.Gauge("runtime.sched_latency_p99_seconds")
		reg.OnSnapshot(func() { c.Sample() })
	}
	return c
}

// Sample reads the runtime and returns the fresh (or coalesced) sample,
// updating the bound gauges and the history ring. Safe on nil (zero sample)
// and for concurrent use.
func (c *RuntimeCollector) Sample() RuntimeSample {
	if c == nil {
		return RuntimeSample{}
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.lastAt.IsZero() && now.Sub(c.lastAt) < c.minInterval {
		return c.last
	}
	rtmetrics.Read(c.descs)
	s := RuntimeSample{TimeUnixNs: now.UnixNano(), Goroutines: runtime.NumGoroutine()}
	var gcCPU, totalCPU float64
	for i := range c.descs {
		d := &c.descs[i]
		switch d.Name {
		case rmHeapBytes:
			s.HeapBytes = kindUint64(d)
		case rmTotalBytes:
			s.TotalBytes = kindUint64(d)
		case rmGoroutines:
			if n := kindUint64(d); n > 0 {
				s.Goroutines = int(n)
			}
		case rmGCCycles:
			s.GCCycles = kindUint64(d)
		case rmGCPauses:
			if h := kindHist(d); h != nil {
				s.GCPauseP50, s.GCPauseP99 = intervalQuantiles(h, c.prevGCPause)
				c.prevGCPause = cloneHist(h)
			}
		case rmSchedLat:
			if h := kindHist(d); h != nil {
				s.SchedLatencyP50, s.SchedLatencyP99 = intervalQuantiles(h, c.prevSchedLat)
				c.prevSchedLat = cloneHist(h)
			}
		case rmGCCPU:
			gcCPU = kindFloat64(d)
		case rmTotalCPU:
			totalCPU = kindFloat64(d)
		}
	}
	if totalCPU > 0 {
		s.GCCPUFraction = gcCPU / totalCPU
	}
	c.last, c.lastAt = s, now
	c.history[c.head] = s
	c.head = (c.head + 1) % len(c.history)
	if c.head == 0 {
		c.filled = true
	}
	c.gHeap.Set(float64(s.HeapBytes))
	c.gTotal.Set(float64(s.TotalBytes))
	c.gGoroutines.Set(float64(s.Goroutines))
	c.gGCCycles.Set(float64(s.GCCycles))
	c.gGCCPU.Set(s.GCCPUFraction)
	c.gPauseP50.Set(s.GCPauseP50)
	c.gPauseP99.Set(s.GCPauseP99)
	c.gSchedP50.Set(s.SchedLatencyP50)
	c.gSchedP99.Set(s.SchedLatencyP99)
	return s
}

// History returns the retained samples, oldest first — the runtime trend a
// diagnostic bundle ships. Nil collector returns nil.
func (c *RuntimeCollector) History() []RuntimeSample {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.filled {
		return append([]RuntimeSample(nil), c.history[:c.head]...)
	}
	out := make([]RuntimeSample, 0, len(c.history))
	out = append(out, c.history[c.head:]...)
	out = append(out, c.history[:c.head]...)
	return out
}

func kindUint64(s *rtmetrics.Sample) uint64 {
	if s.Value.Kind() == rtmetrics.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}

func kindFloat64(s *rtmetrics.Sample) float64 {
	if s.Value.Kind() == rtmetrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

func kindHist(s *rtmetrics.Sample) *rtmetrics.Float64Histogram {
	if s.Value.Kind() == rtmetrics.KindFloat64Histogram {
		return s.Value.Float64Histogram()
	}
	return nil
}

func cloneHist(h *rtmetrics.Float64Histogram) *rtmetrics.Float64Histogram {
	return &rtmetrics.Float64Histogram{
		Counts:  append([]uint64(nil), h.Counts...),
		Buckets: append([]float64(nil), h.Buckets...),
	}
}

// intervalQuantiles computes the p50/p99 of cur minus prev (prev nil means
// "since process start"). runtime/metrics histograms have len(Buckets) ==
// len(Counts)+1 (Buckets are bucket edges); the estimate takes each bucket's
// upper edge, the usual conservative fixed-bucket quantile. Buckets with an
// infinite upper edge fall back to their finite lower edge.
func intervalQuantiles(cur, prev *rtmetrics.Float64Histogram) (p50, p99 float64) {
	counts := make([]uint64, len(cur.Counts))
	var total uint64
	for i, n := range cur.Counts {
		d := n
		if prev != nil && i < len(prev.Counts) && prev.Counts[i] <= n {
			d = n - prev.Counts[i]
		}
		counts[i] = d
		total += d
	}
	if total == 0 {
		return 0, 0
	}
	quant := func(p float64) float64 {
		rank := p * float64(total)
		var cum uint64
		for i, n := range counts {
			cum += n
			if float64(cum) >= rank && n > 0 {
				edge := cur.Buckets[i+1]
				if edge > 1e300 || edge != edge { // +Inf upper edge
					edge = cur.Buckets[i]
				}
				return edge
			}
		}
		return cur.Buckets[len(cur.Buckets)-1]
	}
	return quant(0.50), quant(0.99)
}
