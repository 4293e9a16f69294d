package obs

import (
	"runtime"
	"testing"
	"time"
)

func TestRuntimeCollectorSampleAndGauges(t *testing.T) {
	reg := NewRegistry()
	c := NewRuntimeCollector(reg, time.Nanosecond)

	s := c.Sample()
	if s.HeapBytes == 0 || s.TotalBytes == 0 {
		t.Fatalf("memory readings zero: %+v", s)
	}
	if s.Goroutines <= 0 {
		t.Fatalf("goroutines %d", s.Goroutines)
	}
	if s.TimeUnixNs <= 0 {
		t.Fatalf("sample time %d", s.TimeUnixNs)
	}

	// A snapshot (the /metrics scrape path) refreshes the runtime.* gauges
	// via the OnSnapshot hook.
	snap := reg.Snapshot()
	for _, name := range []string{
		"runtime.heap_bytes", "runtime.total_bytes", "runtime.goroutines",
		"runtime.gc_cycles_total", "runtime.gc_cpu_fraction",
		"runtime.gc_pause_p50_seconds", "runtime.gc_pause_p99_seconds",
		"runtime.sched_latency_p50_seconds", "runtime.sched_latency_p99_seconds",
	} {
		if _, ok := snap[name]; !ok {
			t.Fatalf("snapshot lacks %s", name)
		}
	}
	if hb := snap["runtime.heap_bytes"].(float64); hb <= 0 {
		t.Fatalf("runtime.heap_bytes gauge %v", hb)
	}
	if g := snap["runtime.goroutines"].(float64); g < 1 {
		t.Fatalf("runtime.goroutines gauge %v", g)
	}
}

func TestRuntimeCollectorGCPauseInterval(t *testing.T) {
	c := NewRuntimeCollector(nil, time.Nanosecond)
	c.Sample()
	// Force GC cycles so the interval histogram diff has pauses to quantile.
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	s := c.Sample()
	if s.GCPauseP99 < s.GCPauseP50 {
		t.Fatalf("p99 %v < p50 %v", s.GCPauseP99, s.GCPauseP50)
	}
	if s.GCPauseP99 <= 0 {
		t.Fatalf("no GC pauses observed across %d cycles", s.GCCycles)
	}
}

func TestRuntimeCollectorCoalescing(t *testing.T) {
	c := NewRuntimeCollector(nil, time.Hour)
	a := c.Sample()
	b := c.Sample()
	if a.TimeUnixNs != b.TimeUnixNs {
		t.Fatal("samples within minInterval were not coalesced")
	}
	if h := c.History(); len(h) != 1 {
		t.Fatalf("history has %d samples, want 1 (coalesced)", len(h))
	}
}

func TestRuntimeCollectorHistoryRing(t *testing.T) {
	c := NewRuntimeCollector(nil, -1) // negative still selects the default
	c.minInterval = 0                 // force every Sample to be fresh
	for i := 0; i < runtimeHistorySamples+5; i++ {
		c.Sample()
	}
	h := c.History()
	if len(h) != runtimeHistorySamples {
		t.Fatalf("history %d, want the ring bound %d", len(h), runtimeHistorySamples)
	}
	for i := 1; i < len(h); i++ {
		if h[i].TimeUnixNs < h[i-1].TimeUnixNs {
			t.Fatalf("history out of order at %d", i)
		}
	}
}

func TestRuntimeCollectorNil(t *testing.T) {
	var c *RuntimeCollector
	if s := c.Sample(); s != (RuntimeSample{}) {
		t.Fatal("nil Sample not zero")
	}
	if h := c.History(); h != nil {
		t.Fatal("nil History not nil")
	}
}
