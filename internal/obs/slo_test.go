package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

func sloWindow(t *testing.T, ws []SLOWindow, name string) SLOWindow {
	t.Helper()
	for _, w := range ws {
		if w.Window == name {
			return w
		}
	}
	t.Fatalf("window %q not in %+v", name, ws)
	return SLOWindow{}
}

func TestSLOWindowMath(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	s := NewSLO(SLOConfig{LatencyObjective: 100 * time.Millisecond, Target: 0.9})

	// 100 requests in one second: 80 ok-and-fast, 10 ok-but-slow, 10 failed.
	for i := 0; i < 80; i++ {
		s.ObserveAt(base, true, 50*time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		s.ObserveAt(base, true, 500*time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		s.ObserveAt(base, false, 50*time.Millisecond)
	}

	ws := s.WindowsAt(base)
	for _, name := range []string{"1m", "5m", "1h"} {
		w := sloWindow(t, ws, name)
		if w.Total != 100 || w.OK != 90 || w.Fast != 80 {
			t.Fatalf("%s counts total=%d ok=%d fast=%d, want 100/90/80", name, w.Total, w.OK, w.Fast)
		}
		if math.Abs(w.Availability-0.9) > 1e-12 {
			t.Fatalf("%s availability %v, want 0.9", name, w.Availability)
		}
		if math.Abs(w.LatencyAttainment-0.8) > 1e-12 {
			t.Fatalf("%s latency attainment %v, want 0.8", name, w.LatencyAttainment)
		}
		// Budget is 1-0.9 = 0.1: 10% errors burn at exactly 1.0, 20% slow at 2.0.
		if math.Abs(w.AvailabilityBurn-1.0) > 1e-12 {
			t.Fatalf("%s availability burn %v, want 1.0", name, w.AvailabilityBurn)
		}
		if math.Abs(w.LatencyBurn-2.0) > 1e-12 {
			t.Fatalf("%s latency burn %v, want 2.0", name, w.LatencyBurn)
		}
	}
}

func TestSLOWindowDecay(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	s := NewSLO(SLOConfig{})

	s.ObserveAt(base, false, 0) // one failure

	// 90 seconds later the failure has aged out of 1m but not 5m or 1h.
	later := base.Add(90 * time.Second)
	ws := s.WindowsAt(later)
	if w := sloWindow(t, ws, "1m"); w.Total != 0 || w.Availability != 1 || w.AvailabilityBurn != 0 {
		t.Fatalf("1m after decay: %+v, want empty/perfect", w)
	}
	if w := sloWindow(t, ws, "5m"); w.Total != 1 || w.Availability != 0 {
		t.Fatalf("5m after decay: %+v, want the failure still visible", w)
	}
	if w := sloWindow(t, ws, "1h"); w.Total != 1 {
		t.Fatalf("1h after decay: %+v, want the failure still visible", w)
	}

	// Two hours later everything has aged out, including via the capped-gap
	// path (gap > ring size).
	ws = s.WindowsAt(base.Add(2 * time.Hour))
	if w := sloWindow(t, ws, "1h"); w.Total != 0 || w.Availability != 1 {
		t.Fatalf("1h after 2h idle: %+v, want empty/perfect", w)
	}
}

func TestSLODefaultsAndNil(t *testing.T) {
	s := NewSLO(SLOConfig{})
	cfg := s.cfg
	if cfg.LatencyObjective != 250*time.Millisecond || cfg.Target != 0.99 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}

	var nilSLO *SLO
	nilSLO.Observe(true, time.Millisecond) // must not panic
	if ws := nilSLO.Windows(); ws != nil {
		t.Fatalf("nil SLO windows = %+v, want nil", ws)
	}
	nilSLO.Bind(NewRegistry()) // must not panic
}

func TestSLOBindExportsGauges(t *testing.T) {
	reg := NewRegistry()
	s := NewSLO(SLOConfig{LatencyObjective: 100 * time.Millisecond, Target: 0.9})
	s.Bind(reg)

	s.Observe(true, 10*time.Millisecond)
	s.Observe(false, 10*time.Millisecond)

	snap := reg.Snapshot()
	gauge := func(name string) float64 {
		t.Helper()
		v, ok := snap[name].(float64)
		if !ok {
			t.Fatalf("gauge %q missing from snapshot (have %T)", name, snap[name])
		}
		return v
	}
	if got := gauge("slo.target"); got != 0.9 {
		t.Fatalf("slo.target = %v", got)
	}
	if got := gauge("slo.latency_objective_ms"); got != 100 {
		t.Fatalf("slo.latency_objective_ms = %v", got)
	}
	if got := gauge("slo.requests.1m"); got != 2 {
		t.Fatalf("slo.requests.1m = %v, want 2", got)
	}
	if got := gauge("slo.availability.1m"); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("slo.availability.1m = %v, want 0.5", got)
	}
	// 50% errors against a 10% budget: burn rate 5.
	if got := gauge("slo.burn_rate.availability.1m"); math.Abs(got-5) > 1e-12 {
		t.Fatalf("slo.burn_rate.availability.1m = %v, want 5", got)
	}
	for _, w := range []string{"1m", "5m", "1h"} {
		for _, k := range []string{"slo.availability.", "slo.latency_attainment.", "slo.burn_rate.availability.", "slo.burn_rate.latency.", "slo.requests."} {
			gauge(k + w)
		}
	}
}

func TestHistogramExemplars(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", 1, 10, 100)

	h.Observe(0.5) // no exemplar
	if snap := h.Snapshot(); snap.Exemplars != nil {
		t.Fatalf("exemplars allocated with none set: %+v", snap.Exemplars)
	}

	h.ObserveExemplar(0.5, "fast-req")
	h.ObserveExemplar(50, "mid-req")
	h.ObserveExemplar(5000, "slow-req")
	h.ObserveExemplar(0.7, "")       // empty id: plain Observe
	h.ObserveExemplar(0.6, "newest") // overwrites fast-req

	snap := h.Snapshot()
	if snap.Count != 6 {
		t.Fatalf("count %d, want 6", snap.Count)
	}
	want := []string{"newest", "", "mid-req", "slow-req"}
	if len(snap.Exemplars) != len(want) {
		t.Fatalf("exemplars %v, want %v", snap.Exemplars, want)
	}
	for i := range want {
		if snap.Exemplars[i] != want[i] {
			t.Fatalf("exemplars %v, want %v", snap.Exemplars, want)
		}
	}

	// Exemplars survive the registry-level JSON round trip.
	var nilH *Histogram
	nilH.ObserveExemplar(1, "x") // must not panic
}

// TestHistogramExemplarAllocatesNothing pins that attributing an
// observation to a request keeps the id without a heap allocation once the
// bucket has its slot (AllocsPerRun's warm-up call makes it), and that an id
// longer than MaxRequestIDLen is kept cut to that length.
func TestHistogramExemplarAllocatesNothing(t *testing.T) {
	h := newHistogramForTest(1, 10)
	id := NewRequestID()
	if allocs := testing.AllocsPerRun(200, func() { h.ObserveExemplar(0.5, id) }); allocs != 0 {
		t.Fatalf("ObserveExemplar allocates %.1f objects, want 0", allocs)
	}
	long := strings.Repeat("r", MaxRequestIDLen+10)
	h.ObserveExemplar(5, long)
	if got := h.Snapshot().Exemplars; got[0] != id || got[1] != long[:MaxRequestIDLen] || got[2] != "" {
		t.Fatalf("exemplars %q, want %q, the long id cut to %d bytes, and none", got, id, MaxRequestIDLen)
	}
}

func TestHistogramSnapshotQuantileMatchesLive(t *testing.T) {
	h := newHistogramForTest(1, 2, 4, 8, 16)
	vals := []float64{0.5, 1.5, 1.6, 3, 3, 7, 12, 40}
	for _, v := range vals {
		h.Observe(v)
	}
	snap := h.Snapshot()
	for _, p := range []float64{0, 0.25, 0.5, 0.9, 0.95, 1} {
		live, off := h.Quantile(p), snap.Quantile(p)
		if math.Abs(live-off) > 1e-12 {
			t.Fatalf("p=%v: live %v vs snapshot %v", p, live, off)
		}
	}
	if !math.IsNaN((HistogramSnapshot{}).Quantile(0.5)) {
		t.Fatal("empty snapshot quantile should be NaN")
	}
	if !math.IsNaN(snap.Quantile(1.5)) {
		t.Fatal("out-of-range p should be NaN")
	}
}

func TestHistogramSnapshotSub(t *testing.T) {
	h := newHistogramForTest(1, 10)
	h.Observe(0.5)
	h.Observe(5)
	prev := h.Snapshot()

	h.ObserveExemplar(5, "new-one")
	h.Observe(50)
	cur := h.Snapshot()

	d := cur.Sub(prev)
	if d.Count != 2 {
		t.Fatalf("interval count %d, want 2", d.Count)
	}
	wantCounts := []int64{0, 1, 1}
	for i, n := range wantCounts {
		if d.Counts[i] != n {
			t.Fatalf("interval counts %v, want %v", d.Counts, wantCounts)
		}
	}
	if math.Abs(d.Sum-55) > 1e-9 {
		t.Fatalf("interval sum %v, want 55", d.Sum)
	}
	if len(d.Exemplars) == 0 || d.Exemplars[1] != "new-one" {
		t.Fatalf("interval exemplars %v, want new-one in bucket 1", d.Exemplars)
	}
	if d.P50 <= 0 {
		t.Fatalf("interval P50 %v, want > 0", d.P50)
	}

	// A counter reset (prev > cur) clamps to zero rather than going negative.
	reset := prev.Sub(cur)
	for _, n := range reset.Counts {
		if n < 0 {
			t.Fatalf("reset interval went negative: %v", reset.Counts)
		}
	}
}

func TestRegistryOnSnapshotHook(t *testing.T) {
	reg := NewRegistry()
	calls := 0
	reg.OnSnapshot(func() {
		calls++
		reg.Gauge("hooked").Set(float64(calls))
	})
	snap := reg.Snapshot()
	if calls != 1 {
		t.Fatalf("hook ran %d times, want 1", calls)
	}
	if got, _ := snap["hooked"].(float64); got != 1 {
		t.Fatalf("hooked gauge = %v, want 1 (hook must run before the state is read)", snap["hooked"])
	}
	reg.Snapshot()
	if calls != 2 {
		t.Fatalf("hook ran %d times after second snapshot, want 2", calls)
	}

	var nilReg *Registry
	nilReg.OnSnapshot(func() {}) // must not panic
}

// newHistogramForTest builds a detached histogram through a throwaway
// registry, so tests exercise the same construction path production uses.
func newHistogramForTest(bounds ...float64) *Histogram {
	return NewRegistry().Histogram("test", bounds...)
}

func TestSLOGaugeNamesAreWellFormed(t *testing.T) {
	// The roastat renderer keys off these prefixes; lock them down.
	reg := NewRegistry()
	NewSLO(SLOConfig{}).Bind(reg)
	for name := range reg.Snapshot() {
		if !strings.HasPrefix(name, "slo.") {
			t.Fatalf("unexpected metric %q from Bind", name)
		}
	}
}
