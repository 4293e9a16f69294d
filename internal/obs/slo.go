package obs

import (
	"fmt"
	"sync"
	"time"
)

// SLO tracks service-level objectives over rolling windows, the way an
// on-call engineer reasons about them: not lifetime averages (which bury a
// fresh outage under weeks of good history) but "what fraction of the last
// minute / five minutes / hour met the objective", plus burn rates — how
// fast the error budget is being spent relative to the target. A burn rate
// of 1 means exactly spending budget at the sustainable pace; 10 means the
// budget burns ten times too fast, the classic page-now signal when the 1m
// and 1h windows agree (multi-window multi-burn-rate alerting).
//
// Two objectives are tracked per request:
//
//   - availability: the request completed successfully (the caller's ok);
//   - latency: the request was ok AND finished within LatencyObjective.
//
// The implementation is a ring of per-second slots (one hour deep, ~84 KB),
// so Observe is a mutex plus three integer increments — cheap enough for
// every request — and window sums are exact over 1m/5m/1h regardless of
// traffic shape. A nil *SLO disables tracking (Observe no-ops), mirroring
// the rest of this package.
type SLO struct {
	cfg SLOConfig

	mu      sync.Mutex
	slots   []sloSlot
	lastSec int64 // unix second the ring head currently represents; 0 = empty
}

type sloSlot struct {
	total int64
	ok    int64
	fast  int64 // ok AND within the latency objective
}

// sloRingSeconds is the ring depth — one hour of per-second slots, enough
// for the longest exported window.
const sloRingSeconds = 3600

// SLOWindows are the exported rolling windows, shortest first.
var SLOWindows = []struct {
	Name string
	Len  time.Duration
}{
	{"1m", time.Minute},
	{"5m", 5 * time.Minute},
	{"1h", time.Hour},
}

// SLOConfig parameterizes an SLO tracker.
type SLOConfig struct {
	// LatencyObjective is the per-request latency bound of the latency SLO;
	// <= 0 selects 250 ms.
	LatencyObjective time.Duration
	// Target is the objective attainment target in (0,1), e.g. 0.99 for
	// "99% of requests"; out-of-range selects 0.99. The same target applies
	// to both the availability and the latency objective.
	Target float64
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.LatencyObjective <= 0 {
		c.LatencyObjective = 250 * time.Millisecond
	}
	if c.Target <= 0 || c.Target >= 1 {
		c.Target = 0.99
	}
	return c
}

// NewSLO returns a tracker with the given objectives.
func NewSLO(cfg SLOConfig) *SLO {
	return &SLO{cfg: cfg.withDefaults(), slots: make([]sloSlot, sloRingSeconds)}
}

// Observe records one request outcome. Safe on a nil receiver (no-op) and
// for concurrent use.
func (s *SLO) Observe(ok bool, latency time.Duration) {
	s.ObserveAt(time.Now(), ok, latency)
}

// ObserveAt is Observe against an explicit clock — tests drive window decay
// with it; production code should use Observe.
func (s *SLO) ObserveAt(now time.Time, ok bool, latency time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advance(now.Unix())
	slot := &s.slots[s.lastSec%sloRingSeconds]
	slot.total++
	if ok {
		slot.ok++
		if latency <= s.cfg.LatencyObjective {
			slot.fast++
		}
	}
}

// advance moves the ring head to sec, zeroing every slot the clock skipped
// (they represent seconds with no traffic). Called with mu held.
func (s *SLO) advance(sec int64) {
	if s.lastSec == 0 {
		// First observation: claim the slot without wiping the whole ring.
		s.lastSec = sec
		s.slots[sec%sloRingSeconds] = sloSlot{}
		return
	}
	if sec <= s.lastSec {
		return // same second, or a clock step backwards: reuse the head slot
	}
	gap := sec - s.lastSec
	if gap > sloRingSeconds {
		gap = sloRingSeconds
	}
	for i := int64(1); i <= gap; i++ {
		s.slots[(s.lastSec+i)%sloRingSeconds] = sloSlot{}
	}
	s.lastSec = sec
}

// SLOWindow is one rolling window's attainment and burn state.
type SLOWindow struct {
	// Window names the span ("1m", "5m", "1h").
	Window string `json:"window"`
	// Total, OK, Fast are the raw request counts in the window.
	Total int64 `json:"total"`
	OK    int64 `json:"ok"`
	Fast  int64 `json:"fast"`
	// Availability is OK/Total; LatencyAttainment is Fast/Total. Both are 1
	// for an empty window (no traffic has burned no budget).
	Availability      float64 `json:"availability"`
	LatencyAttainment float64 `json:"latencyAttainment"`
	// AvailabilityBurn and LatencyBurn are burn rates: the window's error
	// rate divided by the error budget (1 - target). 1.0 spends budget
	// exactly at the sustainable pace; >> 1 is an incident.
	AvailabilityBurn float64 `json:"availabilityBurn"`
	LatencyBurn      float64 `json:"latencyBurn"`
}

// WindowsAt computes every exported rolling window as of now. A nil tracker
// returns nil.
func (s *SLO) WindowsAt(now time.Time) []SLOWindow {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advance(now.Unix())
	budget := 1 - s.cfg.Target
	out := make([]SLOWindow, len(SLOWindows))
	for wi, w := range SLOWindows {
		secs := int64(w.Len / time.Second)
		var agg sloSlot
		for i := int64(0); i < secs; i++ {
			slot := s.slots[((s.lastSec-i)%sloRingSeconds+sloRingSeconds)%sloRingSeconds]
			agg.total += slot.total
			agg.ok += slot.ok
			agg.fast += slot.fast
		}
		win := SLOWindow{Window: w.Name, Total: agg.total, OK: agg.ok, Fast: agg.fast,
			Availability: 1, LatencyAttainment: 1}
		if agg.total > 0 {
			win.Availability = float64(agg.ok) / float64(agg.total)
			win.LatencyAttainment = float64(agg.fast) / float64(agg.total)
			win.AvailabilityBurn = (1 - win.Availability) / budget
			win.LatencyBurn = (1 - win.LatencyAttainment) / budget
		}
		out[wi] = win
	}
	return out
}

// Windows computes every exported rolling window as of the current clock.
func (s *SLO) Windows() []SLOWindow { return s.WindowsAt(time.Now()) }

// Bind exports the tracker into reg as gauges refreshed on every snapshot
// (so a /metrics scrape always sees windows decayed to scrape time, even
// when traffic has stopped):
//
//	slo.target, slo.latency_objective_ms          — the configuration
//	slo.availability.<w>, slo.latency_attainment.<w>
//	slo.burn_rate.availability.<w>, slo.burn_rate.latency.<w>
//	slo.requests.<w>
//
// for each window <w> in 1m/5m/1h. Nil-safe on both sides.
func (s *SLO) Bind(reg *Registry) {
	if s == nil || reg == nil {
		return
	}
	reg.Gauge("slo.target").Set(s.cfg.Target)
	reg.Gauge("slo.latency_objective_ms").Set(float64(s.cfg.LatencyObjective) / float64(time.Millisecond))
	type handles struct {
		avail, latAtt, availBurn, latBurn, reqs *Gauge
	}
	hs := make([]handles, len(SLOWindows))
	for i, w := range SLOWindows {
		hs[i] = handles{
			avail:     reg.Gauge(fmt.Sprintf("slo.availability.%s", w.Name)),
			latAtt:    reg.Gauge(fmt.Sprintf("slo.latency_attainment.%s", w.Name)),
			availBurn: reg.Gauge(fmt.Sprintf("slo.burn_rate.availability.%s", w.Name)),
			latBurn:   reg.Gauge(fmt.Sprintf("slo.burn_rate.latency.%s", w.Name)),
			reqs:      reg.Gauge(fmt.Sprintf("slo.requests.%s", w.Name)),
		}
		// Empty windows attain perfectly from the first scrape.
		hs[i].avail.Set(1)
		hs[i].latAtt.Set(1)
	}
	reg.OnSnapshot(func() {
		for i, w := range s.Windows() {
			hs[i].avail.Set(w.Availability)
			hs[i].latAtt.Set(w.LatencyAttainment)
			hs[i].availBurn.Set(w.AvailabilityBurn)
			hs[i].latBurn.Set(w.LatencyBurn)
			hs[i].reqs.Set(float64(w.Total))
		}
	})
}
