// Package fault is a deterministic, seedable fault-injection harness for the
// localization pipeline. It corrupts CSI measurements the way real deployments
// do — dead antennas, erased subcarriers, non-finite bursts from driver bugs,
// phase jumps from mid-burst retunes, truncated packets — and disturbs the
// serving path with injected slow or stuck requests. Every injector draws from
// its own private RNG, so a given (Plan, seed) corrupts a packet stream
// byte-identically no matter what else is running; this is what lets the
// degradation tests and the roabench fault sweep pin their outputs.
//
// The package deliberately knows nothing about recovery: detection, repair,
// and down-weighting live in core (see DESIGN.md §12). fault only breaks
// things, on purpose, reproducibly.
package fault

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"roarray/internal/wireless"
)

// Kind names one injectable fault mode.
type Kind string

const (
	// KindNone injects nothing; Transform is the identity.
	KindNone Kind = "none"
	// KindAntennaDropout zeroes whole antenna rows — a dead or disconnected
	// array element (the dummy-antenna failure mode).
	KindAntennaDropout Kind = "antenna-dropout"
	// KindSubcarrierErasure zeroes whole subcarrier columns — per-tone
	// erasures from narrowband interference or driver-reported invalid tones.
	KindSubcarrierErasure Kind = "subcarrier-erasure"
	// KindNaNBurst overwrites scattered entries with NaN/Inf values — the
	// firmware-bug / uninitialized-DMA class of corruption.
	KindNaNBurst Kind = "nan-burst"
	// KindPhaseJump multiplies a random subcarrier suffix by a fixed phase
	// rotation — a mid-measurement PLL retune.
	KindPhaseJump Kind = "phase-jump"
	// KindTruncatedPacket drops trailing subcarriers entirely, shrinking the
	// matrix — a short read off the capture interface.
	KindTruncatedPacket Kind = "truncated-packet"
	// KindSolverBudget does not touch CSI; it starves the sparse solver of
	// iterations (Plan.SolverIters) so non-convergence paths are exercised.
	// Consumers read the budget from the plan and configure the solver.
	KindSolverBudget Kind = "solver-budget"
	// KindSlowRequest does not touch CSI; Disturb sleeps Plan.Delay (and, with
	// Plan.StuckProb, parks until the context dies) to wedge serving paths.
	KindSlowRequest Kind = "slow-request"
)

// Plan describes one fault mode and its knobs. Zero-valued knobs take the
// documented defaults so a bare {Kind: ...} plan is already usable.
type Plan struct {
	Kind Kind
	// Prob is the per-packet probability that the fault fires; values outside
	// (0,1] (including the zero value) mean "always".
	Prob float64
	// Antennas is how many antenna rows KindAntennaDropout kills (default 1).
	Antennas int
	// Subcarriers is how many columns KindSubcarrierErasure zeroes (default 1).
	Subcarriers int
	// Burst is how many scattered entries KindNaNBurst poisons (default 1).
	Burst int
	// PhaseRad is the rotation KindPhaseJump applies (default π/2).
	PhaseRad float64
	// Truncate is how many trailing subcarriers KindTruncatedPacket removes
	// (default: half the packet).
	Truncate int
	// SolverIters is the starved iteration budget for KindSolverBudget
	// (default 2).
	SolverIters int
	// Delay is how long Disturb sleeps for KindSlowRequest (default 0).
	Delay time.Duration
	// StuckProb is the probability that Disturb parks until its context dies
	// instead of merely sleeping (KindSlowRequest only; default 0).
	StuckProb float64
}

// fires reports whether the fault triggers for this packet.
func (p *Plan) fires(rng *rand.Rand) bool {
	if p.Prob <= 0 || p.Prob > 1 {
		return true
	}
	return rng.Float64() < p.Prob
}

// Injector applies one Plan to a CSI stream from a private seeded RNG.
// Methods are safe for concurrent use (a mutex serializes the RNG), but for
// reproducible parallel workloads give each link its own injector, exactly as
// each link owns its own RNG stream.
type Injector struct {
	mu   sync.Mutex
	plan Plan
	rng  *rand.Rand

	injected int64
}

// New validates the plan and returns an injector seeded with seed.
func New(plan Plan, seed int64) (*Injector, error) {
	switch plan.Kind {
	case KindNone, KindAntennaDropout, KindSubcarrierErasure, KindNaNBurst,
		KindPhaseJump, KindTruncatedPacket, KindSolverBudget, KindSlowRequest:
	default:
		return nil, fmt.Errorf("fault: unknown kind %q", plan.Kind)
	}
	if plan.Antennas <= 0 {
		plan.Antennas = 1
	}
	if plan.Subcarriers <= 0 {
		plan.Subcarriers = 1
	}
	if plan.Burst <= 0 {
		plan.Burst = 1
	}
	if plan.PhaseRad == 0 {
		plan.PhaseRad = math.Pi / 2
	}
	if plan.SolverIters <= 0 {
		plan.SolverIters = 2
	}
	if plan.StuckProb < 0 || plan.StuckProb > 1 {
		return nil, fmt.Errorf("fault: stuck probability %v outside [0,1]", plan.StuckProb)
	}
	return &Injector{plan: plan, rng: rand.New(rand.NewSource(seed))}, nil
}

// Injected returns how many packets (or requests, for KindSlowRequest) have
// actually been corrupted so far.
func (in *Injector) Injected() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected
}

// Transform applies the plan to one measurement. The input is never mutated:
// when the fault fires the corrupted packet is a fresh copy, otherwise the
// original pointer comes back untouched. A nil injector (or KindNone, or a
// non-CSI kind) is the identity, so pipelines can thread an optional stage
// without branching.
func (in *Injector) Transform(c *wireless.CSI) *wireless.CSI {
	if in == nil || c == nil {
		return c
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	switch in.plan.Kind {
	case KindNone, KindSolverBudget, KindSlowRequest:
		return c
	}
	if !in.plan.fires(in.rng) {
		return c
	}
	out := c.Clone()
	switch in.plan.Kind {
	case KindAntennaDropout:
		for _, ant := range pick(in.rng, out.NumAntennas, in.plan.Antennas) {
			for sc := range out.Data[ant] {
				out.Data[ant][sc] = 0
			}
		}
	case KindSubcarrierErasure:
		for _, sc := range pick(in.rng, out.NumSubcarriers, in.plan.Subcarriers) {
			for ant := range out.Data {
				out.Data[ant][sc] = 0
			}
		}
	case KindNaNBurst:
		total := out.NumAntennas * out.NumSubcarriers
		for i, flat := range pick(in.rng, total, in.plan.Burst) {
			ant, sc := flat/out.NumSubcarriers, flat%out.NumSubcarriers
			if i%2 == 0 {
				out.Data[ant][sc] = complex(math.NaN(), math.NaN())
			} else {
				out.Data[ant][sc] = complex(math.Inf(1), 0)
			}
		}
	case KindPhaseJump:
		if out.NumSubcarriers > 1 {
			start := 1 + in.rng.Intn(out.NumSubcarriers-1)
			rot := complex(math.Cos(in.plan.PhaseRad), math.Sin(in.plan.PhaseRad))
			for ant := range out.Data {
				for sc := start; sc < out.NumSubcarriers; sc++ {
					out.Data[ant][sc] *= rot
				}
			}
		}
	case KindTruncatedPacket:
		drop := in.plan.Truncate
		if drop <= 0 {
			drop = out.NumSubcarriers / 2
		}
		keep := out.NumSubcarriers - drop
		if keep < 1 {
			keep = 1
		}
		for ant := range out.Data {
			out.Data[ant] = out.Data[ant][:keep]
		}
		out.NumSubcarriers = keep
	}
	in.injected++
	return out
}

// TransformBurst maps Transform over a packet burst, reusing the input slice
// when nothing fired so clean paths stay allocation-free.
func (in *Injector) TransformBurst(cs []*wireless.CSI) []*wireless.CSI {
	if in == nil || len(cs) == 0 {
		return cs
	}
	var out []*wireless.CSI
	for i, c := range cs {
		t := in.Transform(c)
		if t != c && out == nil {
			out = make([]*wireless.CSI, len(cs))
			copy(out, cs[:i])
		}
		if out != nil {
			out[i] = t
		}
	}
	if out == nil {
		return cs
	}
	return out
}

// pick returns k distinct indices from [0,n), ascending, drawn from rng.
// k >= n selects everything.
func pick(rng *rand.Rand, n, k int) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	perm := rng.Perm(n)[:k]
	sort.Ints(perm)
	return perm
}

// Disturb wedges the calling request according to a KindSlowRequest plan:
// sleep Delay, and with StuckProb park until ctx dies. Any other kind (or a
// nil injector) returns immediately, so serving code can install the hook
// unconditionally.
func (in *Injector) Disturb(ctx context.Context) {
	if in == nil {
		return
	}
	in.mu.Lock()
	if in.plan.Kind != KindSlowRequest || !in.plan.fires(in.rng) {
		in.mu.Unlock()
		return
	}
	stuck := in.plan.StuckProb > 0 && in.rng.Float64() < in.plan.StuckProb
	delay := in.plan.Delay
	in.injected++
	in.mu.Unlock()

	if delay > 0 {
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return
		}
	}
	if stuck {
		<-ctx.Done()
	}
}
