package serve

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"roarray/internal/core"
	"roarray/internal/obs"
	"roarray/internal/sparse"
	"roarray/internal/spectra"
	"roarray/internal/testbed"
	"roarray/internal/wireless"
)

// Preset bundles an estimator configuration with the matching simulated
// deployment, so a server and a load generator started with the same preset
// name agree on CSI dimensions and workload synthesis. cmd/roaserve and
// cmd/roaload both resolve presets from here.
type Preset struct {
	Name string
	// Estimator parameterizes the server's shared estimator.
	Estimator core.Config
	// Deployment synthesizes wire requests whose dimensions match Estimator.
	Deployment *testbed.Deployment
	// Packets is the default CSI burst depth per link for generated
	// workloads.
	Packets int
	// SLO is the preset's default service-level objective: the latency bound
	// and attainment target the serving layer tracks (and roaload gates on)
	// unless overridden by flags.
	SLO obs.SLOConfig
	// RetryAfterFull and RetryAfterDraining seed the Retry-After advice the
	// preset's server gives on 429/503 rejections (see Config). Slow working
	// points advertise longer backoff: a paper-preset request holds a worker
	// for over a second, so retrying a second later just burns another
	// queue slot.
	RetryAfterFull     time.Duration
	RetryAfterDraining time.Duration
}

// presetBuilders is the registry LookupPreset and PresetNames resolve from.
// Builders (not values) because a Preset holds mutable slices; every lookup
// gets a fresh instance.
var presetBuilders = map[string]func() *Preset{
	"paper": paperPreset,
	"smoke": smokePreset,
}

// PresetNames returns every registered preset name, sorted — the source of
// truth for flag help text and unknown-preset error messages.
func PresetNames() []string {
	names := make([]string, 0, len(presetBuilders))
	for name := range presetBuilders {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// LookupPreset resolves a preset by name:
//
//   - "paper": the paper's working point — Intel 5300 radios (3 x 30 CSI),
//     default dictionary grids, 6-AP 18 m x 12 m testbed, 15-packet bursts.
//     Faithful, but slow: a fix costs about 1.95 s of CPU under the default
//     solve profile, whose joint solves run their full 400 iterations over
//     the 91 x 50 grid, and 0.28–0.38 s under Warm (2-CPU Intel Xeon,
//     Go 1.24).
//   - "smoke": a cut-down configuration for latency/throughput exercises and
//     CI — 8 subcarriers, 19 x 8 dictionary, 3 APs, 2-packet bursts. A fix
//     costs about 0.5–0.6 ms of CPU while running the full pipeline.
//
// An unknown name's error enumerates every registered preset, so the
// message stays correct as presets land.
func LookupPreset(name string) (*Preset, error) {
	build, ok := presetBuilders[name]
	if !ok {
		quoted := make([]string, 0, len(presetBuilders))
		for _, n := range PresetNames() {
			quoted = append(quoted, strconv.Quote(n))
		}
		return nil, fmt.Errorf("serve: unknown preset %q (want %s)", name, strings.Join(quoted, " or "))
	}
	return build(), nil
}

func paperPreset() *Preset {
	return &Preset{
		Name: "paper",
		Estimator: core.Config{
			Array: wireless.Intel5300Array(),
			OFDM:  wireless.Intel5300OFDM(),
		},
		Deployment: testbed.Default(),
		Packets:    15,
		// A paper-faithful fix costs about 2 s of CPU under the default
		// solve profile (1.95 s measured on a 2-CPU Xeon) and 0.28-0.38 s
		// under Warm; the latency objective reflects that working point.
		SLO: obs.SLOConfig{LatencyObjective: 10 * time.Second, Target: 0.99},
		// A paper request holds a worker for up to 2 s; tell rejected
		// clients to stay away long enough for a batch to clear.
		RetryAfterFull:     5 * time.Second,
		RetryAfterDraining: 10 * time.Second,
	}
}

func smokePreset() *Preset {
	ofdm := wireless.OFDM{NumSubcarriers: 8, SubcarrierSpacing: 4e6}
	dep := testbed.Default()
	dep.OFDM = ofdm
	dep.APs = dep.APs[:3]
	return &Preset{
		Name: "smoke",
		Estimator: core.Config{
			Array:         wireless.Intel5300Array(),
			OFDM:          ofdm,
			ThetaGrid:     spectra.UniformGrid(0, 180, 19),
			TauGrid:       spectra.UniformGrid(0, ofdm.MaxToA(), 8),
			SolverOptions: []sparse.Option{sparse.WithMaxIters(60)},
		},
		Deployment: dep,
		Packets:    2,
		// A smoke fix costs about 0.5-0.6 ms of CPU (0.52-0.63 ms
		// measured on a 2-CPU Xeon); 99% under 250 ms is the
		// CI-checkable objective.
		SLO: obs.SLOConfig{LatencyObjective: 250 * time.Millisecond, Target: 0.99},
		// Smoke fixes clear in well under a millisecond; the serve-layer
		// defaults are already the right advice.
		RetryAfterFull:     time.Second,
		RetryAfterDraining: 5 * time.Second,
	}
}
