package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"roarray/internal/core"
	"roarray/internal/quality"
	"roarray/internal/stats"
	"roarray/internal/testbed"
	"roarray/internal/wireless"
)

// RunFig8a reproduces paper Fig. 8a: ROArray localization accuracy with 3,
// 4, and 5 APs hearing the client (paper medians 2.79 / 1.56 / 1.04 m).
// Accuracy improves with AP density because the RSSI-weighted scheme gives
// high-quality direct paths more votes.
func RunFig8a(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	header(w, fmt.Sprintf("Fig. 8a: ROArray localization vs number of APs (%d locations)", opt.Locations))
	paper := map[int]float64{3: 2.79, 4: 1.56, 5: 1.04}
	exp := opt.Recorder.Begin("8a", "localization vs number of APs")
	defer exp.End()
	exp.Params(opt.evalParams())
	ctx := opt.runCtx(exp)

	eng, err := newEvalEngine(opt)
	if err != nil {
		return err
	}
	dep := testbed.Default()
	rng := rand.New(rand.NewSource(opt.Seed + 8))
	counts := []int{5, 4, 3}
	errsByCount := make(map[int][]float64, len(counts))
	for loc := 0; loc < opt.Locations; loc++ {
		client := dep.RandomClient(rng)
		sc, err := dep.GenerateScenario(client, testbed.ScenarioConfig{Band: testbed.BandMedium}, rng)
		if err != nil {
			return err
		}
		// Estimate once per link on the 5 nearest APs; the 4- and 3-AP
		// conditions localize from prefixes of the same estimates, so the
		// comparison isolates AP density (the nearest 3 are a subset of the
		// nearest 5).
		links := nearestLinks(sc.Links, client, 5)
		obs := make([]core.APObservation, len(links))
		for i := range links {
			burst, err := wireless.GenerateBurst(links[i].Channel, opt.Packets, rng)
			if err != nil {
				return err
			}
			est := eng.estimateLink(ctx, SysROArray, &links[i], burst)
			obs[i] = links[i].Observation(est.DirectAoADeg)
		}
		for _, numAPs := range counts {
			pos, _, err := core.LocalizeSearchCtx(ctx, obs[:numAPs], dep.Room, 0.1, 1, core.SearchConfig{})
			if err != nil {
				return err
			}
			errsByCount[numAPs] = append(errsByCount[numAPs], pos.Dist(client))
			exp.Record(quality.Trial{
				System:   SysROArray,
				Label:    fmt.Sprintf("aps%d", numAPs),
				Scenario: quality.Scenario{Seed: opt.Seed, Band: "medium", APs: numAPs, Packets: opt.Packets},
				Truth:    quality.Pos(client.X, client.Y),
				Estimate: quality.Pos(pos.X, pos.Y),
				Errors:   map[string]float64{"loc_m": pos.Dist(client)},
			})
		}
	}
	for _, numAPs := range counts {
		exp.Aggregate(fmt.Sprintf("loc_err.aps%d", numAPs), "m", errsByCount[numAPs])
		sum, err := stats.Summarize(fmt.Sprintf("ROArray, %d APs", numAPs), errsByCount[numAPs])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s   [paper median %.2f m]\n", sum.Format(" m"), paper[numAPs])
	}
	return nil
}

// nearestLinks returns the n links whose APs are closest to the client —
// the APs that would actually "hear" it.
func nearestLinks(links []testbed.Link, client core.Point, n int) []testbed.Link {
	sorted := append([]testbed.Link(nil), links...)
	sort.Slice(sorted, func(a, b int) bool {
		return sorted[a].AP.Pos.Dist(client) < sorted[b].AP.Pos.Dist(client)
	})
	if n < len(sorted) {
		sorted = sorted[:n]
	}
	return sorted
}

// RunFig8b reproduces paper Fig. 8b: ROArray localization under three phase
// calibration regimes — calibration driven by ROArray's sparse spectrum,
// calibration driven by a MUSIC spectrum (the Phaser scheme), and no
// calibration at all. The paper reports a 2.0 m median without calibration
// and a 0.71 m improvement of the ROArray scheme over the MUSIC scheme.
func RunFig8b(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	header(w, fmt.Sprintf("Fig. 8b: impact of phase calibration scheme (%d locations)", opt.Locations))
	exp := opt.Recorder.Begin("8b", "impact of phase calibration scheme")
	defer exp.End()
	exp.Params(opt.evalParams())
	ctx := opt.runCtx(exp)
	rng := rand.New(rand.NewSource(opt.Seed + 80))

	eng, err := newEvalEngine(opt)
	if err != nil {
		return err
	}
	dep := testbed.Default()
	cfg := eng.est.Config()

	// One random per-antenna offset vector per AP (a per-boot condition).
	offsets := make([][]float64, len(dep.APs))
	for i := range offsets {
		o := make([]float64, cfg.Array.NumAntennas)
		for m := 1; m < len(o); m++ {
			o[m] = 2 * math.Pi * rng.Float64()
		}
		offsets[i] = o
	}

	// Calibration step: the administrator places a reference transmitter at
	// a known spot; every AP sees a clean LoS packet through its corrupted
	// RF chains and solves for its offsets.
	refClient := core.Point{X: 9, Y: 6}
	calibROA := make([][]float64, len(dep.APs))
	calibMUSIC := make([][]float64, len(dep.APs))
	for i, ap := range dep.APs {
		refAoA := core.ExpectedAoA(ap.Pos, ap.AxisDeg, refClient)
		dist := ap.Pos.Dist(refClient)
		ch := &wireless.ChannelConfig{
			Array: cfg.Array, OFDM: cfg.OFDM,
			Paths:                  []wireless.Path{{AoADeg: refAoA, ToA: dist / wireless.SpeedOfLight, Gain: 1}},
			SNRdB:                  20,
			AntennaPhaseOffsetsRad: offsets[i],
		}
		pkt, err := wireless.Generate(ch, rng)
		if err != nil {
			return err
		}
		pkts := []*wireless.CSI{pkt}
		if calibROA[i], err = core.CalibratePhases(pkts, core.ROArrayReferenceScore(eng.est, refAoA), 10); err != nil {
			return err
		}
		musicScore := core.MUSICReferenceScore(cfg.Array, cfg.ThetaGrid, 1, refAoA)
		if calibMUSIC[i], err = core.CalibratePhases(pkts, musicScore, 10); err != nil {
			return err
		}
	}

	schemes := []struct {
		name    string
		key     string
		correct [][]float64 // nil means no correction
		paper   string
	}{
		{"Calibration using ROArray", "calib_roarray", calibROA, "[paper median ~1.3 m: 0.71 m better than MUSIC]"},
		{"Calibration using MUSIC", "calib_music", calibMUSIC, "[paper: ROArray scheme is 0.71 m better]"},
		{"W/o calibration", "no_calib", nil, "[paper median 2.0 m]"},
	}

	results := make(map[string][]float64, len(schemes))
	for loc := 0; loc < opt.Locations; loc++ {
		client := dep.RandomClient(rng)
		sc, err := dep.GenerateScenario(client, testbed.ScenarioConfig{Band: testbed.BandMedium}, rng)
		if err != nil {
			return err
		}
		links := sc.Links
		if opt.APs < len(links) {
			links = links[:opt.APs]
		}
		// Inject the fixed per-AP hardware offsets, then measure once.
		bursts := make([][]*wireless.CSI, len(links))
		for i := range links {
			links[i].Channel.AntennaPhaseOffsetsRad = offsets[links[i].APIndex]
			b, err := wireless.GenerateBurst(links[i].Channel, opt.Packets, rng)
			if err != nil {
				return err
			}
			bursts[i] = b
		}
		for _, scheme := range schemes {
			obs := make([]core.APObservation, len(links))
			for i := range links {
				burst := bursts[i]
				if scheme.correct != nil {
					corrected := make([]*wireless.CSI, len(burst))
					for p, pkt := range burst {
						c, err := core.ApplyPhaseCorrection(pkt, scheme.correct[links[i].APIndex])
						if err != nil {
							return err
						}
						corrected[p] = c
					}
					burst = corrected
				}
				est := eng.estimateLink(ctx, SysROArray, &links[i], burst)
				obs[i] = links[i].Observation(est.DirectAoADeg)
			}
			pos, _, err := core.LocalizeSearchCtx(ctx, obs, dep.Room, 0.1, 1, core.SearchConfig{})
			if err != nil {
				return err
			}
			results[scheme.name] = append(results[scheme.name], pos.Dist(client))
			exp.Record(quality.Trial{
				System:   SysROArray,
				Label:    scheme.key,
				Scenario: quality.Scenario{Seed: opt.Seed, Band: "medium", APs: opt.APs, Packets: opt.Packets},
				Truth:    quality.Pos(client.X, client.Y),
				Estimate: quality.Pos(pos.X, pos.Y),
				Errors:   map[string]float64{"loc_m": pos.Dist(client)},
			})
		}
	}

	for _, scheme := range schemes {
		exp.Aggregate("loc_err."+scheme.key, "m", results[scheme.name])
		sum, err := stats.Summarize(scheme.name, results[scheme.name])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s   %s\n", sum.Format(" m"), scheme.paper)
	}
	return nil
}

// RunFig8c reproduces paper Fig. 8c: the impact of client antenna
// polarization deviation on ROArray. The paper reports medians degrading to
// 2.21 m for 0-20 degree deviation and 4.71 m for 20-45 degrees, because a
// 1-D array suffers poor reception under elevation mismatch.
func RunFig8c(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	header(w, fmt.Sprintf("Fig. 8c: impact of antenna polarization deviation (%d locations)", opt.Locations))
	exp := opt.Recorder.Begin("8c", "impact of antenna polarization deviation")
	defer exp.End()
	exp.Params(opt.evalParams())
	ctx := opt.runCtx(exp)
	paper := map[string]string{
		"deviation = 0 deg":   "[paper: baseline accuracy]",
		"deviation 0-20 deg":  "[paper median 2.21 m]",
		"deviation 20-45 deg": "[paper median 4.71 m]",
	}

	eng, err := newEvalEngine(opt)
	if err != nil {
		return err
	}
	dep := testbed.Default()
	bandsOfDeviation := []struct {
		name     string
		key      string
		min, max float64
	}{
		{"deviation = 0 deg", "dev0", 0, 0},
		{"deviation 0-20 deg", "dev0_20", 0, 20},
		{"deviation 20-45 deg", "dev20_45", 20, 45},
	}
	for _, dev := range bandsOfDeviation {
		rng := rand.New(rand.NewSource(opt.Seed + 90 + int64(dev.max)))
		var errs []float64
		for loc := 0; loc < opt.Locations; loc++ {
			client := dep.RandomClient(rng)
			deviation := dev.min + (dev.max-dev.min)*rng.Float64()
			sc, err := dep.GenerateScenario(client, testbed.ScenarioConfig{
				Band:                     testbed.BandMedium,
				PolarizationDeviationDeg: deviation,
			}, rng)
			if err != nil {
				return err
			}
			links := sc.Links
			if opt.APs < len(links) {
				links = links[:opt.APs]
			}
			obs := make([]core.APObservation, len(links))
			for i := range links {
				// Polarization loss also erodes the effective SNR of the
				// measurement itself.
				links[i].Channel.SNRdB += 20 * log10Cos(deviation)
				burst, err := wireless.GenerateBurst(links[i].Channel, opt.Packets, rng)
				if err != nil {
					return err
				}
				est := eng.estimateLink(ctx, SysROArray, &links[i], burst)
				obs[i] = links[i].Observation(est.DirectAoADeg)
			}
			pos, _, err := core.LocalizeSearchCtx(ctx, obs, dep.Room, 0.1, 1, core.SearchConfig{})
			if err != nil {
				return err
			}
			errs = append(errs, pos.Dist(client))
			exp.Record(quality.Trial{
				System:   SysROArray,
				Label:    dev.key,
				Scenario: quality.Scenario{Seed: opt.Seed, Band: "medium", APs: opt.APs, Packets: opt.Packets},
				Truth:    quality.Pos(client.X, client.Y),
				Estimate: quality.Pos(pos.X, pos.Y),
				Errors:   map[string]float64{"loc_m": pos.Dist(client)},
			})
		}
		exp.Aggregate("loc_err."+dev.key, "m", errs)
		sum, err := stats.Summarize(dev.name, errs)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s   %s\n", sum.Format(" m"), paper[dev.name])
	}
	return nil
}

// log10Cos returns log10(cos(deg)), floored so extreme deviations stay
// finite; 20*log10Cos is the polarization power loss in dB.
func log10Cos(deg float64) float64 {
	c := math.Cos(deg * math.Pi / 180)
	if c < 1e-3 {
		c = 1e-3
	}
	return math.Log10(c)
}
