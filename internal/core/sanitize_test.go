package core

import (
	"context"
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"roarray/internal/obs"
	"roarray/internal/sparse"
	"roarray/internal/spectra"
	"roarray/internal/wireless"
)

func sanitizeTestBurst(t *testing.T, n int, seed int64) []*wireless.CSI {
	t.Helper()
	cfg := &wireless.ChannelConfig{
		Array: wireless.Intel5300Array(),
		OFDM:  wireless.Intel5300OFDM(),
		Paths: []wireless.Path{{AoADeg: 60, ToA: 20e-9, Gain: 1}},
		SNRdB: 20,
	}
	burst, err := wireless.GenerateBurst(cfg, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return burst
}

func TestCSIShapeAndFiniteChecks(t *testing.T) {
	clean := sanitizeTestBurst(t, 1, 1)[0]
	m, l := clean.NumAntennas, clean.NumSubcarriers
	if p := dimensionProblem(clean, m, l); p != "" {
		t.Fatalf("clean packet: %s", p)
	}
	if n := nonFiniteCount(clean); n != 0 {
		t.Fatalf("clean packet: %d non-finite entries", n)
	}
	if dimensionProblem(nil, m, l) == "" {
		t.Fatal("nil packet passed the shape check")
	}
	if dimensionProblem(clean, m+1, l) == "" {
		t.Fatal("antenna mismatch passed the shape check")
	}
	ragged := clean.Clone()
	ragged.Data[1] = ragged.Data[1][:l-1]
	if dimensionProblem(ragged, m, l) == "" {
		t.Fatal("ragged rows passed the shape check")
	}
	poisoned := clean.Clone()
	poisoned.Data[0][0] = complex(math.NaN(), 0)
	poisoned.Data[2][3] = complex(0, math.Inf(-1))
	if n := nonFiniteCount(poisoned); n != 2 {
		t.Fatalf("poisoned packet: %d non-finite entries, want 2", n)
	}
}

func TestSanitizeBurstCleanIsIdentity(t *testing.T) {
	burst := sanitizeTestBurst(t, 4, 2)
	m, l := burst[0].NumAntennas, burst[0].NumSubcarriers
	out, rep, err := SanitizeBurst(burst, m, l)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &burst[0] {
		t.Fatal("clean burst must come back as the identical slice")
	}
	if !rep.Clean() || rep.Confidence() != 1 {
		t.Fatalf("clean burst report %+v (confidence %v)", rep, rep.Confidence())
	}
}

func TestSanitizeBurstRepairsSparseNaN(t *testing.T) {
	burst := sanitizeTestBurst(t, 3, 3)
	m, l := burst[0].NumAntennas, burst[0].NumSubcarriers
	dirty := append([]*wireless.CSI(nil), burst...)
	poisoned := burst[1].Clone()
	poisoned.Data[0][2] = complex(math.Inf(1), 0) // 1 of m*l entries: repairable
	dirty[1] = poisoned
	want := poisoned.Clone()

	out, rep, err := SanitizeBurst(dirty, m, l)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 1 || rep.Kept != 3 {
		t.Fatalf("report %+v, want 1 repaired of 3 kept", rep)
	}
	if out[1] == poisoned {
		t.Fatal("repair must act on a copy")
	}
	if out[1].Data[0][2] != 0 {
		t.Fatalf("non-finite entry not zeroed: %v", out[1].Data[0][2])
	}
	// Input untouched.
	if !cmplx.IsInf(poisoned.Data[0][2]) || poisoned.Data[0][1] != want.Data[0][1] {
		t.Fatal("input packet mutated")
	}
	if rep.Clean() {
		t.Fatal("repaired burst must not report clean")
	}
}

func TestSanitizeBurstDropsGarbage(t *testing.T) {
	burst := sanitizeTestBurst(t, 3, 4)
	m, l := burst[0].NumAntennas, burst[0].NumSubcarriers
	dirty := append([]*wireless.CSI(nil), burst...)
	// Heavy contamination: every entry non-finite.
	hosed := burst[0].Clone()
	for i := range hosed.Data {
		for j := range hosed.Data[i] {
			hosed.Data[i][j] = complex(math.NaN(), math.NaN())
		}
	}
	dirty[0] = hosed
	// Truncated packet: header and rows agree but are short.
	short := burst[1].Clone()
	for i := range short.Data {
		short.Data[i] = short.Data[i][:l/2]
	}
	short.NumSubcarriers = l / 2
	dirty[1] = short

	out, rep, err := SanitizeBurst(dirty, m, l)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || rep.Kept != 1 || rep.DroppedNonFinite != 1 || rep.DroppedDimension != 1 {
		t.Fatalf("report %+v, want 1 kept, 1 non-finite drop, 1 dimension drop", rep)
	}
	if got := rep.Confidence(); got <= 0.05 || got >= 1 {
		t.Fatalf("confidence %v, want interior value reflecting 1/3 kept", got)
	}
}

func TestSanitizeBurstNoUsablePackets(t *testing.T) {
	_, rep, err := SanitizeBurst([]*wireless.CSI{nil, nil}, 3, 30)
	if !errors.Is(err, ErrNoUsablePackets) {
		t.Fatalf("err = %v, want ErrNoUsablePackets", err)
	}
	if rep.Kept != 0 || rep.DroppedDimension != 2 {
		t.Fatalf("report %+v", rep)
	}
	if rep.Confidence() != confidenceFloor {
		t.Fatalf("confidence %v, want floor %v", rep.Confidence(), confidenceFloor)
	}
}

func TestSanitizeBurstDeadAntennas(t *testing.T) {
	burst := sanitizeTestBurst(t, 3, 5)
	m, l := burst[0].NumAntennas, burst[0].NumSubcarriers
	dead := make([]*wireless.CSI, len(burst))
	for i, p := range burst {
		c := p.Clone()
		for sc := 0; sc < l; sc++ {
			c.Data[0][sc] = 0
		}
		dead[i] = c
	}
	_, rep, err := SanitizeBurst(dead, m, l)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadAntennas != 1 {
		t.Fatalf("report %+v, want 1 dead antenna", rep)
	}
	want := float64(m-1) / float64(m)
	if got := rep.Confidence(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("confidence %v, want %v", got, want)
	}

	// Fully dead link: every antenna zero, confidence bottoms at the floor.
	allDead := make([]*wireless.CSI, len(burst))
	for i := range burst {
		allDead[i] = wireless.NewCSI(m, l)
	}
	_, rep, err = SanitizeBurst(allDead, m, l)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadAntennas != m || rep.Confidence() != confidenceFloor {
		t.Fatalf("all-dead report %+v confidence %v, want floor", rep, rep.Confidence())
	}
}

// TestConfidenceWeightingMovesPosition: down-weighting one AP must actually
// change the Eq. 19 optimum when that AP disagrees with the others —
// otherwise the fusion "weighting" is dead code.
func TestConfidenceWeightingMovesPosition(t *testing.T) {
	room := Rect{MinX: 0, MinY: 0, MaxX: 8, MaxY: 6}
	target := Point{X: 2.5, Y: 3.5}
	aps := []APObservation{
		{Pos: Point{X: 0.1, Y: 0.1}, AxisDeg: 0},
		{Pos: Point{X: 7.9, Y: 0.1}, AxisDeg: 90},
		{Pos: Point{X: 0.1, Y: 5.9}, AxisDeg: 0},
	}
	for i := range aps {
		aps[i].RSSIdBm = -50
		aps[i].AoADeg = ExpectedAoA(aps[i].Pos, aps[i].AxisDeg, target)
	}
	// Poison AP 2 with a wildly wrong AoA.
	aps[2].AoADeg = math.Mod(aps[2].AoADeg+70, 180)

	full, err := localizeFlat(aps, room, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	weighted := append([]APObservation(nil), aps...)
	weighted[2].Confidence = confidenceFloor
	down, err := localizeFlat(weighted, room, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if down.Dist(target) >= full.Dist(target) {
		t.Fatalf("down-weighting the poisoned AP did not help: full-weight err %.3f m, down-weighted err %.3f m",
			full.Dist(target), down.Dist(target))
	}
	// The poisoned AP keeps its floor weight, so the optimum does not snap
	// all the way back to the target — but it must land in its neighborhood
	// instead of being dragged meters away.
	if down.Dist(target) > 1.0 {
		t.Fatalf("down-weighted estimate still %.3f m off", down.Dist(target))
	}

	// Confidence 1 and unset confidence are bit-identical.
	one := append([]APObservation(nil), aps...)
	for i := range one {
		one[i].Confidence = 1
	}
	p1, err := localizeFlat(one, room, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(p1.X) != math.Float64bits(full.X) || math.Float64bits(p1.Y) != math.Float64bits(full.Y) {
		t.Fatal("confidence 1 changed the result bits")
	}
}

// TestSolverFallbackChain: with the iteration budget starved, the primary
// solve cannot converge; Config.Fallback engages the chain and the pipeline
// still produces a direct-path estimate, with the engagement visible in the
// core.solve.fallback_* counters. Without Fallback the counters stay zero.
func TestSolverFallbackChain(t *testing.T) {
	build := func(fallback bool, reg *obs.Registry) *Estimator {
		ofdm := wireless.Intel5300OFDM()
		est, err := NewEstimator(Config{
			Array:         wireless.Intel5300Array(),
			OFDM:          ofdm,
			ThetaGrid:     spectra.UniformGrid(0, 180, 31),
			TauGrid:       spectra.UniformGrid(0, ofdm.MaxToA(), 10),
			SolverOptions: []sparse.Option{sparse.WithMaxIters(2)}, // starved budget
			Fallback:      fallback,
			Metrics:       reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	burst := sanitizeTestBurst(t, 4, 11)

	reg := obs.NewRegistry()
	est := build(true, reg)
	peak, info, err := est.EstimateDirectAoA(context.Background(), burst)
	if err != nil {
		t.Fatalf("fallback pipeline failed: %v", err)
	}
	if peak.ThetaDeg < 0 || peak.ThetaDeg > 180 {
		t.Fatalf("nonsense AoA %v", peak.ThetaDeg)
	}
	if info.Fallback != "omp" {
		t.Fatalf("joint SolveInfo.Fallback = %q, want omp", info.Fallback)
	}

	// The AoA operation runs the same chain and reports the accepted stage.
	if _, info, err := est.EstimateAoA(context.Background(), burst[0]); err != nil {
		t.Fatalf("fallback AoA failed: %v", err)
	} else if info.Fallback != "omp" {
		t.Fatalf("AoA SolveInfo.Fallback = %q, want omp", info.Fallback)
	}
	engaged := reg.Counter("core.solve.fallback_engaged_total").Value()
	if engaged == 0 {
		t.Fatal("starved budget never engaged the fallback chain")
	}
	if omp := reg.Counter("core.solve.fallback_omp_total").Value(); omp != engaged {
		t.Fatalf("fallback_omp_total = %d, want fallback_engaged_total = %d", omp, engaged)
	}

	// Determinism: a second identical estimator reproduces the peak bitwise.
	est2 := build(true, obs.NewRegistry())
	peak2, _, err := est2.EstimateDirectAoA(context.Background(), sanitizeTestBurst(t, 4, 11))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(peak.ThetaDeg) != math.Float64bits(peak2.ThetaDeg) {
		t.Fatalf("fallback chain not deterministic: %v vs %v", peak.ThetaDeg, peak2.ThetaDeg)
	}

	// Off by default: same starved budget, no engagement — the legacy path
	// is allowed to fail outright (a 2-iteration spectrum has no usable
	// peaks), which is precisely the failure mode the chain exists to fix.
	regOff := obs.NewRegistry()
	if _, _, err := build(false, regOff).EstimateDirectAoA(context.Background(), sanitizeTestBurst(t, 4, 11)); err != nil && !errors.Is(err, ErrNoPeaks) {
		t.Fatal(err)
	}
	if _, info, err := build(false, regOff).EstimateAoA(context.Background(), burst[0]); err != nil {
		t.Fatal(err)
	} else if info.Fallback != "" {
		t.Fatalf("AoA SolveInfo.Fallback = %q with Fallback disabled, want empty", info.Fallback)
	}
	if n := regOff.Counter("core.solve.fallback_engaged_total").Value(); n != 0 {
		t.Fatalf("fallback engaged %d times with Fallback disabled", n)
	}
}

// TestFallbackNoopWhenConverged: with a healthy iteration budget the chain
// never engages, and enabling Fallback leaves results bit-identical to the
// legacy path.
func TestFallbackNoopWhenConverged(t *testing.T) {
	mk := func(fallback bool) *Estimator {
		ofdm := wireless.Intel5300OFDM()
		est, err := NewEstimator(Config{
			Array:     wireless.Intel5300Array(),
			OFDM:      ofdm,
			ThetaGrid: spectra.UniformGrid(0, 180, 31),
			TauGrid:   spectra.UniformGrid(0, ofdm.MaxToA(), 10),
			Fallback:  fallback,
		})
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	burst := sanitizeTestBurst(t, 4, 13)
	a, _, err := mk(false).EstimateDirectAoA(context.Background(), burst)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := mk(true).EstimateDirectAoA(context.Background(), burst)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a.ThetaDeg) != math.Float64bits(b.ThetaDeg) ||
		math.Float64bits(a.Tau) != math.Float64bits(b.Tau) {
		t.Fatalf("Fallback flag perturbed a converged run: %+v vs %+v", a, b)
	}
}
