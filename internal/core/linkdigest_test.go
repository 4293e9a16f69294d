package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"roarray/internal/sparse"
	"roarray/internal/spectra"
	"roarray/internal/wireless"
)

// linkPipelineDigest pins the bits of every stage of the per-link pipeline
// (see TestLinkPipelineDigest): the aligned packets of the delay alignment
// with and without its outlier filter, the spectra of EstimateJoint and EstimateJointFusedInfoCtx,
// and the peaks of DirectPath and EstimateDirectAoA with their SolveInfo.
const linkPipelineDigest = "6741258f400ab6ebaa7730616cb4e54c3a5d27354d6989a973e3f40e35b7e50e"

// linkDigestEstimators are the shapes the digest covers: the smoke serving
// profile (8 subcarriers, gap stop), the paper's 30-subcarrier OFDM at a
// small grid without the gap stop, and the smoke shape under
// Config.Fallback with an iteration cap low enough to send solves to OMP.
func linkDigestEstimators(t *testing.T) []*Estimator {
	t.Helper()
	smoke := smokeServingConfig()
	paper := Config{
		Array:         wireless.Intel5300Array(),
		OFDM:          wireless.Intel5300OFDM(),
		ThetaGrid:     spectra.UniformGrid(0, 180, 19),
		TauGrid:       spectra.UniformGrid(0, wireless.Intel5300OFDM().MaxToA(), 10),
		SolverOptions: []sparse.Option{sparse.WithMaxIters(60)},
	}
	fallback := smokeServingConfig()
	fallback.Fallback = true
	fallback.SolverOptions = []sparse.Option{sparse.WithMaxIters(3)}
	var out []*Estimator
	for _, cfg := range []Config{smoke, paper, fallback} {
		est, err := NewEstimator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, est)
	}
	return out
}

// TestLinkPipelineDigest runs seeded bursts of 1, 2, 3, 5 and 8 packets
// (two paths, random detection delays, a third of the packets interfered)
// through every stage of the per-link pipeline on each digest estimator and
// hashes every bit of every output, so a change to any stage's arithmetic,
// or a pooled buffer leaking one estimate's values into the next, moves the
// digest. The bursts must reach every regime: the outlier filter dropping a
// packet, the OMP fallback, and direct paths found.
func TestLinkPipelineDigest(t *testing.T) {
	h := sha256.New()
	ctx := context.Background()
	var dropped, omp, peaks int
	for e, est := range linkDigestEstimators(t) {
		cfg := est.Config()
		rng := rand.New(rand.NewSource(int64(600 + e)))
		for round := 0; round < 6; round++ {
			for _, n := range []int{1, 2, 3, 5, 8} {
				cc := &wireless.ChannelConfig{
					Array: cfg.Array, OFDM: cfg.OFDM,
					Paths: []wireless.Path{
						{AoADeg: 20 + 140*rng.Float64(), ToA: 20e-9 + 60e-9*rng.Float64(), Gain: 1},
						{AoADeg: 20 + 140*rng.Float64(), ToA: 120e-9 + 100e-9*rng.Float64(), Gain: 0.6},
					},
					SNRdB:             5 + 20*rng.Float64(),
					MaxDetectionDelay: 150e-9,
					InterferenceProb:  0.3,
					InterferenceINR:   6,
				}
				burst, err := wireless.GenerateBurst(cc, n, rng)
				if err != nil {
					t.Fatal(err)
				}
				hashPackets(h, alignPackets(burst, cfg.OFDM, false))
				kept := alignPackets(burst, cfg.OFDM, true)
				hashPackets(h, kept)
				if len(kept) < n {
					dropped++
				}
				joint, info, err := est.EstimateJoint(ctx, burst[0])
				hashEstimate(h, joint, info, err)
				fused, info, err := est.EstimateJointFusedInfoCtx(ctx, burst)
				hashEstimate(h, fused, info, err)
				if err == nil {
					peak, err := est.DirectPath(fused)
					hashPeak(h, peak, SolveInfo{}, err)
				}
				peak, info, err := est.EstimateDirectAoA(ctx, burst)
				hashPeak(h, peak, info, err)
				if info.Fallback == "omp" {
					omp++
				}
				if err == nil {
					peaks++
				}
			}
		}
	}
	if dropped == 0 || omp == 0 || peaks == 0 {
		t.Fatalf("coverage: %d filtered bursts, %d OMP fallbacks, %d direct paths — every regime must be exercised", dropped, omp, peaks)
	}
	t.Logf("%d filtered bursts, %d OMP fallbacks, %d direct paths", dropped, omp, peaks)
	if got := hex.EncodeToString(h.Sum(nil)); got != linkPipelineDigest {
		t.Fatalf("link pipeline digest %s, want %s", got, linkPipelineDigest)
	}
}

func hashFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

func hashPackets(h hash.Hash, packets []*wireless.CSI) {
	hashFloat(h, float64(len(packets)))
	for _, p := range packets {
		hashFloat(h, p.DetectionDelay)
		for _, row := range p.Data {
			for _, v := range row {
				hashFloat(h, real(v))
				hashFloat(h, imag(v))
			}
		}
	}
}

func hashInfo(h hash.Hash, info SolveInfo, err error) {
	h.Write([]byte(info.Solver + "/" + info.Fallback))
	hashFloat(h, float64(info.Iterations))
	if info.Converged {
		hashFloat(h, 1)
	}
	hashFloat(h, info.Gap)
	if err != nil {
		h.Write([]byte(err.Error()))
	}
}

func hashEstimate(h hash.Hash, spec *spectra.Spectrum2D, info SolveInfo, err error) {
	hashInfo(h, info, err)
	if spec == nil {
		return
	}
	for _, v := range spec.ThetaDeg {
		hashFloat(h, v)
	}
	for _, v := range spec.Tau {
		hashFloat(h, v)
	}
	for _, row := range spec.Power {
		for _, v := range row {
			hashFloat(h, v)
		}
	}
}

func hashPeak(h hash.Hash, p spectra.Peak, info SolveInfo, err error) {
	hashInfo(h, info, err)
	hashFloat(h, p.ThetaDeg)
	hashFloat(h, p.Tau)
	hashFloat(h, p.Power)
}
