package core

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"roarray/internal/wireless"
)

// delayMatchReference is the matched-filter delay search as it ran before
// the phasor table: every call forms each candidate delay's rotation with
// cmplx.Exp and its powers by repeated multiplication. delayMatch must
// reproduce it bit for bit.
func delayMatchReference(ref, pkt *wireless.CSI, ofdm wireless.OFDM) (delta, score float64) {
	l := ref.NumSubcarriers
	if l != pkt.NumSubcarriers || ref.NumAntennas != pkt.NumAntennas || l < 2 {
		return 0, 0
	}
	r := make([]complex128, l)
	for m := 0; m < ref.NumAntennas; m++ {
		refRow, pktRow := ref.Data[m], pkt.Data[m]
		for i := 0; i < l; i++ {
			r[i] += refRow[i] * cmplx.Conj(pktRow[i])
		}
	}
	half := 1 / (2 * ofdm.SubcarrierSpacing)
	const steps = 256
	eval := func(delta float64) float64 {
		rot := cmplx.Exp(complex(0, -2*math.Pi*ofdm.SubcarrierSpacing*delta))
		cur := complex(1, 0)
		var acc complex128
		for i := 0; i < l; i++ {
			acc += r[i] * cur
			cur *= rot
		}
		return cmplx.Abs(acc)
	}
	bestIdx, bestVal := 0, math.Inf(-1)
	deltas := make([]float64, steps+1)
	vals := make([]float64, steps+1)
	for i := 0; i <= steps; i++ {
		d := -half + 2*half*float64(i)/steps
		v := eval(d)
		deltas[i], vals[i] = d, v
		if v > bestVal {
			bestIdx, bestVal = i, v
		}
	}
	best := deltas[bestIdx]
	if bestIdx > 0 && bestIdx < steps {
		y0, y1, y2 := vals[bestIdx-1], vals[bestIdx], vals[bestIdx+1]
		den := y0 - 2*y1 + y2
		if den < 0 {
			step := deltas[1] - deltas[0]
			best += step * 0.5 * (y0 - y2) / den
		}
	}
	var nRef, nPkt float64
	for m := 0; m < ref.NumAntennas; m++ {
		for i := 0; i < l; i++ {
			v := ref.Data[m][i]
			nRef += real(v)*real(v) + imag(v)*imag(v)
			w := pkt.Data[m][i]
			nPkt += real(w)*real(w) + imag(w)*imag(w)
		}
	}
	den := math.Sqrt(nRef * nPkt)
	if den > 0 {
		score = bestVal / den
	}
	return best, score
}

// delayTableShapes are the smoke preset's OFDM config (8 subcarriers at
// 4 MHz) and the paper's Intel 5300 (30 subcarriers).
var delayTableShapes = []struct {
	name string
	ofdm wireless.OFDM
}{
	{"smoke", wireless.OFDM{NumSubcarriers: 8, SubcarrierSpacing: 4e6}},
	{"paper", wireless.Intel5300OFDM()},
}

// delayPair returns a packet pair of one channel seen at two random
// detection delays with independent noise, or, for odd i, two unrelated
// random packets.
func delayPair(rng *rand.Rand, ofdm wireless.OFDM, i int) (*wireless.CSI, *wireless.CSI) {
	const m = 3
	l := ofdm.NumSubcarriers
	ref, pkt := wireless.NewCSI(m, l), wireless.NewCSI(m, l)
	d := (rng.Float64() - 0.5) / ofdm.SubcarrierSpacing
	for a := 0; a < m; a++ {
		for s := 0; s < l; s++ {
			h := complex(rng.NormFloat64(), rng.NormFloat64())
			ref.Data[a][s] = h + complex(0.3*rng.NormFloat64(), 0.3*rng.NormFloat64())
			if i%2 == 1 {
				pkt.Data[a][s] = complex(rng.NormFloat64(), rng.NormFloat64())
				continue
			}
			rot := cmplx.Exp(complex(0, -2*math.Pi*ofdm.SubcarrierSpacing*float64(s)*d))
			pkt.Data[a][s] = h*rot + complex(0.3*rng.NormFloat64(), 0.3*rng.NormFloat64())
		}
	}
	return ref, pkt
}

// TestDelayMatchTableBitIdentical: the table-driven matched filter returns
// the delay and score of the per-call reference bit for bit, at the smoke
// and paper shapes, on 2,000 random pairs each (half of one channel at two
// delays, half unrelated).
func TestDelayMatchTableBitIdentical(t *testing.T) {
	for _, sh := range delayTableShapes {
		tab := newDelayTable(sh.ofdm.SubcarrierSpacing, sh.ofdm.NumSubcarriers)
		rng := rand.New(rand.NewSource(31))
		for i := 0; i < 2000; i++ {
			ref, pkt := delayPair(rng, sh.ofdm, i)
			gd, gs := delayMatch(ref, pkt, tab)
			wd, ws := delayMatchReference(ref, pkt, sh.ofdm)
			if math.Float64bits(gd) != math.Float64bits(wd) || math.Float64bits(gs) != math.Float64bits(ws) {
				t.Fatalf("%s pair %d: delta %v score %v, reference %v %v", sh.name, i, gd, gs, wd, ws)
			}
		}
	}
}

// TestDelayMatchForeignTable: a table built for another subcarrier count is
// replaced by one for the packets' own, so the result still matches the
// reference bit for bit.
func TestDelayMatchForeignTable(t *testing.T) {
	smoke, paper := delayTableShapes[0].ofdm, delayTableShapes[1].ofdm
	tab := newDelayTable(paper.SubcarrierSpacing, smoke.NumSubcarriers)
	rng := rand.New(rand.NewSource(32))
	ref, pkt := delayPair(rng, paper, 0)
	gd, gs := delayMatch(ref, pkt, tab)
	wd, ws := delayMatchReference(ref, pkt, paper)
	if math.Float64bits(gd) != math.Float64bits(wd) || math.Float64bits(gs) != math.Float64bits(ws) {
		t.Fatalf("delta %v score %v, reference %v %v", gd, gs, wd, ws)
	}
}

// BenchmarkDelayMatch measures one table-driven matched-filter search at the
// smoke shape; BenchmarkDelayMatchReference the per-call reference it
// replaced.
func BenchmarkDelayMatch(b *testing.B) {
	ofdm := delayTableShapes[0].ofdm
	tab := newDelayTable(ofdm.SubcarrierSpacing, ofdm.NumSubcarriers)
	ref, pkt := delayPair(rand.New(rand.NewSource(33)), ofdm, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delayMatch(ref, pkt, tab)
	}
}

func BenchmarkDelayMatchReference(b *testing.B) {
	ofdm := delayTableShapes[0].ofdm
	ref, pkt := delayPair(rand.New(rand.NewSource(33)), ofdm, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delayMatchReference(ref, pkt, ofdm)
	}
}
