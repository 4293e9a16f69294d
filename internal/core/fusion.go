package core

import (
	"math"
	"math/cmplx"
	"sort"

	"roarray/internal/wireless"
)

// EstimateRelativeDelay estimates the packet-detection-delay difference
// (pkt minus ref, seconds) between two measurements of the same static
// channel. The per-subcarrier cross product r[l] = sum_m ref[m][l] *
// conj(pkt[m][l]) cancels the common channel and leaves a pure phase ramp
// exp(+j 2 pi f_delta l * delta); the delay is recovered by a matched-filter
// search (the ML estimator under white noise, far more noise-robust than a
// phase-slope fit) over [-1/(2 f_delta), +1/(2 f_delta)] with parabolic
// refinement. That range is 400 ns on the Intel 5300, comfortably above
// real detection-delay spreads.
func EstimateRelativeDelay(ref, pkt *wireless.CSI, ofdm wireless.OFDM) float64 {
	delta, _ := delayMatch(ref, pkt, newDelayTable(ofdm.SubcarrierSpacing, ref.NumSubcarriers))
	return delta
}

// delaySteps is the matched-filter search grid: delaySteps+1 candidate
// delays spanning [-1/(2 f_delta), +1/(2 f_delta)].
const delaySteps = 256

// delayTable holds the matched filter's phasors for one subcarrier spacing
// f_delta and subcarrier count L: row i holds rot_i^l for l = 0..L-1, with
// rot_i = exp(-j 2 pi f_delta delta_i) at the i-th grid delay, each power
// formed by the same chain of multiplications the filter once ran per call,
// so filtering against the table gives the same bits. The phasors depend only
// on the OFDM config, so an Estimator builds its table once and shares it,
// read-only, across goroutines.
type delayTable struct {
	spacing float64
	l       int
	phasors []complex128 // (delaySteps+1) rows of l, row-major
}

func newDelayTable(spacing float64, l int) *delayTable {
	t := &delayTable{spacing: spacing, l: l, phasors: make([]complex128, (delaySteps+1)*l)}
	half := 1 / (2 * spacing)
	for i := 0; i <= delaySteps; i++ {
		rot := cmplx.Exp(complex(0, -2*math.Pi*spacing*gridDelay(half, i)))
		cur := complex(1, 0)
		row := t.phasors[i*l : (i+1)*l]
		for k := range row {
			row[k] = cur
			cur *= rot
		}
	}
	return t
}

// gridDelay returns the i-th candidate delay of the matched-filter search
// over [-half, +half].
func gridDelay(half float64, i int) float64 {
	return -half + 2*half*float64(i)/delaySteps
}

// delayMatch runs the matched-filter delay search and additionally returns a
// normalized correlation score in [0,1]: how much of the two packets' energy
// is explained by a common channel at the best delay. Interfered or
// unrelated packets score low, which AlignAndFilter uses for outlier
// rejection. tab supplies the filter's phasors; a table built for another
// subcarrier count is replaced by one for the packets' own.
func delayMatch(ref, pkt *wireless.CSI, tab *delayTable) (delta, score float64) {
	l := ref.NumSubcarriers
	if l != pkt.NumSubcarriers || ref.NumAntennas != pkt.NumAntennas || l < 2 {
		return 0, 0
	}
	if tab.l != l {
		tab = newDelayTable(tab.spacing, l)
	}
	// The cross product sums on the stack for every real subcarrier count
	// (the Intel 5300 reports 30).
	var rbuf [64]complex128
	var r []complex128
	if l <= len(rbuf) {
		r = rbuf[:l]
	} else {
		r = make([]complex128, l)
	}
	for m := 0; m < ref.NumAntennas; m++ {
		refRow, pktRow := ref.Data[m], pkt.Data[m]
		for i := 0; i < l; i++ {
			r[i] += refRow[i] * cmplx.Conj(pktRow[i])
		}
	}
	// Matched filter: vals[i] = |sum_l r[l] exp(-j 2 pi f_delta l delta_i)|.
	half := 1 / (2 * tab.spacing)
	var vals [delaySteps + 1]float64
	bestIdx, bestVal := 0, math.Inf(-1)
	for i := range vals {
		var acc complex128
		for k, p := range tab.phasors[i*l : (i+1)*l] {
			acc += r[k] * p
		}
		v := cmplx.Abs(acc)
		vals[i] = v
		if v > bestVal {
			bestIdx, bestVal = i, v
		}
	}
	best := gridDelay(half, bestIdx)
	// Parabolic interpolation around the grid maximum.
	if bestIdx > 0 && bestIdx < delaySteps {
		y0, y1, y2 := vals[bestIdx-1], vals[bestIdx], vals[bestIdx+1]
		den := y0 - 2*y1 + y2
		if den < 0 {
			step := gridDelay(half, 1) - gridDelay(half, 0)
			best += step * 0.5 * (y0 - y2) / den
		}
	}
	// Normalized correlation: bestVal is |<x_ref, shift(x_pkt)>| summed over
	// antennas; divide by the product of packet norms.
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

// CompensateDelay removes a known extra delay delta from a measurement by
// counter-rotating the subcarrier phase ramp: subcarrier l is multiplied by
// exp(+j 2 pi f_delta l delta).
func CompensateDelay(csi *wireless.CSI, delta float64, ofdm wireless.OFDM) *wireless.CSI {
	out := csi.Clone()
	out.DetectionDelay = csi.DetectionDelay - delta
	rot := ofdm.PhaseFactor(-delta) // exp(+j 2 pi f_delta delta)
	cur := complex(1, 0)
	for l := 0; l < out.NumSubcarriers; l++ {
		for m := 0; m < out.NumAntennas; m++ {
			out.Data[m][l] *= cur
		}
		cur *= rot
	}
	return out
}

// AlignToReference compensates every packet's detection delay onto the first
// packet's reference using EstimateRelativeDelay — the delay-estimation step
// the paper applies before multi-packet fusion (Fig. 4). The first packet is
// returned as is.
func AlignToReference(packets []*wireless.CSI, ofdm wireless.OFDM) []*wireless.CSI {
	return alignToReference(packets, ofdm, newDelayTable(ofdm.SubcarrierSpacing, ofdm.NumSubcarriers))
}

func alignToReference(packets []*wireless.CSI, ofdm wireless.OFDM, tab *delayTable) []*wireless.CSI {
	if len(packets) == 0 {
		return nil
	}
	out := make([]*wireless.CSI, len(packets))
	out[0] = packets[0]
	for i := 1; i < len(packets); i++ {
		delta, _ := delayMatch(packets[0], packets[i], tab)
		out[i] = CompensateDelay(packets[i], delta, ofdm)
	}
	return out
}

// AlignAndFilter is the robust variant of AlignToReference used by fusion:
// it picks the reference packet by cross-packet consensus (the packet whose
// matched-filter correlation with the others is highest) and drops outlier
// packets — those whose correlation with the reference falls well below the
// burst's median — before aligning. Sporadic co-channel interference lands
// on individual packets; consensus selection keeps an interfered packet from
// becoming the reference, and the filter keeps interfered packets from
// polluting the fused block.
func AlignAndFilter(packets []*wireless.CSI, ofdm wireless.OFDM) []*wireless.CSI {
	return alignAndFilter(packets, ofdm, newDelayTable(ofdm.SubcarrierSpacing, ofdm.NumSubcarriers))
}

// alignAndFilter is AlignAndFilter with the matched filter's phasors taken
// from tab (an Estimator's, built once) rather than built per call.
func alignAndFilter(packets []*wireless.CSI, ofdm wireless.OFDM, tab *delayTable) []*wireless.CSI {
	n := len(packets)
	if n <= 2 {
		return alignToReference(packets, ofdm, tab)
	}
	// Pairwise correlation scores (symmetric up to noise; compute one side).
	scores := make([][]float64, n)
	deltas := make([][]float64, n)
	for i := range scores {
		scores[i] = make([]float64, n)
		deltas[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d, s := delayMatch(packets[i], packets[j], tab)
			scores[i][j], scores[j][i] = s, s
			deltas[i][j], deltas[j][i] = d, -d
		}
	}
	ref, best := 0, -1.0
	for i := 0; i < n; i++ {
		var total float64
		for j := 0; j < n; j++ {
			total += scores[i][j]
		}
		if total > best {
			ref, best = i, total
		}
	}
	// The outlier bar anchors on the strongest correlations to the
	// reference: those pairs are clean-clean with high probability even
	// when interfered packets are the majority (interference is independent
	// per packet, so an interfered packet correlates poorly with everyone).
	toRef := make([]float64, 0, n-1)
	for j := 0; j < n; j++ {
		if j != ref {
			toRef = append(toRef, scores[ref][j])
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(toRef)))
	top := (len(toRef) + 2) / 3
	var topMean float64
	for _, v := range toRef[:top] {
		topMean += v
	}
	topMean /= float64(top)
	bar := 0.75 * topMean

	aligned := make([]*wireless.CSI, n)
	for j := 0; j < n; j++ {
		if j == ref {
			aligned[j] = packets[j]
		} else {
			aligned[j] = CompensateDelay(packets[j], deltas[ref][j], ofdm)
		}
	}
	keep := make([]bool, n)
	keep[ref] = true
	for j := 0; j < n; j++ {
		if j != ref && scores[ref][j] >= bar {
			keep[j] = true
		}
	}

	// Cycle-consistency vote: a correctly estimated delay triple satisfies
	// delta[j][k] = delta[ref][k] - delta[ref][j]. Packets whose pairwise
	// delays disagree with the reference frame were mis-estimated (deep
	// noise or wrap-around) and would smear the fused ToA axis.
	const tol = 20e-9
	for j := 0; j < n; j++ {
		if !keep[j] || j == ref {
			continue
		}
		votes, total := 0, 0
		for k := 0; k < n; k++ {
			if k == j || k == ref || !keep[k] {
				continue
			}
			total++
			want := deltas[ref][k] - deltas[ref][j]
			if math.Abs(deltas[j][k]-want) < tol {
				votes++
			}
		}
		if total >= 2 && votes*2 < total {
			keep[j] = false
		}
	}

	// Second pass: the mean of the kept packets has a sqrt(P) SNR advantage
	// over any single packet, so scoring each packet against it separates
	// clean from interfered packets even deep below 0 dB.
	mean := meanPacket(aligned, keep)
	ms := make([]float64, n)
	for j := 0; j < n; j++ {
		ms[j] = packetCorrelation(mean, aligned[j])
	}
	sorted := append([]float64(nil), ms...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	top2 := (n + 2) / 3
	var topMean2 float64
	for _, v := range sorted[:top2] {
		topMean2 += v
	}
	topMean2 /= float64(top2)
	bar2 := 0.8 * topMean2

	out := make([]*wireless.CSI, 0, n)
	for j := 0; j < n; j++ {
		if ms[j] >= bar2 {
			out = append(out, aligned[j])
		}
	}
	if len(out) == 0 {
		out = append(out, aligned[ref])
	}
	return out
}

// meanPacket averages the kept aligned packets element-wise.
func meanPacket(packets []*wireless.CSI, keep []bool) *wireless.CSI {
	mean := wireless.NewCSI(packets[0].NumAntennas, packets[0].NumSubcarriers)
	count := 0
	for j, p := range packets {
		if keep != nil && !keep[j] {
			continue
		}
		for m := range p.Data {
			for l, v := range p.Data[m] {
				mean.Data[m][l] += v
			}
		}
		count++
	}
	if count > 0 {
		inv := complex(1/float64(count), 0)
		for m := range mean.Data {
			for l := range mean.Data[m] {
				mean.Data[m][l] *= inv
			}
		}
	}
	return mean
}

// packetCorrelation is the normalized inner-product magnitude between two
// aligned measurements.
func packetCorrelation(a, b *wireless.CSI) float64 {
	var dot complex128
	var na, nb float64
	for m := range a.Data {
		for l := range a.Data[m] {
			va, vb := a.Data[m][l], b.Data[m][l]
			dot += va * cmplx.Conj(vb)
			na += real(va)*real(va) + imag(va)*imag(va)
			nb += real(vb)*real(vb) + imag(vb)*imag(vb)
		}
	}
	den := math.Sqrt(na * nb)
	if den == 0 {
		return 0
	}
	return cmplx.Abs(dot) / den
}
