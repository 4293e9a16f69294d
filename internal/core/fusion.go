package core

import (
	"math"
	"math/cmplx"
	"slices"
	"sync"

	"roarray/internal/wireless"
)

// delaySteps is the matched-filter search grid: delaySteps+1 candidate
// delays spanning [-1/(2 f_delta), +1/(2 f_delta)].
const delaySteps = 256

// delayTable holds the matched filter's phasors for one subcarrier spacing
// f_delta and subcarrier count L: row i holds rot_i^l for l = 0..L-1, with
// rot_i = exp(-j 2 pi f_delta delta_i) at the i-th grid delay, each power
// formed by the same chain of multiplications the filter once ran per call,
// so filtering against the table gives the same bits. The phasors depend only
// on the OFDM config, so one table per (spacing, L) is built for the whole
// process (sharedDelayTable) and read, never written, from any goroutine.
type delayTable struct {
	spacing float64
	l       int
	phasors []complex128 // (delaySteps+1) rows of l, row-major
}

// delayTableKey identifies a shared table. The spacing is keyed by its bits
// so that every value, NaN included, finds its one table again.
type delayTableKey struct {
	spacing uint64
	l       int
}

// delayTables holds the process-wide delayTable per delayTableKey. There is
// one entry per OFDM configuration in use (a few KiB to a few tens of KiB
// each), so nothing is ever evicted.
var delayTables sync.Map

// sharedDelayTable returns the process-wide matched-filter table for
// subcarrier spacing and count l, building it on first use. Two goroutines
// that race on a first use may both build it; one table wins and the other
// is dropped, and both are identical.
func sharedDelayTable(spacing float64, l int) *delayTable {
	key := delayTableKey{math.Float64bits(spacing), l}
	if t, ok := delayTables.Load(key); ok {
		return t.(*delayTable)
	}
	t, _ := delayTables.LoadOrStore(key, newDelayTable(spacing, l))
	return t.(*delayTable)
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

// delayMatch estimates the packet-detection-delay difference delta (pkt
// minus ref, seconds) between two measurements of the same static channel.
// The per-subcarrier cross product r[l] = sum_m ref[m][l] * conj(pkt[m][l])
// cancels the common channel and leaves a pure phase ramp
// exp(+j 2 pi f_delta l * delta); the delay is recovered by a matched-filter
// search (the ML estimator under white noise, far more noise-robust than a
// phase-slope fit) over [-1/(2 f_delta), +1/(2 f_delta)] with parabolic
// refinement. That range is 400 ns on the Intel 5300, comfortably above real
// detection-delay spreads. It also returns a normalized correlation score in
// [0,1]: how much of the two packets' energy is explained by a common channel
// at the best delay. Interfered or unrelated packets score low, which the
// alignment's outlier filter uses. tab supplies the filter's phasors; a table built for another
// subcarrier count is replaced by the shared one for the packets' own.
func delayMatch(ref, pkt *wireless.CSI, tab *delayTable) (delta, score float64) {
	l := ref.NumSubcarriers
	if l != pkt.NumSubcarriers || ref.NumAntennas != pkt.NumAntennas || l < 2 {
		return 0, 0
	}
	if tab.l != l {
		tab = sharedDelayTable(tab.spacing, l)
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

// compensateInto writes the delay-compensated measurement into dst as its
// stacked vector (paper Eq. 15, antenna-major within each subcarrier).
// Subcarrier l is multiplied by exp(+j 2 pi f_delta l delta), formed as the
// l-th power of one rotation by repeated multiplication.
func compensateInto(dst []complex128, csi *wireless.CSI, delta float64, ofdm wireless.OFDM) {
	rot := ofdm.PhaseFactor(-delta) // exp(+j 2 pi f_delta delta)
	cur := complex(1, 0)
	idx := 0
	for l := 0; l < csi.NumSubcarriers; l++ {
		for m := 0; m < csi.NumAntennas; m++ {
			dst[idx] = csi.Data[m][l] * cur
			idx++
		}
		cur *= rot
	}
}

// alignment is the delay-alignment stage of a link estimate and its scratch,
// kept in the estimator's pooled link workspace so that a warm estimate
// allocates none of it. align leaves every packet's delay-compensated
// stacked vector in stack, packet by packet, and the packets fusion keeps,
// in burst order, in kept.
type alignment struct {
	stack   []complex128 // n stacked vectors of M*L, packet-major
	applied []float64    // the delay each packet was compensated by
	ref     int          // the reference packet, stacked as is
	kept    []int

	scores, deltas []float64 // n x n pairwise matched-filter results
	keep           []bool
	sorted         []float64 // descending-order scratch
	ms             []float64 // each packet's correlation with the mean
	mean           []complex128
}

// align compensates every packet's detection delay onto a reference, the
// delay-estimation step the paper applies before multi-packet fusion
// (Fig. 4). With filter set and more than two packets it picks the reference
// by cross-packet consensus (the packet whose matched-filter correlation
// with the others is highest) and drops outliers, the packets whose
// correlation with the reference falls well below the burst's median:
// sporadic co-channel interference lands on individual packets, so an
// interfered packet neither becomes the reference nor pollutes the fused
// block. Otherwise the first packet is the reference and every packet is
// kept. packets must be non-empty and share one shape.
func (al *alignment) align(packets []*wireless.CSI, ofdm wireless.OFDM, tab *delayTable, filter bool) {
	n := len(packets)
	ml := packets[0].NumAntennas * packets[0].NumSubcarriers
	al.stack = grow(al.stack, n*ml)
	al.applied = grow(al.applied, n)
	al.kept = al.kept[:0]
	if !filter || n <= 2 {
		al.ref = 0
		al.applied[0] = 0
		packets[0].StackInto(al.stack[:ml])
		al.kept = append(al.kept, 0)
		for i := 1; i < n; i++ {
			delta, _ := delayMatch(packets[0], packets[i], tab)
			al.applied[i] = delta
			compensateInto(al.stack[i*ml:(i+1)*ml], packets[i], delta, ofdm)
			al.kept = append(al.kept, i)
		}
		return
	}
	// Pairwise correlation scores (symmetric up to noise; compute one side).
	al.scores, al.deltas = grow(al.scores, n*n), grow(al.deltas, n*n)
	scores, deltas := al.scores, al.deltas
	for i := 0; i < n; i++ {
		scores[i*n+i], deltas[i*n+i] = 0, 0
		for j := i + 1; j < n; j++ {
			d, s := delayMatch(packets[i], packets[j], tab)
			scores[i*n+j], scores[j*n+i] = s, s
			deltas[i*n+j], deltas[j*n+i] = d, -d
		}
	}
	ref, best := 0, -1.0
	for i := 0; i < n; i++ {
		var total float64
		for _, s := range scores[i*n : (i+1)*n] {
			total += s
		}
		if total > best {
			ref, best = i, total
		}
	}
	al.ref = ref
	refScores, refDeltas := scores[ref*n:(ref+1)*n], deltas[ref*n:(ref+1)*n]
	// The outlier bar anchors on the strongest correlations to the
	// reference: those pairs are clean-clean with high probability even
	// when interfered packets are the majority (interference is independent
	// per packet, so an interfered packet correlates poorly with everyone).
	toRef := al.sorted[:0]
	for j := 0; j < n; j++ {
		if j != ref {
			toRef = append(toRef, refScores[j])
		}
	}
	al.sorted = toRef
	bar := 0.75 * topMean(toRef, (len(toRef)+2)/3)

	for j := 0; j < n; j++ {
		v := al.stack[j*ml : (j+1)*ml]
		if j == ref {
			al.applied[j] = 0
			packets[j].StackInto(v)
		} else {
			al.applied[j] = refDeltas[j]
			compensateInto(v, packets[j], refDeltas[j], ofdm)
		}
	}
	al.keep = grow(al.keep, n)
	keep := al.keep
	for j := 0; j < n; j++ {
		keep[j] = j == ref || refScores[j] >= bar
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
			want := refDeltas[k] - refDeltas[j]
			if math.Abs(deltas[j*n+k]-want) < tol {
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
	al.meanOfKept(n, ml)
	al.ms = grow(al.ms, n)
	ms := al.ms
	m := packets[0].NumAntennas
	for j := 0; j < n; j++ {
		ms[j] = stackedCorrelation(al.mean, al.stack[j*ml:(j+1)*ml], m)
	}
	al.sorted = append(al.sorted[:0], ms...)
	bar2 := 0.8 * topMean(al.sorted, (n+2)/3)

	for j := 0; j < n; j++ {
		if ms[j] >= bar2 {
			al.kept = append(al.kept, j)
		}
	}
	if len(al.kept) == 0 {
		al.kept = append(al.kept, ref)
	}
}

// topMean sorts v in descending order and returns the mean of its first top
// values. The order is that of sort.Sort(sort.Reverse(sort.Float64Slice(v)))
// (pdqsort consults a comparison only as cmp(a, b) < 0, and NaNs sort last),
// so the sum adds the same values in the same order.
func topMean(v []float64, top int) float64 {
	slices.SortFunc(v, func(a, b float64) int {
		if b < a || (math.IsNaN(b) && !math.IsNaN(a)) {
			return -1
		}
		return 1
	})
	var sum float64
	for _, x := range v[:top] {
		sum += x
	}
	return sum / float64(top)
}

// meanOfKept averages the kept packets' stacked vectors element-wise into
// al.mean.
func (al *alignment) meanOfKept(n, ml int) {
	al.mean = grow(al.mean, ml)
	mean := al.mean
	clear(mean)
	count := 0
	for j := 0; j < n; j++ {
		if !al.keep[j] {
			continue
		}
		for i, v := range al.stack[j*ml : (j+1)*ml] {
			mean[i] += v
		}
		count++
	}
	if count > 0 {
		inv := complex(1/float64(count), 0)
		for i := range mean {
			mean[i] *= inv
		}
	}
}

// stackedCorrelation is the normalized inner-product magnitude between two
// aligned measurements given as stacked vectors of m antennas per
// subcarrier, with the sums taken antenna by antenna, subcarrier by
// subcarrier within each antenna.
func stackedCorrelation(a, b []complex128, m int) float64 {
	var dot complex128
	var na, nb float64
	l := len(a) / m
	for ant := 0; ant < m; ant++ {
		for sc := 0; sc < l; sc++ {
			va, vb := a[sc*m+ant], b[sc*m+ant]
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

// grow returns b resliced to length n, reallocated when its capacity is
// short. The contents are unspecified.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}
