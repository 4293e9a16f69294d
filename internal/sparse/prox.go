package sparse

import "math"

// GroupSoftThreshold shrinks a coefficient row (one atom across all
// snapshots) by t in its l2 norm, the proximal map of the l2,1 mixed norm
// used by l1-SVD fusion. It writes the result into dst, which may alias row.
func GroupSoftThreshold(dst, row []complex128, t float64) {
	var n2 float64
	for _, x := range row {
		n2 += real(x)*real(x) + imag(x)*imag(x)
	}
	n := math.Sqrt(n2)
	if n <= t {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	s := complex(1-t/n, 0)
	for i, x := range row {
		dst[i] = s * x
	}
}

// rowNorm returns the l2 norm of a row.
func rowNorm(row []complex128) float64 {
	var n2 float64
	for _, x := range row {
		n2 += real(x)*real(x) + imag(x)*imag(x)
	}
	return math.Sqrt(n2)
}
