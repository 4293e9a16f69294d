package cmat

// Kron returns the Kronecker product a ⊗ b, of size
// (a.rows*b.rows) x (a.cols*b.cols). The joint space-delay steering
// vector of paper Eq. 13 is exactly kron(gamma(tau), lambda(theta)), so
// dictionaries over separable grids have Kronecker structure.
func Kron(a, b *Matrix) *Matrix {
	out := New(a.rows*b.rows, a.cols*b.cols)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			av := a.At(i, j)
			if av == 0 {
				continue
			}
			for p := 0; p < b.rows; p++ {
				row := out.data[(i*b.rows+p)*out.cols+j*b.cols : (i*b.rows+p)*out.cols+(j+1)*b.cols]
				brow := b.data[p*b.cols : (p+1)*b.cols]
				for q, bv := range brow {
					row[q] = av * bv
				}
			}
		}
	}
	return out
}

// KronVec returns the Kronecker product a ⊗ b of two vectors (length
// len(a)*len(b)).
func KronVec(a, b []complex128) []complex128 {
	out := make([]complex128, len(a)*len(b))
	idx := 0
	for _, av := range a {
		for _, bv := range b {
			out[idx] = av * bv
			idx++
		}
	}
	return out
}
