package cmat

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Norm2 returns the Euclidean norm of v.
func Norm2(v []complex128) float64 {
	var s float64
	for _, x := range v {
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return math.Sqrt(s)
}

// Norm2Sq returns the squared Euclidean norm of v.
func Norm2Sq(v []complex128) float64 {
	var s float64
	for _, x := range v {
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return s
}

// SubVec returns a - b as a new slice.
func SubVec(a, b []complex128) []complex128 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("cmat: SubVec length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]complex128, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// CloneVec returns a copy of v.
func CloneVec(v []complex128) []complex128 {
	out := make([]complex128, len(v))
	copy(out, v)
	return out
}

// OuterAdd accumulates dst += x * yᴴ for column vectors x, y. dst must be
// len(x) x len(y).
func OuterAdd(dst *Matrix, x, y []complex128) {
	if dst.rows != len(x) || dst.cols != len(y) {
		panic(fmt.Sprintf("cmat: OuterAdd shape mismatch %dx%d vs %d,%d", dst.rows, dst.cols, len(x), len(y)))
	}
	for i := range x {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := dst.data[i*dst.cols : (i+1)*dst.cols]
		for j := range y {
			row[j] += xi * cmplx.Conj(y[j])
		}
	}
}
