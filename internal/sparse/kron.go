package sparse

import (
	"fmt"
	"math"
	"math/cmplx"

	"roarray/internal/cmat"
)

// kronOps applies a dictionary with Kronecker structure without ever
// touching the dense matrix: when A[(l*M+m), (t*C+i)] = G[l][t] * S[m][i]
// for a row factor G (L x T) and a column factor S (M x C) — exactly the
// shape of the joint space-delay steering dictionary, whose atoms are
// products of a delay response and an array response — a matvec factors into
// two small contractions, and so does the ADMM x-update (see woodburyInto).
// For the paper's dimensions (90 x 920 from factors 30 x 20 and 3 x 46) a
// matvec costs 4,560 complex multiply-adds per snapshot column instead of
// 82,800, and a whole x-update 6,720 instead of the dense path's 173,700
// (two matvecs plus a 90 x 90 Cholesky solve); at the serving shape (8 x 8
// and 3 x 19) an x-update is 1,104. The x-update kernel runs its two
// contractions with S' four outputs at a time, so one load of a factor entry
// feeds four independent accumulators; on a 2-CPU Intel Xeon (Go 1.24) that
// took BenchmarkKronWoodbury from a median 3.7 to 3.0 µs per column at the
// serving shape. The factored results are numerically equivalent but not
// bit-identical to the dense kernels (the products associate differently),
// so a Kronecker solver is built explicitly, from the factors alone
// (NewKronSolver); core builds every joint space-delay solver that way. Its
// construction never forms A either: the default rho comes from frobNorm and
// the FISTA Lipschitz constant from sigma.
type kronOps struct {
	ll, tt int // row factor shape (L x T)
	mm, cc int // column factor shape (M x C)
	// Flat row-major factor data plus precomputed conjugates, so the
	// per-iteration contractions run on raw slices.
	g, s         []complex128
	gConj, sConj []complex128

	// Factored ADMM ridge step (factorWoodbury), built only for ADMM:
	// sp = Vᴴ S (M x C) for the eigenvectors V of S Sᴴ, spConj its
	// elementwise conjugate (also M x C row-major, so the S'ᴴ contraction
	// reads adjacent angles contiguously), and h the M row-major T x T
	// blocks H_m = Gᴴ (rho I_L + sigma_m G Gᴴ)⁻¹ G.
	sp, spConj []complex128
	h          []complex128
}

func newKronOps(g, s *cmat.Matrix) *kronOps {
	k := &kronOps{
		ll: g.Rows(), tt: g.Cols(),
		mm: s.Rows(), cc: s.Cols(),
	}
	k.g = append([]complex128(nil), g.Data()...)
	k.s = append([]complex128(nil), s.Data()...)
	k.gConj = make([]complex128, len(k.g))
	for i, v := range k.g {
		k.gConj[i] = cmplx.Conj(v)
	}
	k.sConj = make([]complex128, len(k.s))
	for i, v := range k.s {
		k.sConj[i] = cmplx.Conj(v)
	}
	return k
}

// frobNorm returns ||A||_F without forming A: it sums |G[l][t]·S[m][i]|² in
// A's row-major order (l, m, t, i), the order cmat.FrobNorm sums the entries
// of cmat.Kron(G, S) in, so it has the same bits.
func (k *kronOps) frobNorm() float64 {
	var sum float64
	for l := 0; l < k.ll; l++ {
		for m := 0; m < k.mm; m++ {
			for _, gv := range k.g[l*k.tt : (l+1)*k.tt] {
				for _, sv := range k.s[m*k.cc : (m+1)*k.cc] {
					v := gv * sv
					sum += real(v)*real(v) + imag(v)*imag(v)
				}
			}
		}
	}
	return math.Sqrt(sum)
}

// sigma returns the largest singular value of A = G ⊗ S, which is exactly
// σ_max(G)·σ_max(S): the singular values of a Kronecker product are the
// pairwise products of its factors'. Each factor takes one power iteration.
func (k *kronOps) sigma() float64 {
	g, s := cmat.Wrap(k.ll, k.tt, k.g), cmat.Wrap(k.mm, k.cc, k.s)
	return cmat.PowerIterationLargestSingular(&g, 60) * cmat.PowerIterationLargestSingular(&s, 60)
}

// scratchLen is the scratch length the kernels need for operands with nc
// columns: mulInto and mulHInto use M·T entries, woodburyInto 2·M·T plus,
// when nc > 1, T·C to gather one column contiguously.
func (k *kronOps) scratchLen(nc int) int {
	n := 2 * k.mm * k.tt
	if nc > 1 {
		n += k.tt * k.cc
	}
	return n
}

// factorWoodbury precomputes the block-diagonal form of the ADMM ridge
// operator Aᴴ(rho I + A Aᴴ)⁻¹A from the factors. Row (l*M+m) of A = G ⊗ S
// pairs delay row l with antenna m, so A Aᴴ = G Gᴴ ⊗ S Sᴴ. With
// S Sᴴ = V Σ Vᴴ, rotating the antenna axis by V turns rho I + A Aᴴ into M
// independent L x L blocks rho I_L + sigma_m G Gᴴ, hence
//
//	Aᴴ(rho I + A Aᴴ)⁻¹A = (G ⊗ S')ᴴ blockdiag_m((rho I_L + sigma_m G Gᴴ)⁻¹) (G ⊗ S')
//	                    = S'ᴴ · blockdiag_m(H_m) · S'  (acting on the delay and antenna axes)
//
// with S' = Vᴴ S and H_m = Gᴴ(rho I_L + sigma_m G Gᴴ)⁻¹G. The eigenvalues
// are clamped at zero: S Sᴴ is positive semidefinite, and a rank-deficient
// one can come back from the eigensolver a rounding error below zero.
func (k *kronOps) factorWoodbury(rho float64) error {
	gv, sv := cmat.Wrap(k.ll, k.tt, k.g), cmat.Wrap(k.mm, k.cc, k.s)
	g, s := &gv, &sv
	eig, err := cmat.EigHermitian(cmat.Mul(s, s.H()))
	if err != nil {
		return fmt.Errorf("sparse: eigendecompose Kronecker column Gram: %w", err)
	}
	k.sp = cmat.MulH(eig.Vectors, s).Data()
	k.spConj = make([]complex128, len(k.sp))
	for i, v := range k.sp {
		k.spConj[i] = cmplx.Conj(v)
	}
	ggh := cmat.Mul(g, g.H())
	kb := cmat.New(k.ll, k.ll)
	x := cmat.New(k.ll, k.tt)
	fwd := make([]complex128, k.ll)
	bwd := make([]complex128, k.ll)
	k.h = make([]complex128, 0, k.mm*k.tt*k.tt)
	for m, sigma := range eig.Values {
		sigma = math.Max(sigma, 0)
		gd, kd := ggh.Data(), kb.Data()
		for i := range kd {
			kd[i] = complex(sigma, 0) * gd[i]
		}
		for i := 0; i < k.ll; i++ {
			kb.Set(i, i, kb.At(i, i)+complex(rho, 0))
		}
		chol, err := cmat.CholeskyDecompose(kb)
		if err != nil {
			return fmt.Errorf("sparse: factor Kronecker ADMM block %d: %w", m, err)
		}
		chol.SolveBatchInto(g, x, fwd, bwd)
		k.h = append(k.h, cmat.MulH(g, x).Data()...)
	}
	return nil
}

// woodburyInto computes out = Aᴴ(rho I + A Aᴴ)⁻¹A v for v with nc columns
// from the factors built by factorWoodbury, per column
// Q[m][t] = sum_i S'[m][i] v[(t*C+i)],  R[m] = H_m Q[m],  and
// out[(t*C+i)] = sum_m conj(S'[m][i]) R[m][t]:
// 2·M·T·C + M·T² complex multiply-adds, where the Kronecker matvec pair plus
// a dense Cholesky solve costs 2·(M·T·C + L·M·T) + (L·M)². A single column
// runs the kernel in place on the matrices' storage; wider operands gather
// each column into contiguous scratch and scatter the result back, so every
// column count runs the same kernel and sums the same products in the same
// order.
func (k *kronOps) woodburyInto(v, out *cmat.Matrix, scratch []complex128) {
	nc := v.Cols()
	vd, od := v.Data(), out.Data()
	if nc == 1 {
		k.woodburyCol(vd, od, scratch)
		return
	}
	col := scratch[2*k.mm*k.tt : 2*k.mm*k.tt+k.tt*k.cc]
	for c := 0; c < nc; c++ {
		for j := range col {
			col[j] = vd[j*nc+c]
		}
		k.woodburyCol(col, col, scratch)
		for j, x := range col {
			od[j*nc+c] = x
		}
	}
}

// woodburyCol is woodburyInto's kernel for one contiguous T·C column. out
// may alias v: every read of v precedes the first write to out. The two
// contractions with S' are register-blocked — four delays share each load of
// S'[m][i] in the first, four angles share each load of R[m][t] in the last —
// with one accumulator per output summing over i (or m) in ascending order,
// exactly as an unblocked dot product would.
func (k *kronOps) woodburyCol(v, out, scratch []complex128) {
	mm, tt, cc := k.mm, k.tt, k.cc
	q, r := scratch[:mm*tt], scratch[mm*tt:2*mm*tt] // Q is m-major, R t-major
	for m := 0; m < mm; m++ {
		srow := k.sp[m*cc:][:cc]
		qrow := q[m*tt:][:tt]
		t := 0
		for ; t+4 <= tt; t += 4 {
			v0, v1 := v[t*cc:][:cc], v[(t+1)*cc:][:cc]
			v2, v3 := v[(t+2)*cc:][:cc], v[(t+3)*cc:][:cc]
			var a0, a1, a2, a3 complex128
			for i, sv := range srow {
				a0 += sv * v0[i]
				a1 += sv * v1[i]
				a2 += sv * v2[i]
				a3 += sv * v3[i]
			}
			qrow[t], qrow[t+1], qrow[t+2], qrow[t+3] = a0, a1, a2, a3
		}
		for ; t < tt; t++ {
			vt := v[t*cc:][:cc]
			var acc complex128
			for i, sv := range srow {
				acc += sv * vt[i]
			}
			qrow[t] = acc
		}
	}
	for m := 0; m < mm; m++ {
		qrow := q[m*tt : (m+1)*tt]
		for t := 0; t < tt; t++ {
			hrow := k.h[(m*tt+t)*tt : (m*tt+t+1)*tt]
			var acc complex128
			for tp, qv := range qrow {
				acc += hrow[tp] * qv
			}
			r[t*mm+m] = acc
		}
	}
	spc := k.spConj[:mm*cc]
	for t := 0; t < tt; t++ {
		rrow := r[t*mm:][:mm]
		orow := out[t*cc:][:cc]
		i := 0
		for ; i+4 <= cc; i += 4 {
			var a0, a1, a2, a3 complex128
			for m, rv := range rrow {
				sc := spc[m*cc+i:][:4]
				a0 += sc[0] * rv
				a1 += sc[1] * rv
				a2 += sc[2] * rv
				a3 += sc[3] * rv
			}
			orow[i], orow[i+1], orow[i+2], orow[i+3] = a0, a1, a2, a3
		}
		for ; i < cc; i++ {
			var acc complex128
			for m, rv := range rrow {
				acc += spc[m*cc+i] * rv
			}
			orow[i] = acc
		}
	}
}

// mulInto computes out = A v for v with nc columns:
// P[m][t] = sum_i S[m][i] v[(t*C+i)]  then  out[(l*M+m)] = sum_t G[l][t] P[m][t].
func (k *kronOps) mulInto(v, out *cmat.Matrix, scratch []complex128) {
	nc := v.Cols()
	vd, od := v.Data(), out.Data()
	for c := 0; c < nc; c++ {
		for t := 0; t < k.tt; t++ {
			base := t*k.cc*nc + c
			for m := 0; m < k.mm; m++ {
				srow := k.s[m*k.cc : (m+1)*k.cc]
				var acc complex128
				idx := base
				for _, sv := range srow {
					acc += sv * vd[idx]
					idx += nc
				}
				scratch[m*k.tt+t] = acc
			}
		}
		for l := 0; l < k.ll; l++ {
			grow := k.g[l*k.tt : (l+1)*k.tt]
			obase := l*k.mm*nc + c
			for m := 0; m < k.mm; m++ {
				prow := scratch[m*k.tt : (m+1)*k.tt]
				var acc complex128
				for t, gv := range grow {
					acc += gv * prow[t]
				}
				od[obase+m*nc] = acc
			}
		}
	}
}

// residual2 returns ||A z - y||_F² for z with nc columns whose nonzero rows
// are listed in nz. Per column the S-contraction runs over those atoms only,
// P[m][t] = sum over (t*C+i) in nz of S[m][i] z[(t*C+i)], and G then maps
// P to (A z)[(l*M+m)] = sum_t G[l][t] P[m][t]: M·|nz| + L·M·T complex
// multiply-adds per column, against M·T·C + L·M·T for mulInto.
func (k *kronOps) residual2(z, y *cmat.Matrix, nz []int, scratch []complex128) float64 {
	nc := z.Cols()
	zd, yd := z.Data(), y.Data()
	p := scratch[:k.mm*k.tt]
	var r2 float64
	for c := 0; c < nc; c++ {
		clear(p)
		for _, j := range nz {
			t, i := j/k.cc, j%k.cc
			zv := zd[j*nc+c]
			for m := 0; m < k.mm; m++ {
				p[m*k.tt+t] += k.s[m*k.cc+i] * zv
			}
		}
		for l := 0; l < k.ll; l++ {
			grow := k.g[l*k.tt : (l+1)*k.tt]
			for m := 0; m < k.mm; m++ {
				prow := p[m*k.tt : (m+1)*k.tt]
				var acc complex128
				for t, gv := range grow {
					acc += gv * prow[t]
				}
				d := acc - yd[(l*k.mm+m)*nc+c]
				r2 += real(d)*real(d) + imag(d)*imag(d)
			}
		}
	}
	return r2
}

// mulHInto computes out = Aᴴ w for w with nc columns:
// Q[m][t] = sum_l conj(G[l][t]) w[(l*M+m)]  then
// out[(t*C+i)] = sum_m conj(S[m][i]) Q[m][t].
func (k *kronOps) mulHInto(w, out *cmat.Matrix, scratch []complex128) {
	nc := w.Cols()
	wd, od := w.Data(), out.Data()
	for c := 0; c < nc; c++ {
		for m := 0; m < k.mm; m++ {
			qrow := scratch[m*k.tt : (m+1)*k.tt]
			for t := range qrow {
				qrow[t] = 0
			}
			for l := 0; l < k.ll; l++ {
				wv := wd[(l*k.mm+m)*nc+c]
				if wv == 0 {
					continue
				}
				grow := k.gConj[l*k.tt : (l+1)*k.tt]
				for t, gv := range grow {
					qrow[t] += gv * wv
				}
			}
		}
		for t := 0; t < k.tt; t++ {
			obase := t*k.cc*nc + c
			for i := 0; i < k.cc; i++ {
				var acc complex128
				for m := 0; m < k.mm; m++ {
					acc += k.sConj[m*k.cc+i] * scratch[m*k.tt+t]
				}
				od[obase+i*nc] = acc
			}
		}
	}
}
