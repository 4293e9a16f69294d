package sparse

import (
	"math"

	"roarray/internal/cmat"
)

// gapCert is the duality-gap certificate of the group LASSO
//
//	P(Z) = 1/2 ||AZ - Y||_F^2 + kappa * sum_i ||Z_i||_2.
//
// Its dual is D(Θ) = Re<Θ, Y> - 1/2 ||Θ||_F^2 over the Θ with
// ||(AᴴΘ)_i||_2 <= kappa for every row i, and weak duality gives
// D(Θ) <= P* <= P(Z) for any such Θ and any Z. Both solvers hand in a
// residual R = Y - AW at some point W together with max_i ||(AᴴR)_i||; the
// scaled residual s·R with s = min(1, kappa / max_i ||(AᴴR)_i||) is then dual
// feasible, with value s·Re<R, Y> - 1/2 s² ||R||². The certificate keeps the
// best such value, so (P - best)/P bounds the relative suboptimality of any
// iterate whose objective is P.
type gapCert struct {
	kappa float64
	best  float64 // best dual value so far; -Inf before the first
	nz    []int   // the iterate's nonzero rows, scratch for certified
}

// newGapCert starts a certificate for weight kappa, collecting nonzero rows
// into nz's storage (a pooled workspace's, so a warm solve grows none).
func newGapCert(kappa float64, nz []int) gapCert {
	return gapCert{kappa: kappa, best: math.Inf(-1), nz: nz[:0]}
}

// observe folds in the dual point built from a residual R with
// ry = Re<R, Y>, r2 = ||R||² and gmax = max_i ||(AᴴR)_i||. An r2 that
// rounding took below zero counts as zero, the conservative choice.
func (c *gapCert) observe(ry, r2, gmax float64) {
	r2 = math.Max(r2, 0)
	s := 1.0
	if gmax > c.kappa {
		s = c.kappa / gmax
	}
	if d := s*ry - 0.5*s*s*r2; d > c.best {
		c.best = d
	}
}

// gap returns the relative duality gap (p - best)/p of a primal value p,
// clamped at zero (rounding can put the best dual value a hair above p
// once the solve has converged); a zero objective is optimal outright.
func (c *gapCert) gap(p float64) float64 {
	if p <= 0 {
		return 0
	}
	return math.Max(0, (p-c.best)/p)
}

// certified reports whether the gap stop ends the solve at iterate z, whose
// row magnitudes are mags: whether the relative gap of z's objective is at
// most the WithGapStop eps. The objective is formed from z's nonzero rows
// only. Without the option it evaluates nothing and reports false.
func (s *Solver) certified(c *gapCert, it int, z, y *cmat.Matrix, mags []float64, kscratch []complex128) bool {
	if s.opts.gapEps <= 0 {
		return false
	}
	var l1 float64
	c.nz = c.nz[:0]
	for i, m := range mags {
		if m != 0 {
			c.nz = append(c.nz, i)
			l1 += m
		}
	}
	gap := c.gap(0.5*s.residual2(z, y, c.nz, kscratch) + c.kappa*l1)
	if s.opts.gapHook != nil {
		s.opts.gapHook(it, z, gap, c.best)
	}
	return gap <= s.opts.gapEps
}

// residual2 returns ||A z - y||_F² for an iterate z whose nonzero rows are
// listed in nz, forming A z from those rows only: through the Kronecker
// factors when the solver has them, otherwise as a sparse product with the
// dense dictionary's columns.
func (s *Solver) residual2(z, y *cmat.Matrix, nz []int, kscratch []complex128) float64 {
	if s.kron != nil {
		return s.kron.residual2(z, y, nz, kscratch)
	}
	n, nc := s.cols, z.Cols()
	ad, zd, yd := s.a.Data(), z.Data(), y.Data()
	var r2 float64
	for r := 0; r < s.rows; r++ {
		arow := ad[r*n : (r+1)*n]
		for c := 0; c < nc; c++ {
			var acc complex128
			for _, j := range nz {
				acc += arow[j] * zd[j*nc+c]
			}
			d := acc - yd[r*nc+c]
			r2 += real(d)*real(d) + imag(d)*imag(d)
		}
	}
	return r2
}
