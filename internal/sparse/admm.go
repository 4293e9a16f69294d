package sparse

import (
	"math"

	"roarray/internal/cmat"
)

// solveADMM runs the ADMM loop of the (group-)LASSO from a zero start.
//
// Each iteration is one ridge step x = (v - Aᴴ(rho I + AAᴴ)⁻¹A v)/rho (the
// Woodbury identity; dense, or block-diagonal over the Kronecker factors)
// followed by a single row-major sweep (admmSweep) that forms x, shrinks
// x+u into z, updates u, prepares the next v = Aᴴy + rho(z-u), and
// accumulates every norm the stopping rules need plus z's row magnitudes.
// Per element the sweep performs the same floating-point operations, in the
// same order, as separate passes for each of those steps would, and each
// norm sums its terms in the same row-major order, so fusing them changes no
// bits (TestADMMSweepMatchesMultiPass pins this against a multi-pass copy).
//
// The sweep also yields a dual point for the duality-gap certificate
// (gapCert) at no extra matvec. The ridge iterate x solves
// (rho I + AᴴA) x = v with v = Aᴴy + rho(z_prev - u_prev), so
// Aᴴ(y - Ax) = rho(x + u_prev - z_prev) and
// ||Ax - y||² = ||y||² - 2Re<x, Aᴴy> + Re<x, v> - rho||x||²: the residual
// y - Ax is scaled to dual feasibility from sums the sweep accumulates.
// Under WithGapStop the objective of z is evaluated each iteration from a
// product with z's nonzero rows, and the solve stops once the relative gap is
// at most eps.
func (s *Solver) solveADMM(ws *workspace, y *cmat.Matrix, kappa float64) Result {
	n := s.cols
	k := y.Cols()
	rho := s.opts.rho

	// The iteration state is the pooled workspace (see workspace), whose
	// aty the caller has filled with Aᴴy: nothing is allocated inside the
	// loop or stored on the Solver. The batched kernels traverse the
	// dictionary once per iteration for all k snapshot columns while
	// reproducing the legacy per-column operation order bit for bit; the
	// Kronecker path (when the factors were declared) swaps in the factored
	// ridge step instead.
	z, v, av, atw := &ws.z, &ws.v, &ws.av, &ws.atw
	kscratch := ws.kscratch
	cert := newGapCert(kappa, ws.nz)
	yn := y.FrobNorm()
	y2 := yn * yn

	t := kappa / rho
	sw := admmSweep{
		v: v.Data(), atw: atw.Data(), z: z.Data(), u: ws.u.Data(), aty: ws.aty.Data(),
		k: k, rho: complex(rho, 0), inv: complex(1/rho, 0),
		t: t, bound: zeroBound(t), mags: ws.mags,
		xrow: ws.xrow, rowBuf: ws.rowBuf,
	}
	for idx := range sw.v {
		sw.v[idx] = sw.aty[idx] + sw.rho*(sw.z[idx]-sw.u[idx])
	}
	dim := math.Sqrt(float64(n * k))
	iters := 0
	converged := false
	early := false
	for it := 1; it <= s.opts.maxIters; it++ {
		iters = it
		if s.kron != nil {
			s.kron.woodburyInto(v, atw, kscratch)
		} else {
			mulBatchInto(s.a, v, av)
			s.chol.SolveBatchInto(av, &ws.w, ws.fwd, ws.bwd)
			mulHBatchInto(s.a, &ws.w, atw)
		}
		var nm sweepNorms
		if k == 1 {
			nm = sw.sweep1()
		} else {
			nm = sw.sweepK()
		}
		cert.observe(y2-nm.xy, y2-2*nm.xy+nm.xv-rho*nm.x2, rho*math.Sqrt(nm.g2))
		certified := s.certified(&cert, it, z, y, ws.mags, kscratch)
		if s.opts.hook != nil {
			s.opts.hook(it, ws.mags)
		}

		priRes := math.Sqrt(nm.xz2)
		dualRes := rho * math.Sqrt(nm.dz2)
		priEps := s.opts.absTol*dim + s.opts.relTol*math.Max(math.Sqrt(nm.x2), math.Sqrt(nm.z2))
		dualEps := s.opts.absTol*dim + s.opts.relTol*rho*math.Sqrt(nm.u2)
		if priRes <= priEps && dualRes <= dualEps {
			converged = true
			break
		}
		if certified {
			converged, early = true, true
			break
		}
	}

	return s.result(ws, z, y, kappa, iters, converged, early, &cert)
}

// zeroBound returns a bound b such that a row whose squared norm n2 is below
// b satisfies sqrt(n2) <= t, so the sweep can shrink it to zero without
// taking the square root. b = fl(fl(t·t)·(1-2⁻⁵⁰)) is at most fl(t·t)
// (rounding is monotone), and a float below fl(t·t) is below the real t²
// (fl rounds to nearest), so n2 < b gives sqrt(n2) < t exactly, and
// rounding the square root cannot carry it past the representable t. The
// 2⁻⁵⁰ margin keeps b a relative 2⁻⁵⁰ clear of t²; below t = 2⁻⁵¹¹, where
// t·t leaves the normal range and that relative margin no longer holds,
// b = 0 disables the shortcut (squared norms are never negative). A t whose
// square overflows gives b = +Inf, which stays sound: the square root of
// any finite n2 is at most that t.
func zeroBound(t float64) float64 {
	if t >= 0x1p-511 {
		return t * t * (1 - 0x1p-50)
	}
	return 0
}

// zeroRow reports whether a row of squared norm n2 shrinks to zero under
// threshold t, i.e. sqrt(n2) <= t, taking the square root only when n2 is
// not below bound = zeroBound(t). A surviving row's norm is returned in n.
func zeroRow(n2, t, bound float64) (n float64, zero bool) {
	if n2 < bound {
		return 0, true
	}
	n = math.Sqrt(n2)
	return n, n <= t
}

// admmSweep is the per-iteration row sweep of solveADMM over its row-major
// n x k iterates. A row whose x+u has norm at most the group soft threshold
// t = kappa/rho shrinks to exactly zero, and the sweep then takes the zero-z
// form of every term: no shrink multiply, no ‖z‖² or magnitude term (both
// add +0), and ‖z-z_prev‖², ‖x-z‖² and u+x-z summed from z_prev, x and u+x
// directly.
// Those forms are bit-equal to the general ones: for any a, a-(+0) = a
// exactly and (0-a)² = a². The next v keeps the subtraction 0-u, which can
// differ from -u in the sign of a zero.
type admmSweep struct {
	v, atw, z, u, aty []complex128
	k                 int
	rho, inv          complex128
	t, bound          float64 // shrink threshold and its zeroBound
	mags              []float64
	xrow, rowBuf      []complex128 // k-long row scratch, read only when k > 1
}

// sweepNorms are the sums one sweep accumulates: the squared norms ‖x-z‖²,
// ‖z-z_prev‖², ‖x‖², ‖z‖² and ‖u‖² of the residual criterion, and for the
// duality-gap certificate Re<x, v> and Re<x, Aᴴy> (v as the ridge step read
// it) and the largest squared row norm of x + u_prev - z_prev.
type sweepNorms struct {
	xz2, dz2, x2, z2, u2 float64
	xv, xy, g2           float64
}

// sweep1 is the sweep for a single snapshot column, with one coefficient per
// row and no row scratch.
func (s *admmSweep) sweep1() (nm sweepNorms) {
	vd := s.v
	atw, zd, ud, aty, mags := s.atw[:len(vd)], s.z[:len(vd)], s.u[:len(vd)], s.aty[:len(vd)], s.mags[:len(vd)]
	rho, inv, t, bound := s.rho, s.inv, s.t, s.bound
	for i, vi := range vd {
		x := (vi - atw[i]) * inv
		r := x + ud[i]
		n2 := real(r)*real(r) + imag(r)*imag(r)
		zo := zd[i]
		nm.xv += real(x)*real(vi) + imag(x)*imag(vi)
		nm.xy += real(x)*real(aty[i]) + imag(x)*imag(aty[i])
		g := r - zo
		if gg := real(g)*real(g) + imag(g)*imag(g); gg > nm.g2 {
			nm.g2 = gg
		}
		n, zero := zeroRow(n2, t, bound)
		if zero {
			xx := real(x)*real(x) + imag(x)*imag(x)
			un := ud[i] + x
			nm.dz2 += real(zo)*real(zo) + imag(zo)*imag(zo)
			nm.xz2 += xx
			nm.x2 += xx
			nm.u2 += real(un)*real(un) + imag(un)*imag(un)
			zd[i], ud[i] = 0, un
			vd[i] = aty[i] + rho*(0-un)
			mags[i] = 0
			continue
		}
		zn := complex(1-t/n, 0) * r
		d := zn - zo
		nm.dz2 += real(d)*real(d) + imag(d)*imag(d)
		un := ud[i] + x - zn
		d = x - zn
		nm.xz2 += real(d)*real(d) + imag(d)*imag(d)
		nm.x2 += real(x)*real(x) + imag(x)*imag(x)
		zz := real(zn)*real(zn) + imag(zn)*imag(zn)
		nm.z2 += zz
		nm.u2 += real(un)*real(un) + imag(un)*imag(un)
		zd[i], ud[i] = zn, un
		vd[i] = aty[i] + rho*(zn-un)
		mags[i] = math.Sqrt(zz)
	}
	return nm
}

// sweepK is the sweep for k > 1 snapshot columns: each row is formed into
// xrow and x+u into rowBuf, then group-shrunk as a whole.
func (s *admmSweep) sweepK() (nm sweepNorms) {
	k := s.k
	vd, atw, zd, ud, aty := s.v, s.atw, s.z, s.u, s.aty
	xrow, rowBuf := s.xrow[:k], s.rowBuf[:k]
	rho, inv, t, bound := s.rho, s.inv, s.t, s.bound
	for i := range s.mags {
		lo := i * k
		var n2, g2 float64
		for j := range xrow {
			vv := vd[lo+j]
			x := (vv - atw[lo+j]) * inv
			r := x + ud[lo+j]
			xrow[j], rowBuf[j] = x, r
			n2 += real(r)*real(r) + imag(r)*imag(r)
			nm.xv += real(x)*real(vv) + imag(x)*imag(vv)
			nm.xy += real(x)*real(aty[lo+j]) + imag(x)*imag(aty[lo+j])
			g := r - zd[lo+j]
			g2 += real(g)*real(g) + imag(g)*imag(g)
		}
		if g2 > nm.g2 {
			nm.g2 = g2
		}
		n, zero := zeroRow(n2, t, bound)
		if zero {
			for j, x := range xrow {
				zo := zd[lo+j]
				xx := real(x)*real(x) + imag(x)*imag(x)
				un := ud[lo+j] + x
				nm.dz2 += real(zo)*real(zo) + imag(zo)*imag(zo)
				nm.xz2 += xx
				nm.x2 += xx
				nm.u2 += real(un)*real(un) + imag(un)*imag(un)
				zd[lo+j], ud[lo+j] = 0, un
				vd[lo+j] = aty[lo+j] + rho*(0-un)
			}
			s.mags[i] = 0
			continue
		}
		sc := complex(1-t/n, 0)
		var mag2 float64
		for j, x := range xrow {
			zn := sc * rowBuf[j]
			d := zn - zd[lo+j]
			nm.dz2 += real(d)*real(d) + imag(d)*imag(d)
			un := ud[lo+j] + x - zn
			d = x - zn
			nm.xz2 += real(d)*real(d) + imag(d)*imag(d)
			nm.x2 += real(x)*real(x) + imag(x)*imag(x)
			zz := real(zn)*real(zn) + imag(zn)*imag(zn)
			nm.z2 += zz
			nm.u2 += real(un)*real(un) + imag(un)*imag(un)
			mag2 += zz
			zd[lo+j], ud[lo+j] = zn, un
			vd[lo+j] = aty[lo+j] + rho*(zn-un)
		}
		s.mags[i] = math.Sqrt(mag2)
	}
	return nm
}
