package sparse

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"roarray/internal/cmat"
)

// admmMultiPass is the ADMM loop written as one pass per step: form v, ridge
// step, x, the certificate's sums, copy z, shrink, dual update, then
// separate passes for the hook's magnitudes, each residual norm and the gap
// stop's objective. It is the reference
// the fused sweep of solveADMM must reproduce bit for bit. ridge computes
// atw = Aᴴ(rho I + AAᴴ)⁻¹A v: the dense Cholesky route, or the per-column
// Kronecker kernel (see referenceRidge); the matvecs outside the loop follow
// the solver's path.
func admmMultiPass(s *Solver, y *cmat.Matrix, kappa float64, ridge func(v, atw *cmat.Matrix)) (*Result, [][]complex128) {
	n, m, k := s.cols, s.rows, y.Cols()
	rho := s.opts.rho
	x, z, u, zOld, v := cmat.New(n, k), cmat.New(n, k), cmat.New(n, k), cmat.New(n, k), cmat.New(n, k)
	av, atw := cmat.New(m, k), cmat.New(n, k)
	rowBuf := make([]complex128, k)
	mags := make([]float64, n)
	aty := cmat.New(n, k)
	var kscratch []complex128
	if s.kron != nil {
		kscratch = make([]complex128, s.kron.scratchLen(k))
		s.kron.mulHInto(y, aty, kscratch)
	} else {
		mulHInto(s.a, y, aty)
	}
	cert := newGapCert(kappa, nil)
	yn := y.FrobNorm()
	y2 := yn * yn

	rhoC, inv := complex(rho, 0), complex(1/rho, 0)
	vd, atyD, zd, ud, xd, atwD, zOldD := v.Data(), aty.Data(), z.Data(), u.Data(), x.Data(), atw.Data(), zOld.Data()
	iters := 0
	converged, early := false, false
	for it := 1; it <= s.opts.maxIters; it++ {
		iters = it
		for idx := range vd {
			vd[idx] = atyD[idx] + rhoC*(zd[idx]-ud[idx])
		}
		ridge(v, atw)
		for idx := range xd {
			xd[idx] = (vd[idx] - atwD[idx]) * inv
		}
		// The certificate's dual point: Re<x, v>, Re<x, Aᴴy>, ||x||² and
		// the largest row norm of x + u_prev - z_prev.
		var xv, xy, x2, g2 float64
		for idx, xe := range xd {
			xv += real(xe)*real(vd[idx]) + imag(xe)*imag(vd[idx])
			xy += real(xe)*real(atyD[idx]) + imag(xe)*imag(atyD[idx])
			x2 += real(xe)*real(xe) + imag(xe)*imag(xe)
		}
		for i := 0; i < n; i++ {
			var gg float64
			for j := 0; j < k; j++ {
				g := xd[i*k+j] + ud[i*k+j] - zd[i*k+j]
				gg += real(g)*real(g) + imag(g)*imag(g)
			}
			g2 = math.Max(g2, gg)
		}
		cert.observe(y2-xy, y2-2*xy+xv-rho*x2, rho*math.Sqrt(g2))
		copy(zOldD, zd)
		for i := 0; i < n; i++ {
			xrow, urow := xd[i*k:(i+1)*k], ud[i*k:(i+1)*k]
			for j := range rowBuf {
				rowBuf[j] = xrow[j] + urow[j]
			}
			GroupSoftThreshold(zd[i*k:(i+1)*k], rowBuf, kappa/rho)
		}
		for idx := range ud {
			ud[idx] = ud[idx] + xd[idx] - zd[idx]
		}
		rowMagsInto(z, mags)
		certified := false
		if s.opts.gapEps > 0 {
			var l1 float64
			var nz []int
			for i := 0; i < n; i++ {
				if nrm := rowNorm(z.RowView(i)); nrm != 0 {
					l1 += nrm
					nz = append(nz, i)
				}
			}
			certified = cert.gap(0.5*s.residual2(z, y, nz, kscratch)+kappa*l1) <= s.opts.gapEps
		}
		if s.opts.hook != nil {
			s.opts.hook(it, mags)
		}
		priRes := subFrobNorm(x, z)
		dualRes := rho * subFrobNorm(z, zOld)
		dim := math.Sqrt(float64(n * k))
		priEps := s.opts.absTol*dim + s.opts.relTol*math.Max(x.FrobNorm(), z.FrobNorm())
		dualEps := s.opts.absTol*dim + s.opts.relTol*rho*u.FrobNorm()
		if priRes <= priEps && dualRes <= dualEps {
			converged = true
			break
		}
		if certified {
			converged, early = true, true
			break
		}
	}
	rowMagsInto(z, mags)
	var l1 float64
	for i := 0; i < n; i++ {
		l1 += rowNorm(z.RowView(i))
	}
	var fit float64
	if s.kron != nil {
		s.kron.mulInto(z, av, kscratch)
		fit = subFrobNorm(av, y)
	} else {
		fit = cmat.Sub(cmat.Mul(s.a, z), y).FrobNorm()
	}
	obj := 0.5*fit*fit + kappa*l1
	return &Result{
		Solver: s.opts.method.String(), RowMags: mags,
		Iterations: iters, Converged: converged, EarlyStopped: early,
		Objective: obj, Gap: cert.gap(obj),
	}, matToColumns(z)
}

// referenceRidge returns the ridge step admmMultiPass runs for a k-column
// problem on s: woodburyPerColumn on the Kronecker path, otherwise the dense
// matvec, Cholesky solve and adjoint matvec.
func referenceRidge(s *Solver, k int) func(v, atw *cmat.Matrix) {
	if s.kron != nil {
		return func(v, atw *cmat.Matrix) { woodburyPerColumn(s.kron, v, atw) }
	}
	m := s.a.Rows()
	av, w := cmat.New(m, k), cmat.New(m, k)
	fwd, bwd := make([]complex128, m), make([]complex128, m)
	return func(v, atw *cmat.Matrix) {
		mulBatchInto(s.a, v, av)
		s.chol.SolveBatchInto(av, w, fwd, bwd)
		mulHBatchInto(s.a, w, atw)
	}
}

// woodburyPerColumn is the unblocked form of woodburyInto: per column and
// per output one dot product accumulated in a single chain, reading v and
// out at a stride of nc and S'ᴴ from a C x M conjugate transpose. The
// register-blocked kernel must reproduce it bit for bit.
func woodburyPerColumn(k *kronOps, v, out *cmat.Matrix) {
	nc := v.Cols()
	vd, od := v.Data(), out.Data()
	mm, tt, cc := k.mm, k.tt, k.cc
	spH := make([]complex128, cc*mm)
	for m := 0; m < mm; m++ {
		for i := 0; i < cc; i++ {
			spH[i*mm+m] = cmplx.Conj(k.sp[m*cc+i])
		}
	}
	q, r := make([]complex128, mm*tt), make([]complex128, mm*tt) // Q is m-major, R t-major
	for c := 0; c < nc; c++ {
		for t := 0; t < tt; t++ {
			base := t*cc*nc + c
			for m := 0; m < mm; m++ {
				var acc complex128
				idx := base
				for _, sv := range k.sp[m*cc : (m+1)*cc] {
					acc += sv * vd[idx]
					idx += nc
				}
				q[m*tt+t] = acc
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
		for t := 0; t < tt; t++ {
			rrow := r[t*mm : (t+1)*mm]
			obase := t*cc*nc + c
			for i := 0; i < cc; i++ {
				var acc complex128
				for m, sv := range spH[i*mm : (i+1)*mm] {
					acc += sv * rrow[m]
				}
				od[obase+i*nc] = acc
			}
		}
	}
}

func requireFloatBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %v, want %v (bitwise)", what, got, want)
	}
}

func requireComplexBits(t *testing.T, what string, got, want complex128) {
	t.Helper()
	if math.Float64bits(real(got)) != math.Float64bits(real(want)) || math.Float64bits(imag(got)) != math.Float64bits(imag(want)) {
		t.Fatalf("%s = %v, want %v (bitwise)", what, got, want)
	}
}

// requireResultBits requires two results and their final iterates (one
// column per snapshot) to agree bit for bit, every coefficient included.
func requireResultBits(t *testing.T, got *Result, gotX [][]complex128, want *Result, wantX [][]complex128) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged || got.EarlyStopped != want.EarlyStopped ||
		got.Solver != want.Solver {
		t.Fatalf("status (iters %d conv %v early %v %s), want (%d %v %v %s)",
			got.Iterations, got.Converged, got.EarlyStopped, got.Solver,
			want.Iterations, want.Converged, want.EarlyStopped, want.Solver)
	}
	requireFloatBits(t, "Objective", got.Objective, want.Objective)
	requireFloatBits(t, "Gap", got.Gap, want.Gap)
	for i := range want.RowMags {
		requireFloatBits(t, "RowMags", got.RowMags[i], want.RowMags[i])
	}
	if len(gotX) != len(wantX) {
		t.Fatalf("X has %d columns, want %d", len(gotX), len(wantX))
	}
	for c := range wantX {
		if len(gotX[c]) != len(wantX[c]) {
			t.Fatalf("X column %d has %d coefficients, want %d", c, len(gotX[c]), len(wantX[c]))
		}
		for i := range wantX[c] {
			requireComplexBits(t, "X", gotX[c][i], wantX[c][i])
		}
	}
}

// TestADMMSweepMatchesMultiPass pins the fused ADMM sweep to the multi-pass
// loop bit for bit on the dense path: k = 1..3 snapshots, the plain and a
// weighted problem, gap stop on and off, a tolerance tight enough to
// converge, and an iteration hook that must see identical magnitudes on
// every iteration.
func TestADMMSweepMatchesMultiPass(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	a, xTrue, _, _ := makeSparseProblem(rng, 12, 40, 3, 0)
	weights := make([]float64, a.Cols())
	for i := range weights {
		weights[i] = 0.5 + rng.Float64()
	}
	requireSweepMatchesMultiPass(t, rng, a, xTrue,
		sweepArm{a: a}, sweepArm{a: scaleCols(a, weights)})
}

// TestADMMSweepMatchesMultiPassKron is the same check on the Kronecker path,
// where the solver's ridge step is the register-blocked kernel and the
// reference's is woodburyPerColumn. The 3 x 9 AoA factor and 4 x 5 delay
// factor leave remainders after the kernel's four-wide blocks. The weighted
// problem takes separable weights, so its dictionary keeps Kronecker
// structure with rescaled factors.
func TestADMMSweepMatchesMultiPassKron(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	g, s := randKronFactors(405, 4, 5, 3, 9)
	xTrue := make([]complex128, 5*9)
	for _, j := range []int{4, 21, 38} {
		xTrue[j] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	wg, ws := make([]float64, g.Cols()), make([]float64, s.Cols())
	for _, w := range [][]float64{wg, ws} {
		for i := range w {
			w[i] = 0.7 + 0.6*rng.Float64()
		}
	}
	gw, sw := scaleCols(g, wg), scaleCols(s, ws)
	a := cmat.Kron(g, s)
	requireSweepMatchesMultiPass(t, rng, a, xTrue,
		sweepArm{a: a, g: g, s: s},
		sweepArm{a: cmat.Kron(gw, sw), g: gw, s: sw})
}

// scaleCols returns a·diag(1/w). An unweighted solve over it is the weighted
// problem 1/2||a x - y||² + kappa Σ w_i ||x_i|| in the rescaled coefficients
// w_i x_i.
func scaleCols(a *cmat.Matrix, w []float64) *cmat.Matrix {
	out := cmat.New(a.Rows(), a.Cols())
	for j := range w {
		col := a.Col(j)
		for i := range col {
			col[i] /= complex(w[j], 0)
		}
		out.SetCol(j, col)
	}
	return out
}

// sweepArm is one problem requireSweepMatchesMultiPass solves: a dictionary
// and, for the Kronecker path, its factors (nil for the dense path).
type sweepArm struct {
	a, g, s *cmat.Matrix
}

// requireSweepMatchesMultiPass runs solveADMM and admmMultiPass side by side
// on bursts y = a·x drawn around the sparse truth xTrue, over the plain and
// the weighted arm, and requires every result and hook call to match
// bitwise, and every stopping regime to be exercised.
func requireSweepMatchesMultiPass(t *testing.T, rng *rand.Rand, a *cmat.Matrix, xTrue []complex128, plain, weighted sweepArm) {
	t.Helper()
	type config struct {
		name string
		opts []Option
	}
	configs := []config{
		{"capped", []Option{WithMaxIters(60)}},
		// The serving profile's gap stop. The arm keeps the name it had when
		// it ran the spectrum-stability stop the gap stop replaced, so its
		// subtest names stay comparable across that change.
		{"specstop", []Option{WithMaxIters(300), WithGapStop(0.02)}},
		{"gapstop_tight", []Option{WithMaxIters(300), WithGapStop(1e-4)}},
		{"tight_tol", []Option{WithMaxIters(3000), WithTolerance(1e-9, 1e-8)}},
	}
	var sawConverged, sawEarly bool
	for _, cfg := range configs {
		for k := 1; k <= 3; k++ {
			for _, arm := range []sweepArm{plain, weighted} {
				opts := cfg.opts[:len(cfg.opts):len(cfg.opts)]
				burst := burstMeasurements(rng, a, xTrue, 4, 0.05)
				var ys []*cmat.Matrix
				for _, b := range burst {
					y := cmat.New(a.Rows(), k)
					for c := 0; c < k; c++ {
						col := b.Col(0)
						for i := range col {
							col[i] *= complex(1+0.1*float64(c), 0.05*float64(c))
						}
						y.SetCol(c, col)
					}
					ys = append(ys, y)
				}

				var hookGot, hookWant [][]float64
				record := func(dst *[][]float64) IterationHook {
					return func(_ int, mags []float64) { *dst = append(*dst, append([]float64(nil), mags...)) }
				}
				fused, err := solverFor(arm.a, arm.g, arm.s, append(opts, WithIterationHook(record(&hookGot)))...)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := solverFor(arm.a, arm.g, arm.s, append(opts, WithIterationHook(record(&hookWant)))...)
				if err != nil {
					t.Fatal(err)
				}
				ridge := referenceRidge(ref, k)
				for p, y := range ys {
					hookGot, hookWant = hookGot[:0], hookWant[:0]
					kappa := 0.05 * kappaScale(arm.a, y)
					got, gotX, err := solveIterate(fused, y, kappa, false)
					if err != nil {
						t.Fatal(err)
					}
					want, wantX := admmMultiPass(ref, y, kappa, ridge)
					t.Run(fmt.Sprintf("%s/k%d/weighted=%v/packet%d", cfg.name, k, arm.a != plain.a, p), func(t *testing.T) {
						requireResultBits(t, got, gotX, want, wantX)
						if len(hookGot) != len(hookWant) || len(hookWant) != want.Iterations {
							t.Fatalf("hook calls %d, want %d", len(hookGot), len(hookWant))
						}
						for it := range hookWant {
							for i := range hookWant[it] {
								requireFloatBits(t, "hook mags", hookGot[it][i], hookWant[it][i])
							}
						}
					})
					sawConverged = sawConverged || (want.Converged && !want.EarlyStopped)
					sawEarly = sawEarly || want.EarlyStopped
				}
			}
		}
	}
	if !sawConverged || !sawEarly {
		t.Fatalf("coverage: converged %v early-stopped %v — every regime must be exercised", sawConverged, sawEarly)
	}
}

// TestADMMSweepStepMatchesPasses checks one sweep in isolation against the
// separate passes it fuses — x, group shrink, dual update, next v, each
// squared norm, the certificate's sums and the row magnitudes — bitwise, for k = 1..3 and two
// thresholds, on iterates where rows stay zero, turn zero, stay
// nonzero and turn nonzero, so every norm the stopping rules read is pinned
// even when a difference would not change an iteration count.
func TestADMMSweepStepMatchesPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(407))
	const n, rho = 64, 1.7
	cnum := func() complex128 { return complex(rng.NormFloat64(), rng.NormFloat64()) }
	for k := 1; k <= 3; k++ {
		for _, kappa := range []float64{0.9, 2.5} {
			v, atw, z, u, aty := make([]complex128, n*k), make([]complex128, n*k), make([]complex128, n*k), make([]complex128, n*k), make([]complex128, n*k)
			for i := 0; i < n; i++ {
				scale := math.Ldexp(1, rng.Intn(5)-3) // rows on both sides of the threshold
				for j := 0; j < k; j++ {
					idx := i*k + j
					v[idx], atw[idx], u[idx], aty[idx] = cnum()*complex(scale, 0), cnum()*complex(scale/2, 0), cnum()*complex(scale/4, 0), cnum()
					if i%3 != 0 { // every third row starts at zero
						z[idx] = cnum()
					}
				}
			}
			// Reference: the separate passes on copies.
			wz, wu, wv := append([]complex128(nil), z...), append([]complex128(nil), u...), append([]complex128(nil), v...)
			x := make([]complex128, n*k)
			inv, rhoC := complex(1/rho, 0), complex(rho, 0)
			for idx := range x {
				x[idx] = (v[idx] - atw[idx]) * inv
			}
			rowBuf := make([]complex128, k)
			for i := 0; i < n; i++ {
				for j := range rowBuf {
					rowBuf[j] = x[i*k+j] + u[i*k+j]
				}
				GroupSoftThreshold(wz[i*k:(i+1)*k], rowBuf, kappa/rho)
			}
			var want sweepNorms
			wantMags := make([]float64, n)
			zeroRows := 0
			for idx, xe := range x {
				want.xv += real(xe)*real(v[idx]) + imag(xe)*imag(v[idx])
				want.xy += real(xe)*real(aty[idx]) + imag(xe)*imag(aty[idx])
			}
			for i := 0; i < n; i++ {
				var gg float64
				for j := 0; j < k; j++ {
					g := x[i*k+j] + u[i*k+j] - z[i*k+j]
					gg += real(g)*real(g) + imag(g)*imag(g)
				}
				want.g2 = math.Max(want.g2, gg)
			}
			for idx := range wz {
				wu[idx] = u[idx] + x[idx] - wz[idx]
				wv[idx] = aty[idx] + rhoC*(wz[idx]-wu[idx])
				sq := func(c complex128) float64 { return real(c)*real(c) + imag(c)*imag(c) }
				want.xz2 += sq(x[idx] - wz[idx])
				want.dz2 += sq(wz[idx] - z[idx])
				want.x2 += sq(x[idx])
				want.z2 += sq(wz[idx])
				want.u2 += sq(wu[idx])
			}
			for i := range wantMags {
				wantMags[i] = rowNorm(wz[i*k : (i+1)*k])
				if wantMags[i] == 0 {
					zeroRows++
				}
			}
			if zeroRows == 0 || zeroRows == n {
				t.Fatalf("k=%d kappa=%v: %d of %d rows shrink to zero; the case needs both kinds", k, kappa, zeroRows, n)
			}

			sw := admmSweep{v: v, atw: atw, z: z, u: u, aty: aty, k: k, rho: rhoC, inv: inv,
				t: kappa / rho, bound: zeroBound(kappa / rho), mags: make([]float64, n)}
			var got sweepNorms
			if k == 1 {
				got = sw.sweep1()
			} else {
				sw.xrow, sw.rowBuf = make([]complex128, k), make([]complex128, k)
				got = sw.sweepK()
			}
			name := fmt.Sprintf("k=%d kappa=%v", k, kappa)
			requireFloatBits(t, name+" xz2", got.xz2, want.xz2)
			requireFloatBits(t, name+" dz2", got.dz2, want.dz2)
			requireFloatBits(t, name+" x2", got.x2, want.x2)
			requireFloatBits(t, name+" z2", got.z2, want.z2)
			requireFloatBits(t, name+" u2", got.u2, want.u2)
			requireFloatBits(t, name+" xv", got.xv, want.xv)
			requireFloatBits(t, name+" xy", got.xy, want.xy)
			requireFloatBits(t, name+" g2", got.g2, want.g2)
			for i := range wantMags {
				requireFloatBits(t, name+" mags", sw.mags[i], wantMags[i])
			}
			for idx := range wz {
				requireComplexBits(t, name+" z", z[idx], wz[idx])
				requireComplexBits(t, name+" u", u[idx], wu[idx])
				requireComplexBits(t, name+" v", v[idx], wv[idx])
			}
		}
	}
}

// TestKronWoodburyBlockedMatchesPerColumn pins the register-blocked ridge
// kernel to woodburyPerColumn bit for bit on factor shapes whose delay count
// T and angle count C leave remainders after the four-wide blocks (including
// T and C below four and a single antenna), for one to three columns, and
// checks that the input is left untouched.
func TestKronWoodburyBlockedMatchesPerColumn(t *testing.T) {
	for ci, sh := range [][4]int{ // L, T, M, C
		{8, 8, 3, 19}, // the serving shape
		{5, 7, 1, 9},
		{6, 4, 4, 11},
		{3, 5, 2, 6},
		{4, 1, 3, 3},
		{2, 9, 5, 13},
		{6, 6, 2, 8},
	} {
		g, s := randKronFactors(int64(500+ci), sh[0], sh[1], sh[2], sh[3])
		dense := cmat.Kron(g, s)
		sv, err := NewKronSolver(g, s, withRho(0.7+float64(ci)))
		if err != nil {
			t.Fatalf("shape %v: %v", sh, err)
		}
		n := dense.Cols()
		for k := 1; k <= 3; k++ {
			v := kernelMat(n, k, 31*ci+k)
			vCopy := v.Clone()
			got, want := cmat.New(n, k), cmat.New(n, k)
			sv.kron.woodburyInto(v, got, make([]complex128, sv.kron.scratchLen(k)))
			woodburyPerColumn(sv.kron, v, want)
			requireBitEqual(t, fmt.Sprintf("shape %v k=%d", sh, k), got, want)
			requireBitEqual(t, fmt.Sprintf("shape %v k=%d input", sh, k), v, vCopy)
		}
	}
}

// TestZeroRowShortcut checks that the sweep's shrink decision, which skips
// the square root when n2 < zeroBound(t), always equals sqrt(n2) <= t and
// returns the surviving row's norm exactly — at t = 0, subnormal t, t at and
// just below the 2⁻⁵¹¹ guard, t = 1 with n2 at t² and its float neighbours,
// t whose square overflows, non-finite n2, and n2 around t² for t across
// the exponent range — and that the shortcut does engage for normal t.
func TestZeroRowShortcut(t *testing.T) {
	guard := 0x1p-511
	up := func(x float64, n int) float64 {
		for ; n > 0; n-- {
			x = math.Nextafter(x, math.Inf(1))
		}
		for ; n < 0; n++ {
			x = math.Nextafter(x, math.Inf(-1))
		}
		return x
	}
	check := func(t2 *testing.T, n2, th float64) {
		t2.Helper()
		n, zero := zeroRow(n2, th, zeroBound(th))
		want := math.Sqrt(n2)
		if zero != (want <= th) {
			t2.Fatalf("t=%v n2=%v: zero=%v, sqrt(n2)=%v", th, n2, zero, want)
		}
		if !zero {
			requireFloatBits(t2, "row norm", n, want)
		}
	}
	cases := []struct {
		name string
		t    float64
		n2s  []float64
	}{
		{"t_zero", 0, []float64{0, 5e-324, 1e-300, 1}},
		{"t_subnormal", 5e-324, []float64{0, 5e-324, 1e-320}},
		{"t_below_guard", up(guard, -1), []float64{0, 0x1p-1023, up(0x1p-1022, -2), 0x1p-1022}},
		{"t_at_guard", guard, []float64{0, 5e-324, up(0x1p-1022, -3), up(0x1p-1022, -1), 0x1p-1022, up(0x1p-1022, 1)}},
		{"t_one", 1, []float64{0, 0.25, up(1, -3), up(1, -2), up(1, -1), 1, up(1, 1), up(1, 2), 1 - 0x1p-50, up(1-0x1p-50, -1), up(1-0x1p-50, 1)}},
		{"t_square_overflows", 1e155, []float64{0, 1, 1e308, math.MaxFloat64, math.Inf(1)}},
		{"t_sqrt_max", math.Sqrt(math.MaxFloat64), []float64{up(math.MaxFloat64, -1), math.MaxFloat64, math.Inf(1)}},
		{"n2_nan", 1, []float64{math.NaN()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, n2 := range tc.n2s {
				check(t, n2, tc.t)
			}
		})
	}

	t.Run("t_squared_neighbours", func(t *testing.T) {
		rng := rand.New(rand.NewSource(406))
		engaged := 0
		for trial := 0; trial < 2000; trial++ {
			th := math.Ldexp(0.5+0.5*rng.Float64(), rng.Intn(2100)-1070)
			bound := zeroBound(th)
			for _, base := range []float64{th * th, bound} {
				for d := -4; d <= 4; d++ {
					n2 := up(base, d)
					if n2 < 0 {
						continue // a sum of squares is never negative
					}
					check(t, n2, th)
					if n2 < bound {
						engaged++
					}
				}
			}
		}
		if engaged == 0 {
			t.Fatal("the shortcut never engaged")
		}
	})
}

// kappaScale is max_i ||(AᴴY)_i||, the data-dependent scale kappa is set
// relative to.
func kappaScale(a, y *cmat.Matrix) float64 {
	g := cmat.MulH(a, y)
	var mx float64
	for i := 0; i < g.Rows(); i++ {
		mx = math.Max(mx, rowNorm(g.RowView(i)))
	}
	return mx
}
