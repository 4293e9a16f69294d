package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"roarray/internal/cmat"
)

// admmMultiPass is the dense ADMM loop written as one pass per step: form v,
// ridge step, x, copy z, shrink, dual update, then separate passes for the
// hook's magnitudes, each residual norm and the spectrum stop. It is the
// reference the fused sweep of solveADMMWeighted must reproduce bit for bit.
func admmMultiPass(s *Solver, y *cmat.Matrix, kappa float64, weights []float64, ws *WarmState) *Result {
	n, m, k := s.a.Cols(), s.a.Rows(), y.Cols()
	rho := s.opts.rho
	x, z, u, zOld, v := cmat.New(n, k), cmat.New(n, k), cmat.New(n, k), cmat.New(n, k), cmat.New(n, k)
	av, w, atw := cmat.New(m, k), cmat.New(m, k), cmat.New(n, k)
	fwd, bwd := make([]complex128, m), make([]complex128, m)
	rowBuf := make([]complex128, k)
	mags := make([]float64, n)
	aty := cmat.New(n, k)
	mulHInto(s.a, y, aty)
	weightAt := func(i int) float64 {
		if weights == nil {
			return 1
		}
		return weights[i]
	}
	warm := ws.seedable(MethodADMM, n, k)
	warmRejected := false
	if warm {
		copyInto(z, ws.primary)
		copyInto(u, ws.dual)
		yn := y.FrobNorm()
		if s.seedObjective(z, y, kappa, weights, av, nil) >= 0.5*yn*yn {
			zeroMat(z)
			zeroMat(u)
			warm, warmRejected = false, true
		}
	}
	stop := newMultiPassSpecStop(s.opts, n)

	rhoC, inv := complex(rho, 0), complex(1/rho, 0)
	vd, atyD, zd, ud, xd, atwD, zOldD := v.Data(), aty.Data(), z.Data(), u.Data(), x.Data(), atw.Data(), zOld.Data()
	iters := 0
	converged, early := false, false
	for it := 1; it <= s.opts.maxIters; it++ {
		iters = it
		for idx := range vd {
			vd[idx] = atyD[idx] + rhoC*(zd[idx]-ud[idx])
		}
		mulBatchInto(s.a, v, av)
		s.chol.SolveBatchInto(av, w, fwd, bwd)
		mulHBatchInto(s.a, w, atw)
		for idx := range xd {
			xd[idx] = (vd[idx] - atwD[idx]) * inv
		}
		copy(zOldD, zd)
		for i := 0; i < n; i++ {
			xrow, urow := xd[i*k:(i+1)*k], ud[i*k:(i+1)*k]
			for j := range rowBuf {
				rowBuf[j] = xrow[j] + urow[j]
			}
			GroupSoftThreshold(zd[i*k:(i+1)*k], rowBuf, kappa*weightAt(i)/rho)
		}
		for idx := range ud {
			ud[idx] = ud[idx] + xd[idx] - zd[idx]
		}
		if s.opts.hook != nil {
			rowMagsInto(z, mags)
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
		if stop.stable(z) && priRes <= specResidualSlack*priEps && dualRes <= specResidualSlack*dualEps {
			converged, early = true, true
			break
		}
	}
	ws.store(MethodADMM, n, k, z, u)
	rowMagsInto(z, mags)
	var l1 float64
	for i := 0; i < n; i++ {
		l1 += weightAt(i) * rowNorm(z.RowView(i))
	}
	fit := cmat.Sub(cmat.Mul(s.a, z), y).FrobNorm()
	return &Result{
		Solver: s.opts.method.String(), X: matToColumns(z), RowMags: mags,
		Iterations: iters, Converged: converged, EarlyStopped: early,
		Warm: warm, WarmRejected: warmRejected, Objective: 0.5*fit*fit + kappa*l1,
	}
}

// multiPassSpecStop is the spectrum stop computing its own magnitudes from
// the iterate, as the multi-pass loop did.
type multiPassSpecStop struct {
	tol       float64
	patience  int
	prev, cur []float64
	streak    int
	primed    bool
}

func newMultiPassSpecStop(o options, n int) *multiPassSpecStop {
	if o.specTol <= 0 || o.specPatience <= 0 {
		return nil
	}
	return &multiPassSpecStop{tol: o.specTol, patience: o.specPatience, prev: make([]float64, n), cur: make([]float64, n)}
}

func (s *multiPassSpecStop) stable(x *cmat.Matrix) bool {
	if s == nil {
		return false
	}
	rowMagsInto(x, s.cur)
	if !s.primed {
		s.primed = true
		s.prev, s.cur = s.cur, s.prev
		return false
	}
	var dn, n2 float64
	for i, c := range s.cur {
		d := c - s.prev[i]
		dn += d * d
		n2 += c * c
	}
	s.prev, s.cur = s.cur, s.prev
	if dn <= s.tol*s.tol*math.Max(n2, 1e-24) {
		s.streak++
	} else {
		s.streak = 0
	}
	return s.streak >= s.patience
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

func requireResultBits(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged || got.EarlyStopped != want.EarlyStopped ||
		got.Warm != want.Warm || got.WarmRejected != want.WarmRejected || got.Solver != want.Solver {
		t.Fatalf("status (iters %d conv %v early %v warm %v rejected %v %s), want (%d %v %v %v %v %s)",
			got.Iterations, got.Converged, got.EarlyStopped, got.Warm, got.WarmRejected, got.Solver,
			want.Iterations, want.Converged, want.EarlyStopped, want.Warm, want.WarmRejected, want.Solver)
	}
	requireFloatBits(t, "Objective", got.Objective, want.Objective)
	for i := range want.RowMags {
		requireFloatBits(t, "RowMags", got.RowMags[i], want.RowMags[i])
	}
	for c := range want.X {
		for i := range want.X[c] {
			requireComplexBits(t, "X", got.X[c][i], want.X[c][i])
		}
	}
}

// TestADMMSweepMatchesMultiPass pins the fused ADMM sweep to the multi-pass
// loop bit for bit on the dense path: k = 1..3 snapshots, uniform and
// per-atom weights, spectrum stop on and off, a tolerance tight enough to
// converge, warm chains with accepted and rejected seeds, and an iteration
// hook that must see identical magnitudes on every iteration.
func TestADMMSweepMatchesMultiPass(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	a, xTrue, _, _ := makeSparseProblem(rng, 12, 40, 3, 0)
	weights := make([]float64, a.Cols())
	for i := range weights {
		weights[i] = 0.5 + rng.Float64()
	}
	type config struct {
		name string
		opts []Option
	}
	configs := []config{
		{"capped", []Option{WithMaxIters(60)}},
		{"specstop", []Option{WithMaxIters(300), WithSpectrumStop(1e-4, 3)}},
		{"tight_tol", []Option{WithMaxIters(3000), WithTolerance(1e-9, 1e-8)}},
	}
	var sawConverged, sawEarly, sawWarm, sawRejected bool
	for _, cfg := range configs {
		for k := 1; k <= 3; k++ {
			for _, wts := range [][]float64{nil, weights} {
				// A burst of related measurements, whose warm seeds are
				// accepted, with an unrelated one at position 2 that rejects
				// the seed it inherits.
				burst := burstMeasurements(rng, a, xTrue, 4, 0.05)
				var ys []*cmat.Matrix
				for p, b := range burst {
					y := cmat.New(a.Rows(), k)
					for c := 0; c < k; c++ {
						col := b.Col(0)
						for i := range col {
							col[i] *= complex(1+0.1*float64(c), 0.05*float64(c))
						}
						y.SetCol(c, col)
					}
					if p == 2 {
						for i := range y.Data() {
							y.Data()[i] = complex(rng.NormFloat64(), rng.NormFloat64())
						}
					}
					ys = append(ys, y)
				}

				var hookGot, hookWant [][]float64
				record := func(dst *[][]float64) IterationHook {
					return func(_ int, mags []float64) { *dst = append(*dst, append([]float64(nil), mags...)) }
				}
				fused, err := NewSolver(a, append(cfg.opts, WithIterationHook(record(&hookGot)))...)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := NewSolver(a, append(cfg.opts, WithIterationHook(record(&hookWant)))...)
				if err != nil {
					t.Fatal(err)
				}
				wsGot, wsWant := &WarmState{}, &WarmState{}
				for p, y := range ys {
					hookGot, hookWant = hookGot[:0], hookWant[:0]
					kappa := 0.05 * kappaScale(a, y)
					got, err := fused.solveADMMWeighted(y, kappa, wts, wsGot)
					if err != nil {
						t.Fatal(err)
					}
					want := admmMultiPass(ref, y, kappa, wts, wsWant)
					t.Run(fmt.Sprintf("%s/k%d/weighted=%v/packet%d", cfg.name, k, wts != nil, p), func(t *testing.T) {
						requireResultBits(t, got, want)
						if len(hookGot) != len(hookWant) || len(hookWant) != want.Iterations {
							t.Fatalf("hook calls %d, want %d", len(hookGot), len(hookWant))
						}
						for it := range hookWant {
							for i := range hookWant[it] {
								requireFloatBits(t, "hook mags", hookGot[it][i], hookWant[it][i])
							}
						}
						requireBitEqual(t, "warm primary", wsGot.primary, wsWant.primary)
						requireBitEqual(t, "warm dual", wsGot.dual, wsWant.dual)
					})
					sawConverged = sawConverged || (want.Converged && !want.EarlyStopped)
					sawEarly = sawEarly || want.EarlyStopped
					sawWarm = sawWarm || want.Warm
					sawRejected = sawRejected || want.WarmRejected
				}
			}
		}
	}
	if !sawConverged || !sawEarly || !sawWarm || !sawRejected {
		t.Fatalf("coverage: converged %v early-stopped %v warm %v rejected %v — every regime must be exercised",
			sawConverged, sawEarly, sawWarm, sawRejected)
	}
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
