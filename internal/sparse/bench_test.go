package sparse

import (
	"math"
	"math/rand"
	"testing"

	"roarray/internal/cmat"
)

// benchProblem builds a deterministic bench-sized LASSO instance: a
// unit-modulus dictionary (the shape of a joint AoA/ToA steering dictionary)
// and a k-column observation generated from a 2-sparse ground truth plus a
// small deterministic perturbation.
func benchProblem(m, n, k int) (*cmat.Matrix, *cmat.Matrix) {
	a := cmat.New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			ph := 2 * math.Pi * math.Mod(float64((i+1)*(j+3))*0.137, 1)
			a.Set(i, j, complex(math.Cos(ph), math.Sin(ph)))
		}
	}
	x := cmat.New(n, k)
	for j := 0; j < k; j++ {
		x.Set((n/3+17*j)%n, j, complex(1, 0.2))
		x.Set((2*n/3+11*j)%n, j, complex(0.6, -0.1))
	}
	y := cmat.Mul(a, x)
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			ph := 2 * math.Pi * math.Mod(float64(i*k+j)*0.311, 1)
			y.Set(i, j, y.At(i, j)+complex(0.05*math.Cos(ph), 0.05*math.Sin(ph)))
		}
	}
	return a, y
}

func benchSolver(b *testing.B, a *cmat.Matrix, opts ...Option) *Solver {
	b.Helper()
	s, err := NewSolver(a, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func benchKronSolver(b *testing.B, g, s *cmat.Matrix, opts ...Option) *Solver {
	b.Helper()
	sv, err := NewKronSolver(g, s, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return sv
}

// BenchmarkADMMCold measures one full cold ADMM solve at the batch
// benchmark's joint-dictionary dimensions (90 x 920, 2 fused snapshots,
// 150-iteration cap) — the unit of work behind core.solve.seconds.
func BenchmarkADMMCold(b *testing.B) {
	a, y := benchProblem(90, 920, 2)
	s := benchSolver(b, a, WithMaxIters(150))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SolveMulti(y, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// benchKronProblem builds a joint-dictionary-shaped problem from explicit
// Kronecker factors — an ll x tt delay factor and an mm x cc AoA factor of
// unit-modulus phase ramps — plus the dense product they tile and a k-column
// observation of a 2-sparse truth, so the factored solver path can be
// measured against the dense one on identical data. The support sits at
// atoms 300 and 610 of the paper's 920, scaled to the dictionary width.
func benchKronProblem(ll, tt, mm, cc, k int) (g, s, dense, y *cmat.Matrix) {
	g = cmat.New(ll, tt)
	for l := 0; l < ll; l++ {
		for t := 0; t < tt; t++ {
			ph := 2 * math.Pi * math.Mod(float64(l*(t+1))*0.083, 1)
			g.Set(l, t, complex(math.Cos(ph), math.Sin(ph)))
		}
	}
	s = cmat.New(mm, cc)
	for m := 0; m < mm; m++ {
		for i := 0; i < cc; i++ {
			ph := 2 * math.Pi * math.Mod(float64(m*(i+2))*0.199, 1)
			s.Set(m, i, complex(math.Cos(ph), math.Sin(ph)))
		}
	}
	dense = cmat.Kron(g, s)
	n := tt * cc
	x := cmat.New(n, k)
	for j := 0; j < k; j++ {
		x.Set((300*n/920+17*j)%n, j, complex(1, 0.2))
		x.Set((610*n/920+11*j)%n, j, complex(0.6, -0.1))
	}
	y = cmat.Mul(dense, x)
	return g, s, dense, y
}

// BenchmarkADMMKron is BenchmarkADMMCold on a Kronecker solver built from
// the dictionary's factors (30 x 20 delay factor, 3 x 46 AoA factor — the paper's
// dimensions) — the per-iteration configuration of the serving profile.
func BenchmarkADMMKron(b *testing.B) {
	g, s, _, y := benchKronProblem(30, 20, 3, 46, 2)
	sv := benchKronSolver(b, g, s, WithMaxIters(150))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sv.SolveMulti(y, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkADMMKronK1 measures the single-snapshot case (k=1), the shape of
// the median solve in the batch benchmark.
func BenchmarkADMMKronK1(b *testing.B) {
	g, s, _, y := benchKronProblem(30, 20, 3, 46, 1)
	sv := benchKronSolver(b, g, s, WithMaxIters(150))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sv.SolveMulti(y, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkADMMKronSmoke measures the solve the serving workloads run: the
// "smoke" preset's joint dictionary (8 subcarriers x 8 delays, 3 antennas x
// 19 angles), one fused snapshot, a 60-iteration cap and the serving profile's
// gap stop, with kappa at the estimator's default 0.25 of max_i ||(AᴴY)_i||.
func BenchmarkADMMKronSmoke(b *testing.B) {
	g, s, dense, y := benchKronProblem(8, 8, 3, 19, 1)
	sv := benchKronSolver(b, g, s, WithMaxIters(60), WithGapStop(0.02))
	kappa := 0.25 * kappaScale(dense, y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sv.SolveMulti(y, kappa); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkADMMKronGapStop measures a fused serving burst: 24 noisy
// measurement blocks at the serving shape with one to three fused snapshots,
// solved under the serving profile (60-iteration cap, gap stop at 0.02,
// kappa at 0.25 of max_i ||(AᴴY)_i||). One op is the whole burst; the
// iterations per solve are reported alongside.
func BenchmarkADMMKronGapStop(b *testing.B) {
	g, s, dense, _ := benchKronProblem(8, 8, 3, 19, 1)
	sv := benchKronSolver(b, g, s, WithMaxIters(60), WithGapStop(0.02))
	rng := rand.New(rand.NewSource(17))
	n := dense.Cols()
	var ys []*cmat.Matrix
	var kappas []float64
	for p := 0; p < 24; p++ {
		k := 1 + p%3
		x := cmat.New(n, k)
		for _, j := range rng.Perm(n)[:2] {
			for c := 0; c < k; c++ {
				x.Set(j, c, complex(rng.NormFloat64(), rng.NormFloat64()))
			}
		}
		y := cmat.Mul(dense, x)
		yd := y.Data()
		for i := range yd {
			yd[i] += complex(0.3*rng.NormFloat64(), 0.3*rng.NormFloat64())
		}
		ys = append(ys, y)
		kappas = append(kappas, 0.25*kappaScale(dense, y))
	}
	iters := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p, y := range ys {
			r, err := sv.SolveMulti(y, kappas[p])
			if err != nil {
				b.Fatal(err)
			}
			iters += r.Iterations
		}
	}
	b.ReportMetric(float64(iters)/float64(b.N*len(ys)), "iters/solve")
}

// BenchmarkKronWoodbury isolates the Kronecker x-update kernel
// (woodburyInto) at the serving shape of BenchmarkADMMKronSmoke: one
// Aᴴ(rho I + AAᴴ)⁻¹A v step on the 8x8 delay and 3x19 AoA factors for a
// single snapshot column.
func BenchmarkKronWoodbury(b *testing.B) {
	g, s, dense, y := benchKronProblem(8, 8, 3, 19, 1)
	sv := benchKronSolver(b, g, s)
	scratch := make([]complex128, sv.kron.scratchLen(1))
	v := cmat.New(dense.Cols(), 1)
	sv.kron.mulHInto(y, v, scratch)
	out := cmat.New(v.Rows(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv.kron.woodburyInto(v, out, scratch)
	}
}

// BenchmarkFISTACold mirrors BenchmarkADMMCold for the proximal-gradient
// path used by the solver ablation.
func BenchmarkFISTACold(b *testing.B) {
	a, y := benchProblem(90, 920, 2)
	s := benchSolver(b, a, WithMethod(MethodFISTA), WithMaxIters(150))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SolveMulti(y, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}
