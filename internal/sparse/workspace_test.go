package sparse

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"roarray/internal/cmat"
)

// servingProblems returns count noisy measurement blocks at the serving
// shape (the smoke preset's 8 x 8 delay and 3 x 19 AoA factors) with
// k = 1, 2, 3 snapshots interleaved, plus the factors and their dense
// product.
func servingProblems(count int) (g, s, dense *cmat.Matrix, ys []*cmat.Matrix) {
	g, s, dense, _ = benchKronProblem(8, 8, 3, 19, 1)
	rng := rand.New(rand.NewSource(23))
	n := dense.Cols()
	for p := 0; p < count; p++ {
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
	}
	return g, s, dense, ys
}

// servingSolver builds the serving profile's joint solver (60-iteration cap,
// 2% gap stop, Kronecker factors) with the given method.
func servingSolver(t testing.TB, method Method, g, s, dense *cmat.Matrix) *Solver {
	t.Helper()
	sv, err := NewSolver(dense, WithMethod(method), WithMaxIters(60), WithGapStop(0.02), WithKronecker(g, s))
	if err != nil {
		t.Fatal(err)
	}
	return sv
}

// TestWarmKronSolveAllocatesOnlyOutputs: once its pooled workspace is warm,
// a serving-shape Kronecker solve allocates only what it returns. Through
// SolveMulti that is the Result and its RowMags (2); through
// SolveMultiRatio, handed back its previous RowMags, nothing at all. Both
// are checked for ADMM and FISTA at k = 1 and 3.
func TestWarmKronSolveAllocatesOnlyOutputs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled workspaces at random under -race")
	}
	g, s, dense, ys := servingProblems(3)
	for _, method := range []Method{MethodADMM, MethodFISTA} {
		sv := servingSolver(t, method, g, s, dense)
		for _, y := range []*cmat.Matrix{ys[0], ys[2]} {
			k := y.Cols()
			kappa := 0.25 * kappaScale(dense, y)
			var mags []float64
			for _, entry := range []struct {
				name    string
				ceiling float64
				solve   func() error
			}{
				{"SolveMulti", 2, func() error {
					_, err := sv.SolveMulti(y, kappa)
					return err
				}},
				{"SolveMultiRatio", 0, func() error {
					res, err := sv.SolveMultiRatio(y, 0.25, mags)
					mags = res.RowMags
					return err
				}},
			} {
				if err := entry.solve(); err != nil { // warm the pool
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(20, func() {
					if err := entry.solve(); err != nil {
						t.Fatal(err)
					}
				})
				if allocs > entry.ceiling {
					t.Errorf("%v k=%d %s: %.1f allocations per warm solve, ceiling %.0f", method, k, entry.name, allocs, entry.ceiling)
				}
			}
		}
	}
}

// resultDigest hashes every bit of a result and its final iterate (see
// hashResult).
func resultDigest(r *Result, x [][]complex128) string {
	h := sha256.New()
	hashResult(h, r, x)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestConcurrentSolvesMatchSerial: 16 goroutines share one Solver, each
// solving a rotation of 24 serving-shape problems with k = 1, 2, 3
// interleaved, so pooled workspaces pass between snapshot counts and
// goroutines. Every result must equal the serial solve of its problem bit
// for bit, for ADMM and FISTA (`make race` runs this under -race).
func TestConcurrentSolvesMatchSerial(t *testing.T) {
	g, s, dense, ys := servingProblems(24)
	for _, method := range []Method{MethodADMM, MethodFISTA} {
		ref := servingSolver(t, method, g, s, dense)
		want := make([]string, len(ys))
		for p, y := range ys {
			r, x, err := solveIterate(ref, y, 0.25, true)
			if err != nil {
				t.Fatal(err)
			}
			want[p] = resultDigest(r, x)
		}
		shared := servingSolver(t, method, g, s, dense)
		var wg sync.WaitGroup
		errs := make(chan string, 16)
		for gr := 0; gr < 16; gr++ {
			wg.Add(1)
			go func(gr int) {
				defer wg.Done()
				for i := range ys {
					p := (gr*5 + i) % len(ys)
					r, x, err := solveIterate(shared, ys[p], 0.25, true)
					if err != nil {
						errs <- err.Error()
						return
					}
					if got := resultDigest(r, x); got != want[p] {
						errs <- fmt.Sprintf("%v goroutine %d problem %d (k=%d): result differs from the serial solve", method, gr, p, ys[p].Cols())
						return
					}
				}
			}(gr)
		}
		wg.Wait()
		close(errs)
		for msg := range errs {
			t.Error(msg)
		}
	}
}

// TestSolveMultiRatioMatchesSolveMulti: SolveMultiRatio returns, bit for
// bit, SolveMulti at kappa = ratio * max_i ||(AᴴY)_i|| with AᴴY formed the
// way the solver forms it (through the factors on a Kronecker solver,
// cmat.MulH on a dense one) and each row's squares summed in column order.
func TestSolveMultiRatioMatchesSolveMulti(t *testing.T) {
	g, s, dense, ys := servingProblems(6)
	for _, kron := range []bool{false, true} {
		for _, method := range []Method{MethodADMM, MethodFISTA} {
			opts := []Option{WithMethod(method), WithMaxIters(60), WithGapStop(0.02)}
			if kron {
				opts = append(opts, WithKronecker(g, s))
			}
			sv, err := NewSolver(dense, opts...)
			if err != nil {
				t.Fatal(err)
			}
			var mags []float64
			for p, y := range ys {
				var aty *cmat.Matrix
				if kron {
					aty = cmat.New(dense.Cols(), y.Cols())
					sv.kron.mulHInto(y, aty, make([]complex128, sv.kron.scratchLen(1)))
				} else {
					aty = cmat.MulH(dense, y)
				}
				mx := 0.0
				for i := 0; i < aty.Rows(); i++ {
					var n2 float64
					for j := 0; j < aty.Cols(); j++ {
						v := aty.At(i, j)
						n2 += real(v)*real(v) + imag(v)*imag(v)
					}
					if n2 > mx {
						mx = n2
					}
				}
				want, wantX, err := solveIterate(sv, y, 0.25*math.Sqrt(mx), false)
				if err != nil {
					t.Fatal(err)
				}
				got, gotX, err := solveIterate(sv, y, 0.25, true)
				if err != nil {
					t.Fatal(err)
				}
				if resultDigest(got, gotX) != resultDigest(want, wantX) {
					t.Fatalf("kron=%v %v problem %d: SolveMultiRatio differs from SolveMulti", kron, method, p)
				}
				// The public entry points return the same results, the
				// ratio path into a reused RowMags buffer.
				pubWant, err := sv.SolveMulti(y, 0.25*math.Sqrt(mx))
				if err != nil {
					t.Fatal(err)
				}
				pubGot, err := sv.SolveMultiRatio(y, 0.25, mags)
				if err != nil {
					t.Fatal(err)
				}
				mags = pubGot.RowMags
				if resultDigest(&pubGot, nil) != resultDigest(want, nil) || resultDigest(pubWant, nil) != resultDigest(want, nil) {
					t.Fatalf("kron=%v %v problem %d: public entry points differ from the solve path", kron, method, p)
				}
			}
		}
	}
}

// TestSolveMultiRatioRejects: a negative or non-finite ratio fails, as does
// a measurement SolveMulti would reject.
func TestSolveMultiRatioRejects(t *testing.T) {
	g, s, dense, ys := servingProblems(1)
	sv := servingSolver(t, MethodADMM, g, s, dense)
	for _, ratio := range []float64{-0.1, math.NaN(), math.Inf(1)} {
		if _, err := sv.SolveMultiRatio(ys[0], ratio, nil); err == nil {
			t.Errorf("ratio %v accepted", ratio)
		}
	}
	bad := ys[0].Clone()
	bad.Set(0, 0, complex(math.NaN(), 0))
	if _, err := sv.SolveMultiRatio(bad, 0.25, nil); err == nil {
		t.Error("non-finite measurement accepted")
	}
	if _, err := sv.SolveMultiRatio(cmat.New(dense.Rows()+1, 1), 0.25, nil); err == nil {
		t.Error("mis-shaped measurement accepted")
	}
}

// TestKronSolverDropsDenseDictionary: a Kronecker solver keeps no dense
// dictionary once built; a dense one keeps the matrix it iterates on.
func TestKronSolverDropsDenseDictionary(t *testing.T) {
	g, s, dense, _ := servingProblems(0)
	if d := servingSolver(t, MethodADMM, g, s, dense).Dict(); d != nil {
		t.Errorf("Kronecker solver keeps a %dx%d dense dictionary", d.Rows(), d.Cols())
	}
	plain, err := NewSolver(dense)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Dict() != dense {
		t.Error("dense solver does not keep its dictionary")
	}
}
