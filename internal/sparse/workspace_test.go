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
// a serving-shape Kronecker solve allocates only what it returns — the
// Result, X's column slice and its k columns, and RowMags — for ADMM and
// FISTA at k = 1 and 3, through SolveMulti and SolveMultiRatio alike.
func TestWarmKronSolveAllocatesOnlyOutputs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled workspaces at random under -race")
	}
	g, s, dense, ys := servingProblems(3)
	for _, method := range []Method{MethodADMM, MethodFISTA} {
		sv := servingSolver(t, method, g, s, dense)
		for _, y := range []*cmat.Matrix{ys[0], ys[2]} {
			k := y.Cols()
			ceiling := float64(3 + k)
			kappa := 0.25 * kappaScale(dense, y)
			for _, entry := range []struct {
				name  string
				solve func() (*Result, error)
			}{
				{"SolveMulti", func() (*Result, error) { return sv.SolveMulti(y, kappa) }},
				{"SolveMultiRatio", func() (*Result, error) { return sv.SolveMultiRatio(y, 0.25) }},
			} {
				if _, err := entry.solve(); err != nil { // warm the pool
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(20, func() {
					if _, err := entry.solve(); err != nil {
						t.Fatal(err)
					}
				})
				if allocs > ceiling {
					t.Errorf("%v k=%d %s: %.1f allocations per warm solve, ceiling %.0f", method, k, entry.name, allocs, ceiling)
				}
			}
		}
	}
}

// resultDigest hashes every bit of a result (see hashResult).
func resultDigest(r *Result) string {
	h := sha256.New()
	hashResult(h, r)
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
			r, err := ref.SolveMultiRatio(y, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			want[p] = resultDigest(r)
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
					r, err := shared.SolveMultiRatio(ys[p], 0.25)
					if err != nil {
						errs <- err.Error()
						return
					}
					if got := resultDigest(r); got != want[p] {
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
				want, err := sv.SolveMulti(y, 0.25*math.Sqrt(mx))
				if err != nil {
					t.Fatal(err)
				}
				got, err := sv.SolveMultiRatio(y, 0.25)
				if err != nil {
					t.Fatal(err)
				}
				if resultDigest(got) != resultDigest(want) {
					t.Fatalf("kron=%v %v problem %d: SolveMultiRatio differs from SolveMulti", kron, method, p)
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
		if _, err := sv.SolveMultiRatio(ys[0], ratio); err == nil {
			t.Errorf("ratio %v accepted", ratio)
		}
	}
	bad := ys[0].Clone()
	bad.Set(0, 0, complex(math.NaN(), 0))
	if _, err := sv.SolveMultiRatio(bad, 0.25); err == nil {
		t.Error("non-finite measurement accepted")
	}
	if _, err := sv.SolveMultiRatio(cmat.New(dense.Rows()+1, 1), 0.25); err == nil {
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
