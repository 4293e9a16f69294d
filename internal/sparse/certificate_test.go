package sparse

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"roarray/internal/cmat"
)

// certProblem is one seeded group-LASSO instance: a dictionary, the options
// selecting its solver path (WithKronecker, or none for the dense path), a
// k-column measurement block and its kappa.
type certProblem struct {
	name  string
	a     *cmat.Matrix
	path  []Option
	y     *cmat.Matrix
	kappa float64
}

// certProblems builds seeds problems per shape and snapshot count k = 1..3:
// a dense 24 x 96 dictionary of random unit columns, and a Kronecker
// dictionary at the serving shape (8 x 8 delay factor, 3 x 19 AoA factor).
// Each Y is a 3-sparse truth whose columns share a support, plus noise;
// kappa is 0.1 to 0.4 of max_i ||(AᴴY)_i||.
func certProblems(seeds int) []certProblem {
	var out []certProblem
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(1700 + seed)))
		dense, _, _, _ := makeSparseProblem(rng, 24, 96, 3, 0)
		g, s := randKronFactors(int64(1800+seed), 8, 8, 3, 19)
		kron := cmat.Kron(g, s)
		for _, shape := range []struct {
			name string
			a    *cmat.Matrix
			path []Option
		}{
			{"dense", dense, nil},
			{"kron", kron, []Option{WithKronecker(g, s)}},
		} {
			for k := 1; k <= 3; k++ {
				n, m := shape.a.Cols(), shape.a.Rows()
				x := cmat.New(n, k)
				for _, j := range rng.Perm(n)[:3] {
					for c := 0; c < k; c++ {
						x.Set(j, c, complex(rng.NormFloat64(), rng.NormFloat64()))
					}
				}
				y := cmat.Mul(shape.a, x)
				yd := y.Data()
				for i := range yd {
					yd[i] += complex(rng.NormFloat64(), rng.NormFloat64()) * complex(0.05*math.Sqrt(float64(m)/24), 0)
				}
				out = append(out, certProblem{
					name:  fmt.Sprintf("%s/seed%d/k%d", shape.name, seed, k),
					a:     shape.a,
					path:  shape.path,
					y:     y,
					kappa: (0.1 + 0.3*rng.Float64()) * kappaScale(shape.a, y),
				})
			}
		}
	}
	return out
}

// hashResult folds every bit of a solve's outcome into h: the result and
// its final iterate x, one column per snapshot (see solveIterate).
func hashResult(h hash.Hash, r *Result, x [][]complex128) {
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	flag := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	h.Write([]byte(r.Solver))
	put(uint64(r.Iterations))
	put(flag(r.Converged))
	put(flag(r.EarlyStopped))
	put(math.Float64bits(r.Objective))
	for _, v := range r.RowMags {
		put(math.Float64bits(v))
	}
	for _, col := range x {
		for _, v := range col {
			put(math.Float64bits(real(v)))
			put(math.Float64bits(imag(v)))
		}
	}
}

// solveIterate runs the solve path of SolveMulti (or, when scaled, of
// SolveMultiRatio with w as the ratio) and also returns the final iterate,
// one column per snapshot: the coefficients Result does not carry, which the
// bitwise checks still compare.
func solveIterate(s *Solver, y *cmat.Matrix, w float64, scaled bool) (*Result, [][]complex128, error) {
	var x [][]complex128
	res, err := s.solve(y, w, scaled, nil, func(z *cmat.Matrix) { x = matToColumns(z) })
	if err != nil {
		return nil, nil, err
	}
	return &res, x, nil
}

func matToColumns(x *cmat.Matrix) [][]complex128 {
	out := make([][]complex128, x.Cols())
	for j := 0; j < x.Cols(); j++ {
		out[j] = x.Col(j)
	}
	return out
}

// coldSolveDigest pins the bits of every cold solve that declares no early
// stop: X, RowMags, Objective, Iterations and the status flags over 96
// solves (dense and Kronecker paths, ADMM and FISTA, k = 1..3, a 60-iteration
// cap and a tolerance tight enough to converge).
const coldSolveDigest = "4c9a99aa7be9b9c8828514fdef01b49b712963fd4240dce32936a3a5812e3961"

// TestColdSolveDigest: a solve that declares no early stop computes exactly
// the iterates it always has.
func TestColdSolveDigest(t *testing.T) {
	h := sha256.New()
	for _, p := range certProblems(4) {
		for _, method := range []Method{MethodADMM, MethodFISTA} {
			for _, arm := range [][]Option{
				{WithMaxIters(60)},
				{WithMaxIters(3000), WithTolerance(1e-9, 1e-8)},
			} {
				opts := append(append([]Option{WithMethod(method)}, p.path...), arm...)
				s, err := NewSolver(p.a, opts...)
				if err != nil {
					t.Fatal(err)
				}
				r, x, err := solveIterate(s, p.y, p.kappa, false)
				if err != nil {
					t.Fatalf("%s %v: %v", p.name, method, err)
				}
				hashResult(h, r, x)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != coldSolveDigest {
		t.Fatalf("cold solve digest %s, want %s", got, coldSolveDigest)
	}
}

// TestGapCertificateSound checks the duality-gap certificate against the
// optimum on every iteration. On 30 seeded problems (dense, and Kronecker
// at the serving shape; k = 1..3), ADMM and FISTA must report at each
// iteration a best dual value no larger than P* and a relative gap no
// smaller than the iterate's true relative suboptimality (P - P*)/P, with P
// recomputed from the iterate through the dense dictionary. P* comes from a
// 20,000-iteration dense ADMM solve at a tight tolerance. The certificate
// must also close: every solve is certified below 1e-2 within 300
// iterations.
func TestGapCertificateSound(t *testing.T) {
	const slack = 1e-9
	for _, p := range certProblems(5) {
		ref, err := NewSolver(p.a, WithMaxIters(20000), WithTolerance(1e-13, 1e-12))
		if err != nil {
			t.Fatal(err)
		}
		rr, err := ref.SolveMulti(p.y, p.kappa)
		if err != nil {
			t.Fatal(err)
		}
		pStar := rr.Objective
		for _, method := range []Method{MethodADMM, MethodFISTA} {
			name := fmt.Sprintf("%s/%v", p.name, method)
			minGap := math.Inf(1)
			check := func(it int, z *cmat.Matrix, gap, dualBest float64) {
				if dualBest > pStar*(1+slack) {
					t.Fatalf("%s iteration %d: best dual value %.12g exceeds P* = %.12g", name, it, dualBest, pStar)
				}
				var l1 float64
				for i := 0; i < z.Rows(); i++ {
					l1 += rowNorm(z.RowView(i))
				}
				fit := cmat.Sub(cmat.Mul(p.a, z), p.y).FrobNorm()
				primal := 0.5*fit*fit + p.kappa*l1
				if subopt := (primal - pStar) / primal; gap < subopt-slack {
					t.Fatalf("%s iteration %d: gap %.6g below the true suboptimality %.6g", name, it, gap, subopt)
				}
				minGap = math.Min(minGap, gap)
			}
			opts := append([]Option{WithMethod(method), WithMaxIters(300), WithGapStop(1e-3),
				func(o *options) { o.gapHook = check }}, p.path...)
			s, err := NewSolver(p.a, opts...)
			if err != nil {
				t.Fatal(err)
			}
			r, err := s.SolveMulti(p.y, p.kappa)
			if err != nil {
				t.Fatal(err)
			}
			if minGap > 1e-2 {
				t.Fatalf("%s: certificate never closed below 1e-2 (smallest gap %.3g, %d iterations)", name, minGap, r.Iterations)
			}
			if r.Gap < (r.Objective-pStar)/r.Objective-slack {
				t.Fatalf("%s: reported gap %.6g below the true suboptimality of the result", name, r.Gap)
			}
		}
	}
}
