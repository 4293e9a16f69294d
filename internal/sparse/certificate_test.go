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

// certProblem is one seeded group-LASSO instance: a dictionary and, on the
// Kronecker path, its factors (nil on the dense path), a k-column
// measurement block and its kappa.
type certProblem struct {
	name    string
	shape   string // "dense" or "kron"
	a, g, s *cmat.Matrix
	y       *cmat.Matrix
	kappa   float64
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
			name    string
			a, g, s *cmat.Matrix
		}{
			{"dense", dense, nil, nil},
			{"kron", kron, g, s},
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
					shape: shape.name,
					a:     shape.a,
					g:     shape.g,
					s:     shape.s,
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

// coldSolveDigests pins the bits of every cold solve that declares no early
// stop, one digest per arm (dictionary path and method): X, RowMags,
// Objective, Iterations and the status flags over 24 solves each, 96 in all
// (k = 1..3, a 60-iteration cap and a tolerance tight enough to converge).
// The Kronecker arms run on solvers built from the factors alone: ADMM's
// default rho keeps the bits of the dense one, and FISTA's Lipschitz
// constant comes from the product of the factors' norms
// (cmat.LargestSingular).
var coldSolveDigests = map[string]string{
	"dense/admm":  "4a0c46b466831086726120b931cc25c7f60eed54cf4852a8f8fcb9c6c8337baf",
	"dense/fista": "e2896b3944f46656a1455f243d128f606c0f380261f91fa94d2e09e1b42be656",
	"kron/admm":   "736b63dd60350f8c5a9a038f70831d696b9a2165bac87576f1dc74a7337f988f",
	"kron/fista":  "04de0e8ce381a592266588d4bdf89aa6c92b4492287670fa481992cc70a2e10b",
}

// TestColdSolveDigest: a solve that declares no early stop computes exactly
// the iterates it always has.
func TestColdSolveDigest(t *testing.T) {
	hs := map[string]hash.Hash{}
	for _, p := range certProblems(4) {
		for _, method := range []Method{MethodADMM, MethodFISTA} {
			arm := p.shape + "/" + method.String()
			if hs[arm] == nil {
				hs[arm] = sha256.New()
			}
			for _, stop := range [][]Option{
				{WithMaxIters(60)},
				{WithMaxIters(3000), WithTolerance(1e-9, 1e-8)},
			} {
				s, err := solverFor(p.a, p.g, p.s, append([]Option{WithMethod(method)}, stop...)...)
				if err != nil {
					t.Fatal(err)
				}
				r, x, err := solveIterate(s, p.y, p.kappa, false)
				if err != nil {
					t.Fatalf("%s %v: %v", p.name, method, err)
				}
				hashResult(hs[arm], r, x)
			}
		}
	}
	if len(hs) != len(coldSolveDigests) {
		t.Fatalf("%d arms solved, %d digests pinned", len(hs), len(coldSolveDigests))
	}
	for arm, want := range coldSolveDigests {
		if got := hex.EncodeToString(hs[arm].Sum(nil)); got != want {
			t.Errorf("%s cold solve digest %s, want %s", arm, got, want)
		}
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
			s, err := solverFor(p.a, p.g, p.s, WithMethod(method), WithMaxIters(300), WithGapStop(1e-3),
				func(o *options) { o.gapHook = check })
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
