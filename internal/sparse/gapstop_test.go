package sparse

import (
	"math"
	"math/rand"
	"testing"

	"roarray/internal/cmat"
)

// burstMeasurements builds a burst of slowly varying measurements:
// the k-sparse ground truth drifts a little per packet (phases rotate,
// magnitudes wobble) the way consecutive packets of one transmission do, so
// neighboring solves have neighboring solutions.
func burstMeasurements(rng *rand.Rand, a *cmat.Matrix, xTrue []complex128, packets int, noise float64) []*cmat.Matrix {
	m := a.Rows()
	x := append([]complex128(nil), xTrue...)
	out := make([]*cmat.Matrix, packets)
	for t := 0; t < packets; t++ {
		for j := range x {
			if x[j] == 0 {
				continue
			}
			dm := 1 + 0.01*rng.NormFloat64()
			dp := 0.02 * rng.NormFloat64()
			rot := complex(math.Cos(dp), math.Sin(dp))
			x[j] *= complex(dm, 0) * rot
		}
		y := a.MulVec(x)
		for i := 0; i < m; i++ {
			y[i] += complex(rng.NormFloat64(), rng.NormFloat64()) * complex(noise, 0)
		}
		ym := cmat.New(m, 1)
		ym.SetCol(0, y)
		out[t] = ym
	}
	return out
}

// TestGapStopMatchesFullSolveBurst: across a 64-packet burst, ADMM and
// FISTA with the gap stop enabled end every solve certified, at an objective
// within eps of the full residual criterion's, and spend strictly fewer
// total iterations doing so.
func TestGapStopMatchesFullSolveBurst(t *testing.T) {
	const eps = 0.02
	for _, method := range []Method{MethodADMM, MethodFISTA} {
		t.Run(method.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			a, xTrue, _, _ := makeSparseProblem(rng, 24, 96, 3, 0)
			burst := burstMeasurements(rng, a, xTrue, 64, 0.005)

			full, err := NewSolver(a, WithMethod(method), WithMaxIters(400))
			if err != nil {
				t.Fatal(err)
			}
			stopped, err := NewSolver(a, WithMethod(method), WithMaxIters(400), WithGapStop(eps))
			if err != nil {
				t.Fatal(err)
			}

			kappa := 0.05
			fullIters, stopIters := 0, 0
			for pkt, y := range burst {
				fr, err := full.SolveMulti(y, kappa)
				if err != nil {
					t.Fatalf("packet %d full: %v", pkt, err)
				}
				sr, err := stopped.SolveMulti(y, kappa)
				if err != nil {
					t.Fatalf("packet %d stopped: %v", pkt, err)
				}
				if !sr.Converged || sr.Gap > eps {
					t.Fatalf("packet %d: gap-stopped solve converged=%v with gap %.3g after %d iterations", pkt, sr.Converged, sr.Gap, sr.Iterations)
				}
				if sr.Objective-fr.Objective > eps*sr.Objective {
					t.Fatalf("packet %d: gap-stopped objective %.6g exceeds the full solve's %.6g by more than %v of it", pkt, sr.Objective, fr.Objective, eps)
				}
				fullIters += fr.Iterations
				stopIters += sr.Iterations
			}
			if stopIters >= fullIters {
				t.Fatalf("gap stop spent %d iterations, full solve %d — the stop saved nothing", stopIters, fullIters)
			}
			t.Logf("%s: full %d iters, gap stop %d iters (%.1fx)", method, fullIters, stopIters, float64(fullIters)/float64(stopIters))
		})
	}
}

// TestGapStopDisabledBitIdentical: a gap stop disabled through a
// non-positive eps is bit-identical to the default solver, preserving the
// numerics golden tests pin, and never early-stops.
func TestGapStopDisabledBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, method := range []Method{MethodADMM, MethodFISTA} {
		a, _, y, _ := makeSparseProblem(rng, 16, 48, 2, 0.01)
		ym := cmat.New(len(y), 1)
		ym.SetCol(0, y)
		var ref *Result
		var refX [][]complex128
		for _, stop := range [][]Option{nil, {WithGapStop(0)}, {WithGapStop(-1)}} {
			s, err := NewSolver(a, append([]Option{WithMethod(method), WithMaxIters(150)}, stop...)...)
			if err != nil {
				t.Fatal(err)
			}
			r, x, err := solveIterate(s, ym, 0.1, false)
			if err != nil {
				t.Fatal(err)
			}
			if r.EarlyStopped {
				t.Fatalf("%v: early stop engaged while disabled", method)
			}
			if ref == nil {
				ref, refX = r, x
				continue
			}
			requireResultBits(t, r, x, ref, refX)
		}
	}
}
