package fault

import (
	"context"
	"math"
	"math/cmplx"
	"testing"
	"time"

	"roarray/internal/wireless"
)

func testCSI(t *testing.T, m, l int) *wireless.CSI {
	t.Helper()
	c := wireless.NewCSI(m, l)
	for ant := 0; ant < m; ant++ {
		for sc := 0; sc < l; sc++ {
			c.Data[ant][sc] = complex(float64(ant+1), float64(sc+1))
		}
	}
	return c
}

func TestTransformDeterministic(t *testing.T) {
	for _, kind := range []Kind{KindAntennaDropout, KindSubcarrierErasure, KindNaNBurst, KindPhaseJump, KindTruncatedPacket} {
		a, err := New(Plan{Kind: kind, Prob: 0.5}, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(Plan{Kind: kind, Prob: 0.5}, 42)
		if err != nil {
			t.Fatal(err)
		}
		for pkt := 0; pkt < 20; pkt++ {
			ca := a.Transform(testCSI(t, 3, 8))
			cb := b.Transform(testCSI(t, 3, 8))
			if ca.NumSubcarriers != cb.NumSubcarriers || ca.NumAntennas != cb.NumAntennas {
				t.Fatalf("%s packet %d: dims diverge", kind, pkt)
			}
			for ant := range ca.Data {
				for sc := range ca.Data[ant] {
					va, vb := ca.Data[ant][sc], cb.Data[ant][sc]
					same := va == vb ||
						(cmplx.IsNaN(va) && cmplx.IsNaN(vb)) ||
						(cmplx.IsInf(va) && cmplx.IsInf(vb))
					if !same {
						t.Fatalf("%s packet %d [%d][%d]: %v != %v", kind, pkt, ant, sc, va, vb)
					}
				}
			}
		}
		if a.Injected() != b.Injected() {
			t.Fatalf("%s: injection counts diverge: %d vs %d", kind, a.Injected(), b.Injected())
		}
	}
}

func TestTransformIdentityPaths(t *testing.T) {
	c := testCSI(t, 3, 8)
	var nilInj *Injector
	if got := nilInj.Transform(c); got != c {
		t.Fatal("nil injector must return the same pointer")
	}
	for _, kind := range []Kind{KindNone, KindSolverBudget, KindSlowRequest} {
		in, err := New(Plan{Kind: kind}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := in.Transform(c); got != c {
			t.Fatalf("%s injector must be the CSI identity", kind)
		}
		if in.Injected() != 0 {
			t.Fatalf("%s counted a CSI injection", kind)
		}
	}
}

func TestTransformDoesNotMutateInput(t *testing.T) {
	in, err := New(Plan{Kind: KindNaNBurst, Burst: 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	c := testCSI(t, 3, 8)
	want := c.Clone()
	out := in.Transform(c)
	if out == c {
		t.Fatal("always-on fault returned the input pointer")
	}
	for ant := range c.Data {
		for sc := range c.Data[ant] {
			if c.Data[ant][sc] != want.Data[ant][sc] {
				t.Fatalf("input mutated at [%d][%d]", ant, sc)
			}
		}
	}
}

func TestKindEffects(t *testing.T) {
	t.Run("antenna-dropout", func(t *testing.T) {
		in, _ := New(Plan{Kind: KindAntennaDropout, Antennas: 2}, 3)
		out := in.Transform(testCSI(t, 4, 6))
		dead := 0
		for ant := range out.Data {
			zero := true
			for _, v := range out.Data[ant] {
				if v != 0 {
					zero = false
				}
			}
			if zero {
				dead++
			}
		}
		if dead != 2 {
			t.Fatalf("want 2 dead antennas, got %d", dead)
		}
	})
	t.Run("subcarrier-erasure", func(t *testing.T) {
		in, _ := New(Plan{Kind: KindSubcarrierErasure, Subcarriers: 3}, 3)
		out := in.Transform(testCSI(t, 4, 6))
		erased := 0
		for sc := 0; sc < out.NumSubcarriers; sc++ {
			zero := true
			for ant := range out.Data {
				if out.Data[ant][sc] != 0 {
					zero = false
				}
			}
			if zero {
				erased++
			}
		}
		if erased != 3 {
			t.Fatalf("want 3 erased subcarriers, got %d", erased)
		}
	})
	t.Run("nan-burst", func(t *testing.T) {
		in, _ := New(Plan{Kind: KindNaNBurst, Burst: 5}, 3)
		out := in.Transform(testCSI(t, 4, 6))
		bad := 0
		for ant := range out.Data {
			for _, v := range out.Data[ant] {
				if cmplx.IsNaN(v) || cmplx.IsInf(v) {
					bad++
				}
			}
		}
		if bad != 5 {
			t.Fatalf("want 5 non-finite entries, got %d", bad)
		}
	})
	t.Run("phase-jump", func(t *testing.T) {
		in, _ := New(Plan{Kind: KindPhaseJump, PhaseRad: math.Pi}, 3)
		src := testCSI(t, 2, 8)
		out := in.Transform(src)
		changed := 0
		for sc := 0; sc < 8; sc++ {
			if out.Data[0][sc] != src.Data[0][sc] {
				changed++
				// π rotation negates.
				if d := cmplx.Abs(out.Data[0][sc] + src.Data[0][sc]); d > 1e-12 {
					t.Fatalf("subcarrier %d: not a π rotation (residual %v)", sc, d)
				}
			}
		}
		if changed == 0 || changed == 8 {
			t.Fatalf("phase jump must hit a proper suffix, changed %d/8", changed)
		}
	})
	t.Run("truncated-packet", func(t *testing.T) {
		in, _ := New(Plan{Kind: KindTruncatedPacket, Truncate: 3}, 3)
		out := in.Transform(testCSI(t, 2, 8))
		if out.NumSubcarriers != 5 || len(out.Data[0]) != 5 {
			t.Fatalf("want 5 subcarriers after truncation, got %d (row len %d)",
				out.NumSubcarriers, len(out.Data[0]))
		}
	})
}

func TestTransformBurstReusesCleanSlice(t *testing.T) {
	cs := []*wireless.CSI{testCSI(t, 2, 4), testCSI(t, 2, 4)}
	in, _ := New(Plan{Kind: KindNone}, 1)
	if got := in.TransformBurst(cs); &got[0] != &cs[0] {
		t.Fatal("clean burst must reuse the input slice")
	}
	hot, _ := New(Plan{Kind: KindAntennaDropout}, 1)
	out := hot.TransformBurst(cs)
	if &out[0] == &cs[0] {
		t.Fatal("faulted burst must not alias the input slice")
	}
	if cs[0] == out[0] {
		t.Fatal("faulted packet must be a copy")
	}
}

func TestDisturb(t *testing.T) {
	in, err := New(Plan{Kind: KindSlowRequest, Delay: 5 * time.Millisecond}, 9)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	in.Disturb(context.Background())
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("slow-request returned after %v, want >= 5ms", d)
	}
	if in.Injected() != 1 {
		t.Fatalf("want 1 disturbance counted, got %d", in.Injected())
	}

	stuck, err := New(Plan{Kind: KindSlowRequest, StuckProb: 1}, 9)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() { stuck.Disturb(ctx); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stuck request did not release when its context died")
	}

	var nilInj *Injector
	nilInj.Disturb(context.Background()) // must not panic
}
