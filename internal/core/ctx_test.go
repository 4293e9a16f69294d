package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"roarray/internal/sparse"
	"roarray/internal/spectra"
	"roarray/internal/wireless"
)

// ctxTestObservations builds a 2-AP observation set over the given room.
func ctxTestObservations(room Rect) []APObservation {
	target := Point{X: room.MinX + (room.MaxX-room.MinX)/3, Y: room.MinY + (room.MaxY-room.MinY)/2}
	aps := []Point{{X: room.MinX, Y: room.MinY}, {X: room.MaxX, Y: room.MaxY}}
	obs := make([]APObservation, len(aps))
	for i, p := range aps {
		obs[i] = APObservation{Pos: p, AxisDeg: 30, AoADeg: ExpectedAoA(p, 30, target), RSSIdBm: -50}
	}
	return obs
}

// TestLocalizeParallelCtxDeadCtxFailsFast: an already-dead context aborts the
// flat scan before any sweep, and the error unwraps to the context's cause.
func TestLocalizeParallelCtxDeadCtxFailsFast(t *testing.T) {
	room := Rect{MinX: 0, MinY: 0, MaxX: 5, MaxY: 5}
	obs := ctxTestObservations(room)

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()

	for _, tc := range []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"canceled", canceled, context.Canceled},
		{"expired", expired, context.DeadlineExceeded},
	} {
		if _, err := localizeFlatCtx(tc.ctx, obs, room, 0.1); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want wrapped %v", tc.name, err, tc.want)
		}
	}
}

// TestLocalizeParallelCtxAbortsMidSearch cancels a deliberately huge flat
// sweep shortly after it starts and requires a prompt, wrapped return — the
// scan must stop within a column, not finish the grid.
func TestLocalizeParallelCtxAbortsMidSearch(t *testing.T) {
	// ~8M grid points: several seconds of sweeping if cancellation fails.
	room := Rect{MinX: 0, MinY: 0, MaxX: 140, MaxY: 140}
	obs := ctxTestObservations(room)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := localizeFlatCtx(ctx, obs, room, 0.05)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want wrapped context.Canceled", err)
		}
		if el := time.Since(start); el > 3*time.Second {
			t.Fatalf("returned after %v, not promptly", el)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("grid search ignored cancellation")
	}
}

// TestLocalizeParallelCtxLiveCtxMatchesPlain: polling a live, cancellable
// context must not perturb a single bit of the search result, for the flat
// scan and the branch-and-bound alike.
func TestLocalizeParallelCtxLiveCtxMatchesPlain(t *testing.T) {
	room := Rect{MinX: 0, MinY: 0, MaxX: 9.7, MaxY: 6.4}
	obs := ctxTestObservations(room)
	want, err := localizeFlat(obs, room, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := localizeFlatCtx(live, obs, room, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "flat scan under a live ctx", got, want)
	got, _, err = LocalizeSearchCtx(live, obs, room, 0.1, 1, SearchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "search under a live ctx", got, want)
}

// TestEngineLocalizeCtxDeadline: a request whose deadline has already passed
// must fail with a wrapped DeadlineExceeded and no position, never a stale
// answer.
func TestEngineLocalizeCtxDeadline(t *testing.T) {
	est := engineTestEstimator(t)
	eng, err := NewEngine(est, 2)
	if err != nil {
		t.Fatal(err)
	}
	reqs := engineTestRequests(t, 1, 2, 930)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	res, err := eng.Localize(ctx, reqs[0])
	if res != nil {
		t.Fatalf("expired request returned a result: %+v", res)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
}

// TestLocalizeBatchEachCtxPerRequestCancel: one poisoned BatchItem.Ctx in a
// batch aborts only its own slot; the surviving slots are bit-identical to an
// unpoisoned batch.
func TestLocalizeBatchEachCtxPerRequestCancel(t *testing.T) {
	est := engineTestEstimator(t)
	eng, err := NewEngine(est, 2)
	if err != nil {
		t.Fatal(err)
	}
	reqs := engineTestRequests(t, 3, 2, 940)

	want, werrs := localizeBatch(context.Background(), eng, reqs)
	for i := range reqs {
		if werrs[i] != nil {
			t.Fatal(werrs[i])
		}
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	items := []BatchItem{{Req: reqs[0]}, {Req: reqs[1], Ctx: canceled}, {Req: reqs[2]}}
	outs := eng.LocalizeBatchItems(context.Background(), items)
	if !errors.Is(outs[1].Err, context.Canceled) {
		t.Fatalf("slot 1 err = %v, want wrapped context.Canceled", outs[1].Err)
	}
	if outs[1].Res != nil {
		t.Fatalf("canceled slot returned a result: %+v", outs[1].Res)
	}
	for _, i := range []int{0, 2} {
		if outs[i].Err != nil {
			t.Fatalf("slot %d: %v", i, outs[i].Err)
		}
		got := outs[i].Res.Position
		if math.Float64bits(got.X) != math.Float64bits(want[i].Position.X) ||
			math.Float64bits(got.Y) != math.Float64bits(want[i].Position.Y) {
			t.Fatalf("slot %d position %+v != reference %+v (bitwise)", i, got, want[i].Position)
		}
	}
}

// TestLocalizeBatchPanicIsolation: a panic inside one request's pipeline
// (here: a solver iteration hook that blows up during the first request's
// first solve) is converted into that slot's error while the rest of the
// batch completes.
func TestLocalizeBatchPanicIsolation(t *testing.T) {
	ofdm := wireless.Intel5300OFDM()
	solves := 0
	est, err := NewEstimator(Config{
		Array:     wireless.Intel5300Array(),
		OFDM:      ofdm,
		ThetaGrid: spectra.UniformGrid(0, 180, 31),
		TauGrid:   spectra.UniformGrid(0, ofdm.MaxToA(), 10),
		SolverOptions: []sparse.Option{
			sparse.WithMaxIters(60),
			sparse.WithIterationHook(func(iter int, mags []float64) {
				if iter == 1 {
					solves++
				}
				if solves == 1 {
					panic("injected solver panic")
				}
			}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One worker: requests run in order, so the first solve — and the panic —
	// deterministically belongs to slot 0.
	eng, err := NewEngine(est, 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs := engineTestRequests(t, 2, 2, 950)

	results, errs := localizeBatch(context.Background(), eng, reqs)
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "panicked") {
		t.Fatalf("poisoned slot err = %v, want recovered panic", errs[0])
	}
	if results[0] != nil {
		t.Fatal("poisoned slot should have no result")
	}
	if errs[1] != nil {
		t.Fatalf("healthy slot: %v", errs[1])
	}
	if !reqs[1].Bounds.Contains(results[1].Position) {
		t.Fatalf("healthy slot position %+v outside bounds", results[1].Position)
	}
}

// TestLocalizeNilPacketDegrades: a nil CSI pointer in one link's burst — the
// input that used to panic its whole request — is now caught by admission
// sanitization: the request succeeds, the bad link degrades to broadside at
// floor confidence, and the healthy links carry the position.
func TestLocalizeNilPacketDegrades(t *testing.T) {
	est := engineTestEstimator(t)
	eng, err := NewEngine(est, 2)
	if err != nil {
		t.Fatal(err)
	}
	req := engineTestRequests(t, 1, 2, 950)[0]
	req.Links[0].Packets = append([]*wireless.CSI(nil), req.Links[0].Packets...)[:1]
	req.Links[0].Packets[0] = nil

	res, err := eng.Localize(context.Background(), req)
	if err != nil {
		t.Fatalf("nil packet should degrade, not fail: %v", err)
	}
	if !req.Bounds.Contains(res.Position) {
		t.Fatalf("position %+v outside bounds", res.Position)
	}
	bad := res.Links[0]
	if !errors.Is(bad.Err, ErrNoUsablePackets) {
		t.Fatalf("bad link err = %v, want ErrNoUsablePackets", bad.Err)
	}
	if bad.AoADeg != 90 {
		t.Fatalf("bad link AoA %v, want broadside 90", bad.AoADeg)
	}
	if bad.Confidence <= 0 || bad.Confidence > 0.1 {
		t.Fatalf("bad link confidence %v, want floor", bad.Confidence)
	}
	if bad.Sanitize == nil || bad.Sanitize.DroppedDimension != 1 {
		t.Fatalf("bad link sanitize report %+v", bad.Sanitize)
	}
	for i, l := range res.Links[1:] {
		if l.Err != nil {
			t.Fatalf("healthy link %d: %v", i+1, l.Err)
		}
		if l.Confidence != 0 || l.Sanitize != nil {
			t.Fatalf("healthy link %d flagged: conf %v report %+v", i+1, l.Confidence, l.Sanitize)
		}
	}
}
