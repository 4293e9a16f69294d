package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"roarray/internal/sparse"
	"roarray/internal/spectra"
	"roarray/internal/wireless"
)

// engineTestEstimator builds a small-grid estimator that keeps engine tests
// fast while exercising the full joint pipeline.
func engineTestEstimator(t testing.TB) *Estimator {
	t.Helper()
	ofdm := wireless.Intel5300OFDM()
	est, err := NewEstimator(Config{
		Array:         wireless.Intel5300Array(),
		OFDM:          ofdm,
		ThetaGrid:     spectra.UniformGrid(0, 180, 31),
		TauGrid:       spectra.UniformGrid(0, ofdm.MaxToA(), 10),
		SolverOptions: []sparse.Option{sparse.WithMaxIters(60)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// localizeBatch runs reqs as one stateless LocalizeBatchItems batch and
// splits the outcomes into index-aligned results and errors.
func localizeBatch(ctx context.Context, eng *Engine, reqs []*LocalizeRequest) ([]*LocalizeResult, []error) {
	items := make([]BatchItem, len(reqs))
	for i, req := range reqs {
		items[i].Req = req
	}
	results := make([]*LocalizeResult, len(reqs))
	errs := make([]error, len(reqs))
	for i, out := range eng.LocalizeBatchItems(ctx, items) {
		results[i], errs[i] = out.Res, out.Err
	}
	return results, errs
}

// engineTestRequests synthesizes n small localization requests over a square
// room with 4 corner APs, each request from its own seeded RNG.
func engineTestRequests(t testing.TB, n, packets int, baseSeed int64) []*LocalizeRequest {
	t.Helper()
	arr := wireless.Intel5300Array()
	ofdm := wireless.Intel5300OFDM()
	room := Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 8}
	aps := []struct {
		pos  Point
		axis float64
	}{
		{Point{X: 0.1, Y: 4}, 90},
		{Point{X: 9.9, Y: 4}, 90},
		{Point{X: 5, Y: 0.1}, 0},
		{Point{X: 5, Y: 7.9}, 0},
	}
	reqs := make([]*LocalizeRequest, n)
	for r := 0; r < n; r++ {
		rng := rand.New(rand.NewSource(baseSeed + int64(r)))
		client := Point{X: 1 + 8*rng.Float64(), Y: 1 + 6*rng.Float64()}
		links := make([]LinkInput, len(aps))
		for i, ap := range aps {
			dist := ap.pos.Dist(client)
			cfg := &wireless.ChannelConfig{
				Array: arr,
				OFDM:  ofdm,
				Paths: []wireless.Path{
					{AoADeg: ExpectedAoA(ap.pos, ap.axis, client), ToA: dist / wireless.SpeedOfLight, Gain: complex(1/dist, 0)},
					{AoADeg: 30 + 120*rng.Float64(), ToA: (dist + 3) / wireless.SpeedOfLight, Gain: complex(0.3/dist, 0)},
				},
				SNRdB:             15,
				MaxDetectionDelay: 100e-9,
			}
			burst, err := wireless.GenerateBurst(cfg, packets, rng)
			if err != nil {
				t.Fatal(err)
			}
			links[i] = LinkInput{Pos: ap.pos, AxisDeg: ap.axis, RSSIdBm: -50, Packets: burst}
		}
		reqs[r] = &LocalizeRequest{Links: links, Bounds: room, Step: 0.25}
	}
	return reqs
}

// TestLocalizeBatchMatchesSerial is the equivalence table: for fixed seeds,
// LocalizeBatchItems over N requests must produce results identical to the serial
// per-request loop, across worker counts 1, 2, and 8.
func TestLocalizeBatchMatchesSerial(t *testing.T) {
	est := engineTestEstimator(t)
	reqs := engineTestRequests(t, 4, 3, 900)

	// Serial reference: plain Estimator + flat Eq. 19 search, no engine.
	want := make([]Point, len(reqs))
	wantAoA := make([][]float64, len(reqs))
	for r, req := range reqs {
		obs := make([]APObservation, len(req.Links))
		wantAoA[r] = make([]float64, len(req.Links))
		for i, in := range req.Links {
			aoa := 90.0
			if peak, _, err := est.EstimateDirectAoA(context.Background(), in.Packets); err == nil {
				aoa = peak.ThetaDeg
			}
			wantAoA[r][i] = aoa
			obs[i] = APObservation{Pos: in.Pos, AxisDeg: in.AxisDeg, AoADeg: aoa, RSSIdBm: in.RSSIdBm}
		}
		pos, err := localizeFlat(obs, req.Bounds, req.Step)
		if err != nil {
			t.Fatal(err)
		}
		want[r] = pos
	}

	for _, workers := range []int{1, 2, 8} {
		eng, err := NewEngine(est, workers)
		if err != nil {
			t.Fatal(err)
		}
		results, errs := localizeBatch(context.Background(), eng, reqs)
		for r := range reqs {
			if errs[r] != nil {
				t.Fatalf("workers=%d request %d: %v", workers, r, errs[r])
			}
			if d := results[r].Position.Dist(want[r]); d > 1e-9 {
				t.Fatalf("workers=%d request %d: position %+v differs from serial %+v by %v m",
					workers, r, results[r].Position, want[r], d)
			}
			for i, lr := range results[r].Links {
				if math.Abs(lr.AoADeg-wantAoA[r][i]) > 1e-9 {
					t.Fatalf("workers=%d request %d link %d: AoA %v differs from serial %v",
						workers, r, i, lr.AoADeg, wantAoA[r][i])
				}
			}
		}
	}
}

// TestLocalizeBatchBitReproducible checks that repeated batch runs (and runs
// at different worker counts) agree to the last bit, the property that makes
// parallel serving auditable.
func TestLocalizeBatchBitReproducible(t *testing.T) {
	est := engineTestEstimator(t)
	reqs := engineTestRequests(t, 3, 2, 910)

	var ref []Point
	for run := 0; run < 2; run++ {
		for _, workers := range []int{1, 4} {
			eng, err := NewEngine(est, workers)
			if err != nil {
				t.Fatal(err)
			}
			results, errs := localizeBatch(context.Background(), eng, reqs)
			got := make([]Point, len(results))
			for r := range results {
				if errs[r] != nil {
					t.Fatal(errs[r])
				}
				got[r] = results[r].Position
			}
			if ref == nil {
				ref = got
				continue
			}
			for r := range got {
				if math.Float64bits(got[r].X) != math.Float64bits(ref[r].X) ||
					math.Float64bits(got[r].Y) != math.Float64bits(ref[r].Y) {
					t.Fatalf("run with %d workers: request %d position %+v != reference %+v (bitwise)",
						workers, r, got[r], ref[r])
				}
			}
		}
	}
}

// TestEngineLocalizeSingleRequest exercises the within-request fan-out path
// and its per-link fallback behavior.
func TestEngineLocalizeSingleRequest(t *testing.T) {
	est := engineTestEstimator(t)
	reqs := engineTestRequests(t, 1, 3, 920)
	eng, err := NewEngine(est, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Localize(context.Background(), reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reqs[0].Bounds.Contains(res.Position) {
		t.Fatalf("position %+v outside bounds %+v", res.Position, reqs[0].Bounds)
	}
	if len(res.Links) != len(reqs[0].Links) {
		t.Fatalf("got %d link results for %d links", len(res.Links), len(reqs[0].Links))
	}
	serial, err := NewEngine(est, 1)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := serial.Localize(context.Background(), reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if sres.Position != res.Position {
		t.Fatalf("parallel position %+v != serial %+v", res.Position, sres.Position)
	}

	// A link with no packets degrades to the broadside fallback with a
	// recorded error instead of failing the request.
	broken := *reqs[0]
	broken.Links = append([]LinkInput(nil), reqs[0].Links...)
	broken.Links[1].Packets = nil
	bres, err := eng.Localize(context.Background(), &broken)
	if err != nil {
		t.Fatal(err)
	}
	if bres.Links[1].Err == nil {
		t.Fatal("empty link should record an error")
	}
	if bres.Links[1].AoADeg != 90 {
		t.Fatalf("empty link AoA = %v, want broadside 90", bres.Links[1].AoADeg)
	}
}

// TestEngineValidation covers constructor and request validation.
func TestEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, 2); err == nil {
		t.Fatal("nil estimator should error")
	}
	est := engineTestEstimator(t)
	eng, err := NewEngine(est, 0)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Workers() < 1 {
		t.Fatalf("workers = %d, want >= 1 from GOMAXPROCS default", eng.Workers())
	}
	if eng.Estimator() != est {
		t.Fatal("engine does not share the estimator")
	}
	if _, err := eng.Localize(context.Background(), nil); err == nil {
		t.Fatal("nil request should error")
	}
	if _, err := eng.Localize(context.Background(), &LocalizeRequest{
		Links:  []LinkInput{{}},
		Bounds: Rect{MaxX: 1, MaxY: 1},
	}); err == nil {
		t.Fatal("single-link request should error")
	}
	if _, err := eng.Localize(context.Background(), &LocalizeRequest{
		Links: []LinkInput{{}, {}},
	}); err == nil {
		t.Fatal("empty bounds should error")
	}
	results, errs := localizeBatch(context.Background(), eng, []*LocalizeRequest{nil})
	if errs[0] == nil || results[0] != nil {
		t.Fatal("nil request in batch should error without a result")
	}
}

// TestLocalizeParallelMatchesSerial checks the strip-parallel grid search is
// bit-identical to the serial sweep across worker counts, including counts
// that exceed the number of grid columns.
func TestLocalizeParallelMatchesSerial(t *testing.T) {
	room := Rect{MinX: 0, MinY: 0, MaxX: 7.3, MaxY: 5.1}
	target := Point{X: 2.9, Y: 3.3}
	corners := []Point{{X: 0, Y: 0}, {X: 7.3, Y: 0}, {X: 0, Y: 5.1}, {X: 7.3, Y: 5.1}}
	obs := make([]APObservation, len(corners))
	for i, c := range corners {
		obs[i] = APObservation{Pos: c, AxisDeg: 45, AoADeg: ExpectedAoA(c, 45, target), RSSIdBm: -48}
	}
	want, err := localizeFlat(obs, room, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8, 1000} {
		got, _, err := LocalizeSearchCtx(context.Background(), obs, room, 0.1, workers, SearchConfig{Mode: SearchFlat})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.X) != math.Float64bits(want.X) ||
			math.Float64bits(got.Y) != math.Float64bits(want.Y) {
			t.Fatalf("workers=%d: %+v != serial %+v (bitwise)", workers, got, want)
		}
	}
}

// TestEngineMapOrdering verifies Map visits every index exactly once and
// that index-addressed writes survive any scheduling.
func TestEngineMapOrdering(t *testing.T) {
	est := engineTestEstimator(t)
	for _, workers := range []int{1, 3, 16} {
		eng, err := NewEngine(est, workers)
		if err != nil {
			t.Fatal(err)
		}
		const n = 57
		out := make([]int, n)
		eng.Map(n, func(i int) { out[i] = i + 1 })
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i+1)
			}
		}
	}
}

// TestLocalizeBatchEachDestinations: slots that name destinations answer
// bit for bit like Localize and LocalizeTracked, at workers 1 and 2, while
// writing into the caller's values. The destinations are reused across
// batches and start out scribbled over, with more link capacity than a
// request needs, as a server's pooled per-request storage would.
func TestLocalizeBatchEachDestinations(t *testing.T) {
	est := engineTestEstimator(t)
	reqs := engineTestRequests(t, 5, 3, 7300)
	const epochs = 4
	for _, workers := range []int{1, 2} {
		eng, err := NewEngine(est, workers)
		if err != nil {
			t.Fatal(err)
		}
		refTr, _ := NewTracker(0, 0, 0)
		tr, _ := NewTracker(0, 0, 0)
		// Slot 1 of every batch is one tracked epoch of a stationary target
		// (so later epochs search a prediction window); slots 0 and 2 are
		// stateless.
		var res [3]LocalizeResult
		var track TrackResult
		for k := range res {
			res[k].Links = make([]LinkResult, 8)
			for i := range res[k].Links {
				res[k].Links[i] = LinkResult{AoADeg: math.NaN(), Err: errors.New("stale"), Sanitize: &BurstReport{Repaired: 9}}
			}
			res[k].Position = Point{X: math.NaN()}
		}
		track = TrackResult{Windowed: true, FallbackCause: "stale", Fix: &LocalizeResult{}}
		windowed := 0
		for e := range epochs {
			items := []BatchItem{
				{Req: reqs[(2*e)%len(reqs)], Res: &res[0], Track: &track},
				{Req: reqs[4], Tracker: tr, T: float64(e), Res: &res[1], Track: &track},
				{Req: reqs[(2*e+1)%len(reqs)], Res: &res[2]},
			}
			backing := &res[1].Links[:1][0]
			var outs [3]BatchOutcome
			eng.LocalizeBatchEach(context.Background(), items, func(i int, out BatchOutcome) { outs[i] = out })
			for i, item := range items {
				out := outs[i]
				if out.Err != nil {
					t.Fatalf("workers=%d epoch %d slot %d: %v", workers, e, i, out.Err)
				}
				if out.Res != item.Res {
					t.Fatalf("workers=%d epoch %d slot %d: result not written to its destination", workers, e, i)
				}
				if item.Tracker == nil {
					if out.Track != nil {
						t.Fatalf("workers=%d epoch %d slot %d: stateless slot returned a track", workers, e, i)
					}
					want, err := eng.Localize(context.Background(), item.Req)
					if err != nil {
						t.Fatal(err)
					}
					requireSameResult(t, workers, e, i, out.Res, want)
					continue
				}
				if out.Track != &track || track.Fix != &res[1] {
					t.Fatalf("workers=%d epoch %d: tracked result not written to its destinations", workers, e)
				}
				if &res[1].Links[0] != backing {
					t.Fatalf("workers=%d epoch %d: destination links reallocated", workers, e)
				}
				want, err := eng.LocalizeTracked(context.Background(), item.Req, refTr, item.T)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, workers, e, i, out.Res, want.Fix)
				if want.Windowed || want.Fallback {
					windowed++
				}
				got := *out.Track
				got.Fix, want.Fix = nil, nil
				if !reflect.DeepEqual(got, *want) {
					t.Fatalf("workers=%d epoch %d: tracked outcome %+v, LocalizeTracked %+v", workers, e, got, *want)
				}
			}
		}
		if tr.State() != refTr.State() {
			t.Fatalf("workers=%d: tracker state %+v, reference %+v", workers, tr.State(), refTr.State())
		}
		if windowed == 0 {
			t.Fatalf("workers=%d: no tracked epoch searched a prediction window", workers)
		}
	}
}

// requireSameResult fails t unless got equals want bit for bit.
func requireSameResult(t *testing.T, workers, epoch, slot int, got, want *LocalizeResult) {
	t.Helper()
	same := math.Float64bits(got.Position.X) == math.Float64bits(want.Position.X) &&
		math.Float64bits(got.Position.Y) == math.Float64bits(want.Position.Y) &&
		got.Search == want.Search && len(got.Links) == len(want.Links)
	for i := 0; same && i < len(got.Links); i++ {
		g, w := got.Links[i], want.Links[i]
		same = math.Float64bits(g.AoADeg) == math.Float64bits(w.AoADeg) &&
			math.Float64bits(g.Confidence) == math.Float64bits(w.Confidence) &&
			g.Peak == w.Peak && g.Solve == w.Solve &&
			(g.Err == nil) == (w.Err == nil) && reflect.DeepEqual(g.Sanitize, w.Sanitize)
	}
	if !same {
		t.Fatalf("workers=%d epoch %d slot %d: batch result %+v, direct %+v", workers, epoch, slot, got, want)
	}
}
