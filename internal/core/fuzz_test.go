package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"roarray/internal/wireless"
)

// fuzzBurstValue maps one byte pair to a complex sample, steering the fuzzer
// toward the values the sanitizer exists to catch: NaN, infinities, zeros,
// and ordinary finite numbers.
func fuzzBurstValue(a, b byte) complex128 {
	part := func(c byte) float64 {
		switch c % 7 {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		case 3:
			return 0
		default:
			return float64(c)/32 - 3
		}
	}
	return complex(part(a), part(b))
}

// snapshotBits captures a burst's exact bit patterns so mutation by the
// sanitizer (which must always work on clones) is detectable even through
// NaN payloads.
func snapshotBits(burst []*wireless.CSI) [][][2]uint64 {
	out := make([][][2]uint64, len(burst))
	for i, c := range burst {
		if c == nil {
			continue
		}
		var flat [][2]uint64
		for _, row := range c.Data {
			for _, v := range row {
				flat = append(flat, [2]uint64{math.Float64bits(real(v)), math.Float64bits(imag(v))})
			}
		}
		out[i] = flat
	}
	return out
}

// FuzzSanitizeBurst throws arbitrarily shaped, arbitrarily contaminated CSI
// bursts at the admission sanitizer and checks its contract: never panic,
// never mutate the input, account for every packet exactly once, and only
// ever return finite packets of the requested dimensions.
func FuzzSanitizeBurst(f *testing.F) {
	f.Add([]byte("clean-burst-seed"), byte(3), byte(8), byte(2))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, byte(3), byte(4), byte(3))
	f.Add([]byte{}, byte(1), byte(1), byte(1))
	f.Add([]byte("\x00\x00\x00\x00"), byte(2), byte(2), byte(4))

	f.Fuzz(func(t *testing.T, data []byte, mb, lb, nb byte) {
		wantM := int(mb%4) + 1
		wantL := int(lb%8) + 1
		n := int(nb%5) + 1

		next := func(i int) byte {
			if len(data) == 0 {
				return 0
			}
			return data[i%len(data)]
		}
		burst := make([]*wireless.CSI, n)
		cursor := 0
		for p := 0; p < n; p++ {
			shape := next(cursor)
			cursor++
			switch shape % 8 {
			case 0: // nil packet
				continue
			case 1: // wrong antenna count
				burst[p] = wireless.NewCSI(wantM+1, wantL)
			case 2: // wrong subcarrier count
				burst[p] = wireless.NewCSI(wantM, wantL+1)
			case 3: // ragged rows
				c := wireless.NewCSI(wantM, wantL)
				c.Data[0] = c.Data[0][:wantL-1]
				burst[p] = c
			default:
				burst[p] = wireless.NewCSI(wantM, wantL)
			}
			if burst[p] == nil {
				continue
			}
			for a := range burst[p].Data {
				for s := range burst[p].Data[a] {
					burst[p].Data[a][s] = fuzzBurstValue(next(cursor), next(cursor+1))
					cursor += 2
				}
			}
		}

		before := snapshotBits(burst)
		out, rep, err := SanitizeBurst(burst, wantM, wantL)

		// The input burst is immutable: repairs happen on clones.
		after := snapshotBits(burst)
		for i := range before {
			if len(before[i]) != len(after[i]) {
				t.Fatalf("packet %d: sanitizer resized the input", i)
			}
			for j := range before[i] {
				if before[i][j] != after[i][j] {
					t.Fatalf("packet %d sample %d: sanitizer mutated the input burst", i, j)
				}
			}
		}

		// Bookkeeping: every packet lands in exactly one bucket.
		if rep.Total != n {
			t.Fatalf("report total %d, burst had %d packets", rep.Total, n)
		}
		if rep.Kept+rep.DroppedNonFinite+rep.DroppedDimension != rep.Total {
			t.Fatalf("buckets do not sum: kept %d + nonfinite %d + dim %d != total %d",
				rep.Kept, rep.DroppedNonFinite, rep.DroppedDimension, rep.Total)
		}
		if conf := rep.Confidence(); conf < 0.05-1e-15 || conf > 1 {
			t.Fatalf("confidence %v outside [0.05, 1]", conf)
		}

		if err != nil {
			if rep.Kept != 0 {
				t.Fatalf("error %v but report kept %d packets", err, rep.Kept)
			}
			if !errors.Is(err, ErrNoUsablePackets) {
				t.Fatalf("sanitize error %v does not wrap ErrNoUsablePackets", err)
			}
			return
		}
		if len(out) != rep.Kept || rep.Kept == 0 {
			t.Fatalf("nil error but output has %d packets, report kept %d", len(out), rep.Kept)
		}
		// Every surviving packet is finite and correctly shaped.
		for i, c := range out {
			if p := dimensionProblem(c, wantM, wantL); p != "" {
				t.Fatalf("kept packet %d is misshapen: %s", i, p)
			}
			if n := nonFiniteCount(c); n > 0 {
				t.Fatalf("kept packet %d has %d non-finite entries", i, n)
			}
		}
	})
}

// FuzzSearchExact drives the Eq. 19 search over fuzzed AP geometry, AoAs,
// RSSI, bounds, step, decimation and an optional window, and checks the
// branch-and-bound search against the flat scan: SearchExact never reports
// ErrSearchMismatch, and a windowed search returns the point a flat scan of
// the same index range returns. aps holds five bytes per AP (at most
// eight): x and y on a w/128 (h/128) lattice from -w/2 to 1.5w, so APs land
// on grid points and block corners whenever w/128 is a multiple of the
// step; the axis in 360/256-degree steps (0, 90, 180 and 270 included); the
// AoA in 180/255-degree steps (0 and 180 included); and the RSSI, an odd
// RSSI byte also setting a confidence. Inputs are kept to a physical domain
// — finite coordinates within 1e6 m and at most ~130x130 grid points — so
// every execution takes milliseconds.
func FuzzSearchExact(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x40\x20\x80\x00\x40\x70\x21\xc0\xc0\x80\x30\x22"), 0.0, 0.0, 12.8, 12.8, 0.1, uint8(8), false, 0.0, 0.0, 0.0, 0.0)
	f.Add([]byte("\x48\x48\x00\x00\x10\x4f\x47\x40\xff\x11"), -1.5, 2.0, 6.4, 3.2, 0.05, uint8(4), true, 0.0, 3.0, 2.0, 1.5)

	f.Fuzz(func(t *testing.T, aps []byte, minX, minY, w, h, step float64, dec uint8, windowed bool, wx, wy, ww, wh float64) {
		if !finite(minX, minY, w, h, step, wx, wy, ww, wh) || max(math.Abs(minX), math.Abs(minY), math.Abs(wx), math.Abs(wy)) > 1e6 {
			return
		}
		if s := step; s > 0 && (w/s > 130 || h/s > 130) || s <= 0 && (w > 13 || h > 13) {
			return
		}
		if len(aps) > 40 {
			aps = aps[:40]
		}
		obs := make([]APObservation, len(aps)/5)
		for i := range obs {
			b := aps[5*i : 5*i+5]
			obs[i] = APObservation{
				Pos:     Point{X: minX + float64(int(b[0])-64)*w/128, Y: minY + float64(int(b[1])-64)*h/128},
				AxisDeg: float64(b[2]) * 360 / 256,
				AoADeg:  float64(b[3]) * 180 / 255,
				RSSIdBm: -30 - float64(b[4])/4,
			}
			if b[4]&1 == 1 {
				obs[i].Confidence = float64(b[4]) / 255
			}
		}
		bounds := Rect{MinX: minX, MinY: minY, MaxX: minX + w, MaxY: minY + h}
		cfg := SearchConfig{Mode: SearchExact, Decimation: int(dec % 20)}

		g, gerr := newGridSearch(context.Background(), obs, bounds, step)
		_, _, err := LocalizeSearchCtx(context.Background(), obs, bounds, step, 2, cfg)
		if errors.Is(err, ErrSearchMismatch) {
			t.Fatal(err)
		}
		if (err == nil) != (gerr == nil) {
			t.Fatalf("search error %v, input validation error %v", err, gerr)
		}
		if gerr != nil || !windowed {
			return
		}

		win := Rect{MinX: wx, MinY: wy, MaxX: wx + ww, MaxY: wy + wh}
		cfg.Mode, cfg.Window = SearchCoarse, &win
		p, stats, err := LocalizeSearchCtx(context.Background(), obs, bounds, step, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, ok := g.windowIndexRange(win)
		if !ok {
			if stats.Mode == "window" {
				t.Fatalf("window %+v holds no grid point but ran in window mode", win)
			}
			return
		}
		want, err := g.flatRange(r.xLo, r.xHi, r.yLo, r.yHi)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, "window", p, g.pointAt(want.ix, want.iy))
	})
}
