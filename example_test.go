package roarray_test

import (
	"context"
	"fmt"
	"math/rand"

	"roarray"
)

// ExampleEstimator_EstimateJoint shows the core single-packet pipeline:
// simulate CSI over a two-path channel, recover the joint AoA/ToA spectrum,
// and pick the direct path by the smallest-ToA rule.
func ExampleEstimator_EstimateJoint() {
	rng := rand.New(rand.NewSource(1))
	arr := roarray.Intel5300Array()
	ofdm := roarray.Intel5300OFDM()

	csi, err := roarray.GenerateCSI(&roarray.ChannelConfig{
		Array: arr, OFDM: ofdm,
		Paths: []roarray.Path{
			{AoADeg: 120, ToA: 50e-9, Gain: 1},
			{AoADeg: 40, ToA: 250e-9, Gain: 0.7},
		},
		SNRdB: 20,
	}, rng)
	if err != nil {
		fmt.Println(err)
		return
	}
	est, err := roarray.NewEstimator(roarray.Config{
		Array: arr, OFDM: ofdm,
		ThetaGrid: roarray.UniformGrid(0, 180, 61),
		TauGrid:   roarray.UniformGrid(0, ofdm.MaxToA(), 25),
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	spec, _, err := est.EstimateJoint(context.Background(), csi)
	if err != nil {
		fmt.Println(err)
		return
	}
	direct, err := est.DirectPath(spec)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("direct path at %.0f degrees\n", direct.ThetaDeg)
	// Output: direct path at 120 degrees
}

// ExampleLocalize demonstrates the Eq. 19 RSSI-weighted AoA triangulation
// with noise-free bearings.
func ExampleLocalize() {
	room := roarray.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 8}
	target := roarray.Point{X: 4, Y: 3}
	aps := []struct {
		pos  roarray.Point
		axis float64
	}{
		{roarray.Point{X: 0, Y: 0}, 0},
		{roarray.Point{X: 10, Y: 0}, 90},
		{roarray.Point{X: 0, Y: 8}, 0},
	}
	obs := make([]roarray.APObservation, len(aps))
	for i, ap := range aps {
		obs[i] = roarray.APObservation{
			Pos:     ap.pos,
			AxisDeg: ap.axis,
			AoADeg:  roarray.ExpectedAoA(ap.pos, ap.axis, target),
			RSSIdBm: -50,
		}
	}
	pos, _, err := roarray.Localize(context.Background(), obs, room, 0.1, 1, roarray.SearchConfig{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("(%.1f, %.1f)\n", pos.X, pos.Y)
	// Output: (4.0, 3.0)
}

// ExampleExpectedAoA shows the array-frame AoA convention: angles are
// measured from the array axis, so a source broadside to the array sits at
// 90 degrees.
func ExampleExpectedAoA() {
	ap := roarray.Point{X: 0, Y: 0}
	fmt.Printf("%.0f\n", roarray.ExpectedAoA(ap, 0, roarray.Point{X: 5, Y: 0}))
	fmt.Printf("%.0f\n", roarray.ExpectedAoA(ap, 0, roarray.Point{X: 0, Y: 5}))
	fmt.Printf("%.0f\n", roarray.ExpectedAoA(ap, 0, roarray.Point{X: -5, Y: 0}))
	// Output:
	// 0
	// 90
	// 180
}
