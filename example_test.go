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

// ExampleEngine_LocalizeBatchItems localizes a batch of simulated clients on
// a two-worker engine. Outcome i belongs to item i, a failing slot keeps its
// error to itself, and the answers do not depend on the worker count.
func ExampleEngine_LocalizeBatchItems() {
	dep := roarray.DefaultDeployment()
	reqs, truth, err := dep.BatchRequests(3, 2, roarray.ScenarioConfig{Band: roarray.BandHigh}, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	ofdm := roarray.Intel5300OFDM()
	est, err := roarray.NewEstimator(roarray.Config{
		Array: dep.Array, OFDM: ofdm,
		ThetaGrid: roarray.UniformGrid(0, 180, 46),
		TauGrid:   roarray.UniformGrid(0, ofdm.MaxToA(), 16),
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	eng, err := roarray.NewEngine(est, 2)
	if err != nil {
		fmt.Println(err)
		return
	}
	items := make([]roarray.BatchItem, len(reqs))
	for i, req := range reqs {
		items[i].Req = req
	}
	for i, out := range eng.LocalizeBatchItems(context.Background(), items) {
		if out.Err != nil {
			fmt.Printf("request %d: %v\n", i, out.Err)
			continue
		}
		p := out.Res.Position
		fmt.Printf("request %d: (%.1f, %.1f), %.1f m from truth\n", i, p.X, p.Y, p.Dist(truth[i]))
	}
	// Output:
	// request 0: (13.7, 11.8), 3.3 m from truth
	// request 1: (3.6, 4.5), 0.9 m from truth
	// request 2: (11.9, 7.6), 0.6 m from truth
}

// ExampleCalibratePhases shows the paper's autocalibration: a reference
// transmission from a known direction (120 degrees) through an array with
// unknown per-antenna phase offsets is scored on the estimator's sparse AoA
// spectrum, and the recovered offsets, undone with ApplyPhaseCorrection,
// put the spectrum's peak back on the reference.
func ExampleCalibratePhases() {
	rng := rand.New(rand.NewSource(71))
	arr := roarray.Intel5300Array()
	ofdm := roarray.Intel5300OFDM()
	packets, err := roarray.GenerateBurst(&roarray.ChannelConfig{
		Array: arr, OFDM: ofdm,
		Paths:                  []roarray.Path{{AoADeg: 120, ToA: 30e-9, Gain: 1}},
		SNRdB:                  22,
		AntennaPhaseOffsetsRad: []float64{0, 2.1, 4.0},
	}, 2, rng)
	if err != nil {
		fmt.Println(err)
		return
	}
	est, err := roarray.NewEstimator(roarray.Config{
		Array: arr, OFDM: ofdm,
		ThetaGrid: roarray.UniformGrid(0, 180, 46),
		TauGrid:   roarray.UniformGrid(0, ofdm.MaxToA(), 16),
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	peak := func(csi *roarray.CSI) float64 {
		spec, _, err := est.EstimateAoA(context.Background(), csi)
		if err != nil || len(spec.Peaks(0.5)) == 0 {
			return -1
		}
		return spec.Peaks(0.5)[0].ThetaDeg
	}
	offsets, err := roarray.CalibratePhases(packets, roarray.ROArrayReferenceScore(est, 120), 6)
	if err != nil {
		fmt.Println(err)
		return
	}
	fixed, err := roarray.ApplyPhaseCorrection(packets[0], offsets)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("peak before %.0f degrees, after %.0f degrees\n", peak(packets[0]), peak(fixed))
	// Output: peak before 31 degrees, after 120 degrees
}
