// Command quickstart is the smallest end-to-end ROArray example: simulate
// one CSI packet from a two-path indoor channel, recover the joint AoA/ToA
// spectrum by sparse recovery, and identify the direct path as the peak
// with the smallest ToA.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"

	"roarray"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(1))

	// 1. The receiver: an Intel 5300-class AP — 3 antennas at half
	//    wavelength, 30 reported subcarriers at 1.25 MHz spacing.
	arr := roarray.Intel5300Array()
	ofdm := roarray.Intel5300OFDM()

	// 2. A two-path channel: the direct path at 120 degrees plus a wall
	//    reflection arriving 200 ns later from 40 degrees, measured at a
	//    modest 10 dB SNR with an unknown packet detection delay.
	ch := &roarray.ChannelConfig{
		Array: arr,
		OFDM:  ofdm,
		Paths: []roarray.Path{
			{AoADeg: 120, ToA: 50e-9, Gain: 1},
			{AoADeg: 40, ToA: 250e-9, Gain: 0.7},
		},
		SNRdB:             10,
		MaxDetectionDelay: 100e-9,
	}
	csi, err := roarray.GenerateCSI(ch, rng)
	if err != nil {
		return err
	}

	// 3. The estimator. Defaults give a 2-degree AoA grid and a 50-point
	//    ToA grid over the unambiguous 800 ns range.
	est, err := roarray.NewEstimator(roarray.Config{Array: arr, OFDM: ofdm})
	if err != nil {
		return err
	}

	// 4. Joint AoA/ToA sparse recovery from this single packet.
	spec, _, err := est.EstimateJoint(context.Background(), csi)
	if err != nil {
		return err
	}
	fmt.Println("Recovered paths (power >= 30% of strongest):")
	for _, p := range spec.Peaks(0.3) {
		fmt.Printf("  AoA %6.1f deg   relative ToA %5.0f ns   power %.2f\n",
			p.ThetaDeg, p.Tau*1e9, p.Power)
	}

	// 5. Direct path = smallest ToA among the surviving peaks.
	direct, err := est.DirectPath(spec)
	if err != nil {
		return err
	}
	fmt.Printf("\nDirect path: AoA %.1f deg (ground truth 120.0 deg)\n", direct.ThetaDeg)
	return nil
}
