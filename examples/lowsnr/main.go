// Command lowsnr demonstrates the paper's headline claim: sparse recovery
// stays robust where MUSIC collapses. It sweeps the SNR from 20 dB down to
// -5 dB on a fixed two-path channel and reports, for each level, the
// direct-path AoA error of ROArray's sparse joint estimate and of a
// SpotFi-class smoothed MUSIC estimate on the same packets.
//
// Run with:
//
//	go run ./examples/lowsnr
package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"

	"roarray"
	"roarray/internal/music"
	"roarray/internal/spectra"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lowsnr:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	arr := roarray.Intel5300Array()
	ofdm := roarray.Intel5300OFDM()
	const trueAoA = 150.0

	est, err := roarray.NewEstimator(roarray.Config{
		Array:     arr,
		OFDM:      ofdm,
		ThetaGrid: roarray.UniformGrid(0, 180, 61),
		TauGrid:   roarray.UniformGrid(0, ofdm.MaxToA(), 25),
	})
	if err != nil {
		return err
	}
	spotCfg := &music.SpotFiConfig{Array: arr, OFDM: ofdm}

	fmt.Println("Direct-path AoA error (degrees, mean of 6 trials) vs SNR; truth at 150 deg")
	fmt.Printf("%8s %12s %12s\n", "SNR(dB)", "ROArray", "MUSIC")
	for _, snr := range []float64{20, 15, 10, 5, 2, 0, -3, -5} {
		var roaErr, musErr float64
		const trials = 6
		for t := 0; t < trials; t++ {
			ch := &roarray.ChannelConfig{
				Array: arr, OFDM: ofdm,
				Paths: []roarray.Path{
					{AoADeg: trueAoA, ToA: 60e-9, Gain: 1},
					{AoADeg: 70, ToA: 240e-9, Gain: 0.75},
				},
				SNRdB: snr,
			}
			burst, err := roarray.GenerateBurst(ch, 5, rng)
			if err != nil {
				return err
			}

			direct, _, err := est.EstimateDirectAoA(ctx, burst)
			if err != nil {
				roaErr += 90
			} else {
				roaErr += math.Abs(direct.ThetaDeg - trueAoA)
			}

			res, err := music.Estimate(spotCfg, burst)
			if err != nil {
				musErr += 90
			} else {
				musErr += math.Abs(res.DirectAoADeg - trueAoA)
			}
		}
		fmt.Printf("%8.0f %12.1f %12.1f\n", snr, roaErr/trials, musErr/trials)
	}

	// Show the two AoA spectra side by side at a low SNR so the sharpness
	// difference is visible.
	ch := &roarray.ChannelConfig{
		Array: arr, OFDM: ofdm,
		Paths: []roarray.Path{
			{AoADeg: trueAoA, ToA: 60e-9, Gain: 1},
			{AoADeg: 70, ToA: 240e-9, Gain: 0.75},
		},
		SNRdB: 0,
	}
	csi, err := roarray.GenerateCSI(ch, rng)
	if err != nil {
		return err
	}
	sparseSpec, _, err := est.EstimateAoA(ctx, csi)
	if err != nil {
		return err
	}
	fmt.Println("\nROArray sparse AoA spectrum at 0 dB (truth 150 deg):")
	fmt.Print(sparseSpec.ASCII(16, 40))

	musicSpec, err := music.SpatialSpectrum(&music.SpatialConfig{
		Array: arr, ThetaGrid: spectra.UniformGrid(0, 180, 61), NumPaths: 2,
	}, csi)
	if err != nil {
		return err
	}
	fmt.Println("\nSpatial MUSIC pseudospectrum at 0 dB (same packet):")
	fmt.Print(musicSpec.Normalize().ASCII(16, 40))
	return nil
}
