// Command tracking follows a client walking through the simulated testbed:
// at each epoch it runs the full ROArray pipeline (per-AP fused direct-path
// AoA + RSSI-weighted localization) and feeds the fix into an alpha-beta
// tracker, showing raw-fix versus smoothed-track error along the walk.
//
// Run with:
//
//	go run ./examples/tracking
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
		fmt.Fprintln(os.Stderr, "tracking:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(17))
	dep := roarray.DefaultDeployment()
	ofdm := roarray.Intel5300OFDM()
	est, err := roarray.NewEstimator(roarray.Config{
		Array:     dep.Array,
		OFDM:      ofdm,
		ThetaGrid: roarray.UniformGrid(0, 180, 46),
		TauGrid:   roarray.UniformGrid(0, ofdm.MaxToA(), 20),
	})
	if err != nil {
		return err
	}
	tracker, err := roarray.NewTracker(0.7, 0.3, 2.5)
	if err != nil {
		return err
	}
	// Raw fixes from the low-SNR epochs carry meter-scale error; tell the
	// innovation gate so ordinary noise is smoothed rather than treated as
	// a track jump.
	tracker.MeasStd = 1.0

	// The client walks a straight line across the room, one position fix
	// per second. Every third epoch the links drop into the low-SNR band,
	// producing the occasional wild fix the tracker's gate exists for.
	fmt.Printf("%6s %14s %14s %12s %12s\n", "t(s)", "truth", "smoothed", "raw err", "track err")
	var rawSum, trackSum float64
	const steps = 10
	for step := 0; step < steps; step++ {
		tm := float64(step)
		truth := roarray.Point{X: 3 + 1.2*tm, Y: 3 + 0.5*tm}
		band := roarray.BandMedium
		if step%3 == 2 {
			band = roarray.BandLow
		}
		sc, err := dep.GenerateScenario(truth, roarray.ScenarioConfig{Band: band}, rng)
		if err != nil {
			return err
		}
		obs := make([]roarray.APObservation, 0, len(sc.Links))
		for _, link := range sc.Links {
			burst, err := roarray.GenerateBurst(link.Channel, 8, rng)
			if err != nil {
				return err
			}
			direct, _, err := est.EstimateDirectAoA(ctx, burst)
			if err != nil {
				continue // drop the AP for this epoch
			}
			obs = append(obs, link.Observation(direct.ThetaDeg))
		}
		fix, _, err := roarray.Localize(ctx, obs, dep.Room, 0.1, roarray.SearchConfig{})
		if err != nil {
			return err
		}
		upd, err := tracker.Update(tm, fix)
		if err != nil {
			return err
		}
		smooth := upd.Smoothed
		rawErr := fix.Dist(truth)
		trackErr := smooth.Dist(truth)
		rawSum += rawErr
		trackSum += trackErr
		fmt.Printf("%6.0f (%5.2f,%5.2f) (%5.2f,%5.2f) %10.2f m %10.2f m\n",
			tm, truth.X, truth.Y, smooth.X, smooth.Y, rawErr, trackErr)
	}
	fmt.Printf("\nmean error: raw fixes %.2f m, smoothed track %.2f m\n",
		rawSum/steps, trackSum/steps)
	return nil
}
