// Command localization runs the full multi-AP ROArray pipeline on the
// paper's simulated testbed: an 18 m x 12 m room with 6 wall-mounted APs.
// For a random client placement it estimates the direct-path AoA at every
// AP from a 15-packet burst and localizes the client by RSSI-weighted AoA
// triangulation (paper Eq. 19).
//
// Run with:
//
//	go run ./examples/localization [-seed N] [-clients N]
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"roarray"
)

func main() {
	seed := flag.Int64("seed", 7, "random seed")
	clients := flag.Int("clients", 3, "number of random client placements")
	flag.Parse()
	if err := run(*seed, *clients); err != nil {
		fmt.Fprintln(os.Stderr, "localization:", err)
		os.Exit(1)
	}
}

func run(seed int64, clients int) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	dep := roarray.DefaultDeployment()

	// A slightly coarser grid keeps each AP estimate under a second.
	ofdm := roarray.Intel5300OFDM()
	est, err := roarray.NewEstimator(roarray.Config{
		Array:     dep.Array,
		OFDM:      ofdm,
		ThetaGrid: roarray.UniformGrid(0, 180, 61),
		TauGrid:   roarray.UniformGrid(0, ofdm.MaxToA(), 25),
	})
	if err != nil {
		return err
	}

	for c := 0; c < clients; c++ {
		client := dep.RandomClient(rng)
		scenario, err := dep.GenerateScenario(client, roarray.ScenarioConfig{
			Band: roarray.BandMedium,
		}, rng)
		if err != nil {
			return err
		}

		fmt.Printf("\nClient %d at (%.2f, %.2f):\n", c+1, client.X, client.Y)
		obs := make([]roarray.APObservation, 0, len(scenario.Links))
		for _, link := range scenario.Links {
			burst, err := roarray.GenerateBurst(link.Channel, 15, rng)
			if err != nil {
				return err
			}
			direct, _, err := est.EstimateDirectAoA(ctx, burst)
			if err != nil {
				return fmt.Errorf("AP %d: %w", link.APIndex, err)
			}
			fmt.Printf("  AP %d at (%5.1f,%5.1f): AoA %6.1f deg (truth %6.1f), RSSI %6.1f dBm\n",
				link.APIndex, link.AP.Pos.X, link.AP.Pos.Y,
				direct.ThetaDeg, link.TrueAoADeg, link.RSSIdBm)
			obs = append(obs, link.Observation(direct.ThetaDeg))
		}

		pos, _, err := roarray.Localize(ctx, obs, dep.Room, 0.1, 1, roarray.SearchConfig{})
		if err != nil {
			return err
		}
		fmt.Printf("  => localized at (%.2f, %.2f), error %.2f m\n", pos.X, pos.Y, pos.Dist(client))
	}
	return nil
}
